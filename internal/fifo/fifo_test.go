package fifo

import (
	"reflect"
	"testing"
)

func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatalf("zero-value Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		if got := q.Peek(); got != i {
			t.Fatalf("Peek = %d, want %d", got, i)
		}
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after drain = %d", q.Len())
	}
}

func TestQueueInterleaved(t *testing.T) {
	var q Queue[int]
	next, expect := 0, 0
	// Push bursts of 3, pop bursts of 2, so the live window slides through
	// many compactions while staying non-empty.
	for round := 0; round < 5000; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Errorf("popped %d elements, pushed %d", expect, next)
	}
}

// The backing array must stay O(live): after steady one-in-one-out traffic
// the dead prefix is bounded by the compaction threshold, not by the total
// number of elements that ever passed through.
func TestQueueBoundedRetention(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 100000; i++ {
		v := i
		q.Push(&v)
		q.Pop()
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if len(q.buf) != 0 || q.head != 0 {
		t.Errorf("internal state not reset: len(buf)=%d head=%d", len(q.buf), q.head)
	}
	// A partially drained queue keeps its dead prefix under control.
	for i := 0; i < 1000; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 999; i++ {
		q.Pop()
	}
	if q.head > len(q.buf)/2 && q.head >= compactThreshold {
		t.Errorf("dead prefix not compacted: head=%d len(buf)=%d", q.head, len(q.buf))
	}
	// Popped slots are zeroed so the elements are collectable.
	for i := 0; i < q.head; i++ {
		if q.buf[i] != nil {
			t.Fatalf("popped slot %d still pins its element", i)
		}
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

func TestQueuePeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Peek on empty queue did not panic")
		}
	}()
	var q Queue[string]
	q.Peek()
}

// TestSlabTypesCarryNoCopy: the leading noCopy field is what makes `go vet`
// reject a by-value copy of a slab type; dropping it must fail here.
func TestSlabTypesCarryNoCopy(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Queue[int])(nil)).Elem(),
	} {
		if f := typ.Field(0); f.Type != reflect.TypeOf(noCopy{}) {
			t.Errorf("%s: first field is %s %s, want the noCopy guard", typ, f.Name, f.Type)
		}
	}
}
