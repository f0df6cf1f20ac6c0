package kickstart

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Record {
	return &Record{
		JobID:          "run_cap3_007",
		Transformation: "run_cap3",
		Site:           "osg",
		Node:           "node-12",
		Attempt:        1,
		SubmitTime:     100,
		SetupStart:     160, // 60 s waiting
		ExecStart:      460, // 300 s download/install
		EndTime:        1460,
		Status:         StatusSuccess,
	}
}

func TestPhaseAccessors(t *testing.T) {
	r := sample()
	if got := r.Waiting(); got != 60 {
		t.Errorf("Waiting = %v, want 60", got)
	}
	if got := r.Setup(); got != 300 {
		t.Errorf("Setup = %v, want 300", got)
	}
	if got := r.Exec(); got != 1000 {
		t.Errorf("Exec = %v, want 1000", got)
	}
	if got := r.total(); got != 1360 {
		t.Errorf("Total = %v, want 1360", got)
	}
}

func TestValidateOrdering(t *testing.T) {
	cases := []func(*Record){
		func(r *Record) { r.JobID = "" },
		func(r *Record) { r.SetupStart = r.SubmitTime - 1 },
		func(r *Record) { r.ExecStart = r.SetupStart - 1 },
		func(r *Record) { r.EndTime = r.ExecStart - 1 },
	}
	for i, mutate := range cases {
		r := sample()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid record validated: %+v", i, r)
		}
	}
	if err := sample().Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
}

func TestStatusString(t *testing.T) {
	if StatusSuccess.String() != "success" || StatusFailed.String() != "failed" ||
		StatusEvicted.String() != "evicted" {
		t.Error("status strings wrong")
	}
	if Status(42).String() != "status(42)" {
		t.Errorf("unknown status = %q", Status(42).String())
	}
}

func TestLogFiltering(t *testing.T) {
	l := &Log{}
	ok := sample()
	if err := l.Append(ok); err != nil {
		t.Fatal(err)
	}
	ev := sample()
	ev.Attempt = 2
	ev.Status = StatusEvicted
	ev.ExitMessage = "preempted by resource owner"
	if err := l.Append(ev); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if s := l.Successes(); len(s) != 1 || s[0] != ok {
		t.Errorf("Successes = %v", s)
	}
	if f := l.Failures(); len(f) != 1 || f[0].ExitMessage == "" {
		t.Errorf("Failures = %v", f)
	}
}

func TestLogAppendRejectsInvalid(t *testing.T) {
	l := &Log{}
	bad := sample()
	bad.EndTime = 0
	if err := l.Append(bad); err == nil {
		t.Error("invalid record appended")
	}
	if l.Len() != 0 {
		t.Error("log grew after rejected append")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := &Log{}
	r1 := sample()
	r2 := sample()
	r2.JobID = "merge"
	r2.Status = StatusFailed
	r2.ExitMessage = "exit 1"
	for _, r := range []*Record{r1, r2} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip Len = %d", got.Len())
	}
	g := got.Records()[1]
	if g.JobID != "merge" || g.Status != StatusFailed || g.ExitMessage != "exit 1" {
		t.Errorf("record not preserved: %+v", g)
	}
	if got.Records()[0].Exec() != 1000 {
		t.Errorf("timings not preserved")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

// readLog writes recs as a JSON-lines log and parses it back.
func readLog(t *testing.T, recs ...*Record) (*Log, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return ReadJSON(&buf)
}

func TestReadJSONRejectsDoubleSuccess(t *testing.T) {
	other := sample()
	other.JobID = "merge"
	_, err := readLog(t, sample(), other, sample())
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "run_cap3_007") {
		t.Fatalf("second success of a job: err = %v, want one naming run_cap3_007 and line 3", err)
	}
}

func TestReadJSONRejectsFailureAfterSuccess(t *testing.T) {
	// A composite's failure record carries its own ID; its landing's
	// records carry each member's, so the grid job is the ClusterID.
	member := sample()
	member.ClusterID = "merged_run_cap3_0"
	bundle := sample()
	bundle.JobID, bundle.ClusterID = "merged_run_cap3_0", "merged_run_cap3_0"
	bundle.Attempt, bundle.Status = 2, StatusEvicted
	_, err := readLog(t, member, bundle)
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "merged_run_cap3_0") {
		t.Fatalf("failure after success: err = %v, want one naming merged_run_cap3_0 and line 2", err)
	}
	// Failures before the landing are the ordinary retry pattern.
	l, err := readLog(t, bundle, member)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Tally().Retries(); got != 1 {
		t.Errorf("evicted bundle then landed: Retries = %d, want 1", got)
	}
}

// Property: for any ordered phase boundaries, the phase durations are
// non-negative and sum to Total.
func TestPropertyPhasesSumToTotal(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		ts := []float64{float64(a), float64(b), float64(c), float64(d)}
		// sort 4 values
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if ts[j] < ts[i] {
					ts[i], ts[j] = ts[j], ts[i]
				}
			}
		}
		r := &Record{JobID: "x", Attempt: 1,
			SubmitTime: ts[0], SetupStart: ts[1], ExecStart: ts[2], EndTime: ts[3]}
		if r.Validate() != nil {
			return false
		}
		if r.Waiting() < 0 || r.Setup() < 0 || r.Exec() < 0 {
			return false
		}
		return math.Abs(r.Waiting()+r.Setup()+r.Exec()-r.total()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
