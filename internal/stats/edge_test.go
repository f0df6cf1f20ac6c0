package stats

import (
	"math"
	"testing"

	"pegflow/internal/kickstart"
)

// mkLog builds a log from (submit, setupStart, execStart, end, status)
// tuples, failing the test on records the validator rejects.
func mkLog(t *testing.T, rows [][4]float64, statuses []kickstart.Status) *kickstart.Log {
	t.Helper()
	log := &kickstart.Log{}
	for i, r := range rows {
		st := kickstart.StatusSuccess
		if statuses != nil {
			st = statuses[i]
		}
		err := log.Append(&kickstart.Record{
			JobID: "j", Transformation: "t", Site: "s", Attempt: 1,
			SubmitTime: r[0], SetupStart: r[1], ExecStart: r[2], EndTime: r[3],
			Status: st,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// successExecs returns the exec times of a log's successful attempts —
// the value set a percentile column summarizes.
func successExecs(log *kickstart.Log) []float64 {
	var vs []float64
	for _, r := range log.Successes() {
		vs = append(vs, r.Exec())
	}
	return vs
}

func TestPercentileEdgeCases(t *testing.T) {
	// Five successes with exec times 10, 20, 30, 40, 50.
	var rows [][4]float64
	for i := 1; i <= 5; i++ {
		rows = append(rows, [4]float64{0, 0, 0, float64(10 * i)})
	}
	vals := successExecs(mkLog(t, rows, nil))

	cases := []struct {
		name string
		p    float64
		want float64
	}{
		{"p0_is_min", 0, 10},
		{"p_negative_clamped_to_min", -7, 10},
		{"p100_is_max", 100, 50},
		{"p_above_100_clamped_to_max", 250, 50},
		{"p_inf_clamped_to_max", math.Inf(1), 50},
		{"p_neg_inf_clamped_to_min", math.Inf(-1), 10},
		{"nan_p_is_zero", math.NaN(), 0},
		{"median_nearest_rank", 50, 30},
		{"p90_nearest_rank", 90, 50},
		{"tiny_p_clamps_to_first", 1e-9, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := PercentilesOf(vals, c.p)[0]; got != c.want {
				t.Errorf("PercentilesOf(p=%v) = %v, want %v", c.p, got, c.want)
			}
		})
	}

	t.Run("empty_log", func(t *testing.T) {
		if got := PercentilesOf(successExecs(&kickstart.Log{}), 50)[0]; got != 0 {
			t.Errorf("empty log percentile = %v, want 0", got)
		}
	})
	t.Run("failures_only", func(t *testing.T) {
		failed := mkLog(t, [][4]float64{{0, 1, 2, 3}}, []kickstart.Status{kickstart.StatusFailed})
		if got := PercentilesOf(successExecs(failed), 50)[0]; got != 0 {
			t.Errorf("failures-only percentile = %v, want 0", got)
		}
	})
	t.Run("single_success", func(t *testing.T) {
		one := successExecs(mkLog(t, [][4]float64{{0, 0, 0, 7}}, nil))
		for _, p := range []float64{0, 1, 50, 99, 100} {
			if got := PercentilesOf(one, p)[0]; got != 7 {
				t.Errorf("single-record percentile(p=%v) = %v, want 7", p, got)
			}
		}
	})
}

func TestBuildTimelineEdgeCases(t *testing.T) {
	t.Run("empty_log", func(t *testing.T) {
		tl := BuildTimeline(&kickstart.Log{}, 8)
		if tl.BucketSeconds != 0 || len(tl.Buckets) != 0 {
			t.Errorf("empty log timeline = %+v, want zero", tl)
		}
	})

	t.Run("all_records_at_time_zero", func(t *testing.T) {
		// Instantaneous records at t=0: no extent, so no buckets.
		tl := BuildTimeline(mkLog(t, [][4]float64{{0, 0, 0, 0}}, nil), 4)
		if len(tl.Buckets) != 0 {
			t.Errorf("zero-extent log produced %d buckets", len(tl.Buckets))
		}
	})

	t.Run("bucket_count_clamped_to_one", func(t *testing.T) {
		log := mkLog(t, [][4]float64{{0, 10, 20, 40}}, nil)
		for _, n := range []int{0, -3} {
			tl := BuildTimeline(log, n)
			if len(tl.Buckets) != 1 {
				t.Errorf("buckets=%d requested, got %d rows, want 1", n, len(tl.Buckets))
			}
		}
	})

	t.Run("zero_duration_phases_invisible", func(t *testing.T) {
		// No waiting (submit==setup), no setup (setup==exec): only the
		// exec phase contributes.
		tl := BuildTimeline(mkLog(t, [][4]float64{{5, 5, 5, 10}}, nil), 1)
		b := tl.Buckets[0]
		if b.Waiting != 0 || b.Installing != 0 || b.Executing != 1 {
			t.Errorf("bucket = %+v, want only executing", b)
		}
	})

	t.Run("eviction_during_setup", func(t *testing.T) {
		// The platform clamps ExecStart to EndTime when a job is evicted
		// mid-install: the attempt occupied its node waiting then
		// installing, and never executed.
		log := mkLog(t, [][4]float64{{0, 40, 100, 100}},
			[]kickstart.Status{kickstart.StatusEvicted})
		tl := BuildTimeline(log, 10) // 10-second buckets over [0, 100)
		var wait, inst, exec int
		for _, b := range tl.Buckets {
			wait += b.Waiting
			inst += b.Installing
			exec += b.Executing
		}
		if wait != 4 || inst != 6 || exec != 0 {
			t.Errorf("wait/inst/exec buckets = %d/%d/%d, want 4/6/0", wait, inst, exec)
		}
	})

	t.Run("phase_ending_exactly_at_end", func(t *testing.T) {
		// A phase closing on the final bucket boundary must land in the
		// last bucket, not one past it.
		tl := BuildTimeline(mkLog(t, [][4]float64{{0, 0, 0, 80}}, nil), 4)
		if got := tl.Buckets[3].Executing; got != 1 {
			t.Errorf("last bucket executing = %d, want 1", got)
		}
	})

	t.Run("failed_attempts_count_toward_utilization", func(t *testing.T) {
		log := mkLog(t, [][4]float64{{0, 10, 20, 40}},
			[]kickstart.Status{kickstart.StatusFailed})
		tl := BuildTimeline(log, 1)
		b := tl.Buckets[0]
		if b.Waiting != 1 || b.Installing != 1 || b.Executing != 1 {
			t.Errorf("failed attempt invisible in timeline: %+v", b)
		}
	})
}
