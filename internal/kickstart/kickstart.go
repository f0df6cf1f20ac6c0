package kickstart

import (
	"encoding/json"
	"fmt"
	"io"
)

// Status is the terminal state of one job attempt.
type Status int

const (
	// StatusSuccess marks a completed attempt.
	StatusSuccess Status = iota
	// StatusFailed marks an attempt that ran and exited with an error.
	StatusFailed
	// StatusEvicted marks an attempt preempted by the resource owner
	// (the OSG failure mode described in the paper).
	StatusEvicted
)

// String returns the lower-case status name.
func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusFailed:
		return "failed"
	case StatusEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Record is the provenance of one job attempt.
type Record struct {
	// JobID is the executable-workflow job ID.
	JobID string `json:"job_id"`
	// Transformation is the logical executable name.
	Transformation string `json:"transformation"`
	// Site and Node locate the attempt.
	Site string `json:"site"`
	Node string `json:"node,omitempty"`
	// Attempt numbers retries from 1.
	Attempt int `json:"attempt"`
	// ClusterID names the composite (clustered) grid job this attempt ran
	// inside, when horizontal task clustering folded several payload tasks
	// into one dispatch; empty for unclustered attempts. All member
	// records of one clustered attempt share the composite's ClusterID.
	ClusterID string `json:"cluster_id,omitempty"`
	// SubmitTime is when the meta-scheduler released the job.
	SubmitTime float64 `json:"submit_time"`
	// SetupStart is when the node began working on the job (end of the
	// waiting phase).
	SetupStart float64 `json:"setup_start"`
	// ExecStart is when the payload began executing (end of setup).
	ExecStart float64 `json:"exec_start"`
	// EndTime is when the attempt finished (successfully or not).
	EndTime float64 `json:"end_time"`
	// Status is the terminal state.
	Status Status `json:"status"`
	// ExitMessage carries failure detail for non-success attempts.
	ExitMessage string `json:"exit_message,omitempty"`
}

// Waiting returns the paper's "Waiting Time" statistic for this attempt.
func (r *Record) Waiting() float64 { return r.SetupStart - r.SubmitTime }

// Setup returns the paper's "Download/Install Time" statistic.
func (r *Record) Setup() float64 { return r.ExecStart - r.SetupStart }

// Exec returns the paper's "Kickstart Time" statistic (actual duration on
// the remote node).
func (r *Record) Exec() float64 { return r.EndTime - r.ExecStart }

// Total returns submit-to-end time for the attempt.
func (r *Record) Total() float64 { return r.EndTime - r.SubmitTime }

// Validate checks that the phase timestamps are ordered.
func (r *Record) Validate() error {
	if r.JobID == "" {
		return fmt.Errorf("kickstart: record with empty job ID")
	}
	if r.SetupStart < r.SubmitTime {
		return fmt.Errorf("kickstart: %s attempt %d: setup start %.3f before submit %.3f",
			r.JobID, r.Attempt, r.SetupStart, r.SubmitTime)
	}
	if r.ExecStart < r.SetupStart {
		return fmt.Errorf("kickstart: %s attempt %d: exec start %.3f before setup start %.3f",
			r.JobID, r.Attempt, r.ExecStart, r.SetupStart)
	}
	if r.EndTime < r.ExecStart {
		return fmt.Errorf("kickstart: %s attempt %d: end %.3f before exec start %.3f",
			r.JobID, r.Attempt, r.EndTime, r.ExecStart)
	}
	return nil
}

// Log is an append-only collection of attempt records for one workflow run.
//
// A Log normally retains every record. SetAggregate switches it to
// aggregation mode, where Append folds each record into fixed-size
// accumulators and quantile sketches instead of retaining it — the
// memory-flat path for million-job runs. Aggregation assumes the
// engine's record invariants (each job succeeds at most once, and never
// fails after succeeding); logs parsed back from JSON are always exact.
type Log struct {
	records  []*Record
	appended int
	agg      *Aggregates
	// onRecords, when non-nil, observes every Records call. Tests use it
	// to pin single-pass consumers (stats.Summarize must not walk the
	// log twice).
	onRecords func()
}

// SetAggregate switches the log to aggregation mode. It must be called
// before the first Append; switching a log that already retains records
// panics, because the retained records would silently vanish from the
// aggregates.
func (l *Log) SetAggregate() {
	if len(l.records) > 0 {
		panic("kickstart: SetAggregate on a log that already retains records")
	}
	if l.agg == nil {
		l.agg = newAggregates()
	}
}

// Aggregates returns the folded view of an aggregating log, or nil for
// an exact log.
func (l *Log) Aggregates() *Aggregates { return l.agg }

// ObserveRecords installs fn to be invoked on every Records call — a
// test seam for asserting how many passes a consumer makes over the
// log.
func (l *Log) ObserveRecords(fn func()) { l.onRecords = fn }

// Append adds a record after validating it. In aggregation mode the
// record is folded and not retained; the caller keeps ownership and may
// recycle it.
func (l *Log) Append(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	l.appended++
	if l.agg != nil {
		l.agg.fold(r)
		return nil
	}
	l.records = append(l.records, r)
	return nil
}

// Records returns all records in append order. An aggregating log
// retains none and returns nil.
func (l *Log) Records() []*Record {
	if l.onRecords != nil {
		l.onRecords()
	}
	return l.records
}

// Len returns the number of records appended, whether or not they were
// retained.
func (l *Log) Len() int { return l.appended }

// Successes returns only the records of successful attempts.
func (l *Log) Successes() []*Record {
	var out []*Record
	for _, r := range l.records {
		if r.Status == StatusSuccess {
			out = append(out, r)
		}
	}
	return out
}

// Failures returns only the records of unsuccessful attempts.
func (l *Log) Failures() []*Record {
	var out []*Record
	for _, r := range l.records {
		if r.Status != StatusSuccess {
			out = append(out, r)
		}
	}
	return out
}

// WriteJSON streams the log as JSON lines, one record per line.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range l.records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSON parses a JSON-lines log.
func ReadJSON(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	l := &Log{}
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, fmt.Errorf("kickstart: parsing log: %w", err)
		}
		if err := l.Append(&rec); err != nil {
			return nil, err
		}
	}
}
