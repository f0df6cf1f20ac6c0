package kickstart

import (
	"bufio"
	"bytes"
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

// total returns submit-to-end time for the attempt.
func (r *Record) total() float64 { return r.EndTime - r.SubmitTime }

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
// Every Log keeps a running Tally on Append. A Log normally retains every
// record as well; SetAggregate switches it to aggregation mode, where
// Append folds each record into the per-transformation and per-cluster
// tables and quantile sketches of its Aggregates instead of retaining it —
// the memory-flat path for million-job runs. An exact log folds the same
// tables from its records on demand. The tally's retry count assumes the
// engine's record invariants (each job succeeds at most once, and a grid
// job never fails after succeeding); ReadJSON refuses a log that breaks
// them.
type Log struct {
	records []*Record
	tally   Tally
	agg     *Aggregates
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

// Tally returns the log's running counts.
func (l *Log) Tally() Tally { return l.tally }

// Append adds a record after validating it. In aggregation mode the
// record is folded and not retained; the caller keeps ownership and may
// recycle it.
func (l *Log) Append(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	l.tally.fold(r)
	if l.agg != nil {
		l.agg.fold(r)
		return nil
	}
	l.records = append(l.records, r)
	return nil
}

// ByTransformation returns successful attempts' phase timings keyed by
// transformation: the table an aggregating log folded on Append, or one
// folded now from an exact log's records. Callers must not modify it.
func (l *Log) ByTransformation() map[string]*PhaseAccum {
	if l.agg != nil {
		return l.agg.byTransformation
	}
	m := make(map[string]*PhaseAccum)
	for _, r := range l.records {
		if r.Status == StatusSuccess {
			foldTransformation(m, r)
		}
	}
	return m
}

// ByCluster returns the composite-job accumulators keyed by ClusterID,
// folded on Append or from the records on demand as ByTransformation's
// table is. Callers must not modify it.
func (l *Log) ByCluster() map[string]*ClusterAccum {
	if l.agg != nil {
		return l.agg.byCluster
	}
	m := make(map[string]*ClusterAccum)
	for _, r := range l.records {
		if r.ClusterID != "" {
			foldCluster(m, r)
		}
	}
	return m
}

// Records returns all records in append order. An aggregating log
// retains none and returns nil.
func (l *Log) Records() []*Record { return l.records }

// Len returns the number of records appended, whether or not they were
// retained.
func (l *Log) Len() int { return l.tally.Attempts }

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

// ReadJSON parses a JSON-lines log, one record per line; blank lines are
// skipped. Besides each record's own validity it checks the engine's
// record invariants the tally relies on, refusing a log in which a job
// succeeds twice or a grid job fails after it succeeded.
func ReadJSON(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	l := &Log{}
	succeeded := make(map[string]bool)     // by JobID
	gridSucceeded := make(map[string]bool) // by gridJob
	for line := 1; ; line++ {
		b, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("kickstart: reading log: %w", err)
		}
		if len(bytes.TrimSpace(b)) > 0 {
			rec := &Record{}
			if err := json.Unmarshal(b, rec); err != nil {
				return nil, fmt.Errorf("kickstart: parsing log line %d: %w", line, err)
			}
			if err := l.Append(rec); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if rec.Status == StatusSuccess {
				if succeeded[rec.JobID] {
					return nil, fmt.Errorf("kickstart: line %d: job %s succeeded twice", line, rec.JobID)
				}
				succeeded[rec.JobID] = true
				gridSucceeded[gridJob(rec)] = true
			} else if gridSucceeded[gridJob(rec)] {
				return nil, fmt.Errorf("kickstart: line %d: job %s failed after it succeeded", line, gridJob(rec))
			}
		}
		if err == io.EOF {
			return l, nil
		}
	}
}
