package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"

	"pegflow/internal/ensemble"
	"pegflow/internal/fault"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/pool"
	"pegflow/internal/stats"
	"pegflow/internal/stats/quantile"
	"pegflow/internal/workflow"
)

// ResultCache caches finished cell lines by (document fingerprint, cell
// index). Cells are deterministic functions of the fingerprinted
// document, so a hit is byte-identical to a fresh simulation; Run skips
// the gate and the simulation entirely for hits. Implementations must be
// safe for concurrent use and must treat stored lines as immutable (see
// internal/server/resultcache).
type ResultCache interface {
	Get(fingerprint string, cell int) ([]byte, bool)
	Put(fingerprint string, cell int, line []byte)
}

// RunOptions tunes scenario execution.
type RunOptions struct {
	// Workers bounds concurrent cells (<= 0 means all CPUs). The output
	// is byte-identical for any worker count.
	Workers int
	// Context, when set, aborts the run once canceled: no new cells
	// start, cells waiting in Gate stop waiting, and Run returns the
	// context's error. The server passes the request context so a
	// disconnected client stops paying for simulation it will never
	// read.
	Context context.Context
	// Gate, when set, wraps the execution of every simulated cell (cache
	// hits skip it). The server installs a process-wide semaphore here so
	// concurrent requests share one bounded simulation pool. A gate that
	// returns an error — the context canceled while waiting for capacity
	// — aborts the run without executing the cell. Gate may block; Run
	// calls it from a worker holding no lock.
	Gate func(ctx context.Context, run func()) error
	// Cache, when set, serves cells addressed by (Fingerprint, index)
	// without simulating them and stores fresh lines after simulation.
	// Run looks every cell up exactly once, when it starts, before any cell
	// is simulated: a cell another request stores while this one runs is
	// simulated again rather than served.
	Cache ResultCache
	// OnBatch, when set, receives the output lines (without trailing
	// newlines) as soon as they are available, in deterministic order:
	// header first, then cells in grid order, then the footer. Each call
	// carries every line that became ready together — the header with the
	// cells served from the cache before the first miss, a simulated cell
	// with the cached cells after it — and no line waits for a later one,
	// so a batch never holds a line back while a cell simulates. The server
	// writes a batch and flushes it once. An OnBatch error aborts the run:
	// no further lines are delivered or simulated and Run returns the
	// error. Calls are serialized: each runs under the run's output lock,
	// so a slow OnBatch (a slow client) throttles the workers, by design.
	// The slice is valid only during the call.
	OnBatch func(lines [][]byte) error
}

// CellPanicError reports a cell whose simulation panicked. Run converts
// the panic into an error instead of crashing the process, so one
// poisoned cell cannot take down a server streaming many requests; the
// server unwraps it with errors.As to emit a structured error line.
type CellPanicError struct {
	// Cell is the panicking cell's grid index.
	Cell int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Header is the first NDJSON line of a scenario run.
type Header struct {
	Scenario    string `json:"scenario"`
	Fingerprint string `json:"fingerprint"`
	Version     int    `json:"version"`
	Cells       int    `json:"cells"`
}

// Footer is the last NDJSON line of a scenario run.
type Footer struct {
	Done  bool `json:"done"`
	Cells int  `json:"cells"`
}

// Run executes every cell of the compiled scenario across the bounded
// worker pool and returns the output lines: a header, one JSON object per
// cell in grid order, and a footer. Cells are simulated concurrently but
// emitted in order, so the concatenated output is byte-identical for any
// worker count. Cells the cache holds never reach the pool: a run whose
// every cell is cached emits all of its lines in one batch.
func (c *Compiled) Run(opts RunOptions) ([][]byte, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scenario: canceled before the run: %w", err)
	}
	// Output line 0 is the header, cell i is line i+1, the footer is last.
	// The footer's slot is filled up front: the emitter passes a line on
	// only once every earlier one is out, so it follows the last cell, and
	// never a run that failed.
	lines := make([][]byte, len(c.Cells)+2)
	var err error
	if lines[0], err = json.Marshal(Header{
		Scenario:    c.Doc.Name,
		Fingerprint: c.Fingerprint,
		Version:     c.Doc.SchemaVersion,
		Cells:       len(c.Cells),
	}); err != nil {
		return nil, err
	}
	if lines[len(lines)-1], err = json.Marshal(Footer{Done: true, Cells: len(c.Cells)}); err != nil {
		return nil, err
	}
	// One lookup per cell, before any is simulated; only misses reach the
	// pool.
	var misses []int
	for i := range c.Cells {
		if opts.Cache != nil {
			lines[i+1], _ = opts.Cache.Get(c.Fingerprint, i)
		}
		if lines[i+1] == nil {
			misses = append(misses, i)
		}
	}
	// The first batch: the header and every cached cell before the first
	// miss (the footer too, when nothing missed).
	out := &emitter{onBatch: opts.OnBatch, lines: lines}
	if err := out.deliver(0, lines[0]); err != nil {
		return nil, err
	}

	err = pool.ForEach(opts.Workers, len(misses), func(k int) (retErr error) {
		i := misses[k]
		// One poisoned cell must not take down the process (a server may
		// be streaming many other requests): convert the panic into a
		// CellPanicError carrying the cell index and stack.
		defer func() {
			if r := recover(); r != nil {
				retErr = fmt.Errorf("scenario: cell %d: %w",
					i, &CellPanicError{Cell: i, Value: r, Stack: debug.Stack()})
			}
		}()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("scenario: canceled before cell %d: %w", i, ctxErr)
		}
		if err := out.failed(); err != nil {
			return err
		}
		var line []byte
		var cellErr error
		work := func() { line, cellErr = c.cellLine(c.Cells[i]) }
		if opts.Gate != nil {
			if gateErr := opts.Gate(ctx, work); gateErr != nil {
				return fmt.Errorf("scenario: cell %d: gate: %w", i, gateErr)
			}
		} else {
			work()
		}
		if cellErr != nil {
			return fmt.Errorf("scenario: cell %d: %w", i, cellErr)
		}
		if opts.Cache != nil {
			opts.Cache.Put(c.Fingerprint, i, line)
		}
		// A failed OnBatch write (client gone) aborts remaining dispatch.
		return out.deliver(i+1, line)
	})
	if err != nil {
		return nil, err
	}
	return out.all(), nil
}

// emitter puts a run's output lines in order: cells finish in any order,
// and each line waits in its slot until every earlier one has been passed
// to onBatch. onBatch runs under the lock — that is what keeps its calls
// serialized and in order — so a slow client throttles the workers
// delivering to it, by design.
type emitter struct {
	mu      sync.Mutex
	onBatch func([][]byte) error
	lines   [][]byte // by output line; nil until delivered
	next    int      // the first line not yet passed to onBatch
	err     error    // the first onBatch failure
}

// failed returns the first onBatch failure, if any.
func (e *emitter) failed() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// deliver stores output line i and passes every line now in order to
// onBatch in one call, returning the first failure.
func (e *emitter) deliver(i int, line []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lines[i] = line
	if e.err != nil {
		return e.err
	}
	start := e.next
	for e.next < len(e.lines) && e.lines[e.next] != nil {
		e.next++
	}
	if e.onBatch != nil && e.next > start {
		if err := e.onBatch(e.lines[start:e.next]); err != nil {
			e.err = fmt.Errorf("scenario: emitting line: %w", err)
		}
	}
	return e.err
}

// all returns every output line, in order.
func (e *emitter) all() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lines
}

// cellLine runs one cell and renders its row as compact JSON. Rows are
// map-backed: encoding/json sorts map keys, so the bytes are deterministic.
func (c *Compiled) cellLine(cell Cell) ([]byte, error) {
	row, err := c.runCell(cell)
	if err != nil {
		return nil, err
	}
	return json.Marshal(row)
}

// cellMetrics is the unfiltered metric set of one cell.
type cellMetrics struct {
	makespan, meanWorkflowMakespan, cumulativeKickstart     float64
	jobs, attempts, retries, evictions, failovers, backoffs int
	outages, gridJobs                                       int
	downtimeSeconds                                         float64
	success                                                 bool
	logs                                                    []*kickstart.Log
}

// runCell executes one cell and assembles its row.
// The row holds nothing of the run, so once it is built the run's storage
// goes to the next cell (ensemble.Result.Release).
func (c *Compiled) runCell(cell Cell) (map[string]any, error) {
	res, err := c.Simulate(cell)
	if err != nil {
		return nil, err
	}
	m := metricsOf(res)

	row := map[string]any{
		"cell":      cell.Index,
		"n":         cell.N,
		"seed":      cell.Seed,
		"sites":     cell.SiteSet,
		"failover":  cell.Failover,
		"workflows": c.workflows(),
	}
	if cell.Policy != "" {
		row["policy"] = cell.Policy
	}
	if cell.Cluster.MaxTasks > 0 {
		row["cluster_max_tasks"] = cell.Cluster.MaxTasks
	}
	if cell.Cluster.TargetSeconds > 0 {
		row["cluster_target_s"] = cell.Cluster.TargetSeconds
	}

	metrics := map[string]any{
		"makespan_s":               m.makespan,
		"mean_workflow_makespan_s": m.meanWorkflowMakespan,
		"cumulative_kickstart_s":   m.cumulativeKickstart,
		"jobs":                     m.jobs,
		"attempts":                 m.attempts,
		"retries":                  m.retries,
		"evictions":                m.evictions,
		"failovers":                m.failovers,
		"backoffs":                 m.backoffs,
		"outages":                  m.outages,
		"downtime_s":               m.downtimeSeconds,
		"success":                  m.success,
	}
	for _, f := range c.Doc.Outputs.Fields {
		switch f {
		case "grid_jobs":
			row[f] = m.gridJobs
		case "per_transformation":
			tables := make([][]stats.TaskStats, len(m.logs))
			for i, lg := range m.logs {
				tables[i] = stats.PerTransformation(lg)
			}
			row[f] = tables
		default:
			row[f] = metrics[f]
		}
	}

	if ps := c.Doc.Outputs.Percentiles; len(ps) > 0 {
		var kp, wp []float64
		if c.Doc.Outputs.Aggregate {
			// Aggregated cells never retained records; the per-log
			// streaming sketches merge into one per-cell estimate.
			kp = mergedQuantiles(m.logs, execSketch, ps)
			wp = mergedQuantiles(m.logs, waitSketch, ps)
		} else {
			kick, wait := successPhases(m.logs)
			kp = stats.PercentilesInPlace(kick, ps...)
			wp = stats.PercentilesInPlace(wait, ps...)
		}
		for i, p := range ps {
			suffix := strconv.FormatFloat(p, 'g', -1, 64)
			row["kickstart_p"+suffix] = kp[i]
			row["waiting_p"+suffix] = wp[i]
		}
	}
	res.Release()
	return row, nil
}

// workflows returns the member count of every cell.
func (c *Compiled) workflows() int {
	if c.Doc.Ensemble != nil {
		return c.Doc.Ensemble.Workflows
	}
	return 1
}

// successPhases returns the kickstart and waiting time of every successful
// attempt, log by log in append order, from one walk into slices sized for
// every attempt.
func successPhases(logs []*kickstart.Log) (kick, wait []float64) {
	attempts := 0
	for _, lg := range logs {
		attempts += lg.Len()
	}
	kick, wait = make([]float64, 0, attempts), make([]float64, 0, attempts)
	for _, lg := range logs {
		for _, r := range lg.Records() {
			if r.Status == kickstart.StatusSuccess {
				kick = append(kick, r.Exec())
				wait = append(wait, r.Waiting())
			}
		}
	}
	return kick, wait
}

func execSketch(a *kickstart.Aggregates) *quantile.Sketch { return a.ExecSketch }
func waitSketch(a *kickstart.Aggregates) *quantile.Sketch { return a.WaitSketch }

// mergedQuantiles merges the picked sketch of every aggregating log and
// evaluates the percentiles on the union. The merge is deterministic, so
// cell rows stay byte-identical across runs and worker counts.
func mergedQuantiles(logs []*kickstart.Log, pick func(*kickstart.Aggregates) *quantile.Sketch, ps []float64) []float64 {
	merged := quantile.NewSketch()
	for _, lg := range logs {
		if agg := lg.Aggregates(); agg != nil {
			merged.Merge(pick(agg))
		}
	}
	return quantile.Of(merged, ps...)
}

// Simulate runs one cell: every cell — one workflow on one preset site as
// much as an ensemble failing over between inline sites — compiles onto an
// EnsembleExperiment (a single workflow is an ensemble of one, a single site
// a pool of one). Member workflows are seeded cell.Seed+i; the plan cache
// serves every seed of a (params, n, sites, catalog content, stage-in) shape
// from one resolved master, across cells and requests. The caller releases
// the result (ensemble.Result.Release) once it has read it; core's paper
// grid keeps its results and does not.
func (c *Compiled) Simulate(cell Cell) (*ensemble.Result, error) {
	policy := cell.Policy
	if policy == "" {
		// Single-site set: any policy resolves every job to the one site.
		policy = planner.PolicyDataAware
	}
	exp := &EnsembleExperiment{
		Seed:       cell.Seed,
		Workflows:  c.workflows(),
		N:          cell.N,
		Policy:     policy,
		World:      c.world,
		Sites:      cell.SiteSet,
		RetryLimit: c.retries,
		Cluster:    cell.Cluster.options(),
		Failover:   cell.Failover,
		MemberWorkload: func(i int) workflow.Workload {
			return workflow.CustomWorkload(c.params, cell.Seed+uint64(i))
		},
		Aggregate: c.Doc.Outputs.Aggregate,
	}
	if c.Doc.Ensemble != nil {
		exp.MaxInFlight = c.Doc.Ensemble.MaxInFlight
	}
	if rb := c.Doc.RetryBackoff; rb != nil {
		exp.BackoffBase = rb.BaseSeconds
		exp.BackoffCap = rb.CapSeconds
	}
	if len(c.Doc.Faults) > 0 {
		// Only the faults whose site this cell's set contains apply; the
		// per-cell compile is cheap relative to a simulation.
		inSet := make(map[string]bool, len(cell.SiteSet))
		for _, name := range cell.SiteSet {
			inSet[name] = true
		}
		var specs []fault.Spec
		for _, f := range c.Doc.Faults {
			if inSet[f.Site] {
				specs = append(specs, f)
			}
		}
		script, err := fault.Compile(specs)
		if err != nil {
			return nil, err
		}
		exp.Faults = script
	}
	return exp.Run()
}

// metricsOf totals a cell's result into its row metrics.
func metricsOf(res *ensemble.Result) cellMetrics {
	m := cellMetrics{makespan: res.Makespan, success: true}
	for _, s := range res.Sites {
		m.outages += s.Outages
		m.downtimeSeconds += s.DowntimeSeconds
	}
	m.logs = make([]*kickstart.Log, 0, len(res.Workflows))
	for _, w := range res.Workflows {
		r := w.Result
		sum := stats.Summarize(r.Log, r.Makespan)
		m.meanWorkflowMakespan += r.Makespan
		m.cumulativeKickstart += sum.CumulativeKickstart
		m.jobs += sum.Jobs
		m.gridJobs += len(r.Completed) + len(r.Unfinished)
		m.attempts += sum.Attempts
		m.retries += r.Retries
		m.evictions += r.Evictions
		m.failovers += r.Failovers
		m.backoffs += r.Backoffs
		m.success = m.success && r.Success
		m.logs = append(m.logs, r.Log)
	}
	m.meanWorkflowMakespan /= float64(len(res.Workflows))
	return m
}
