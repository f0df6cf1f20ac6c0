package blast2cap3

import (
	"fmt"
	"time"

	"pegflow/internal/bio/cap3"
	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// taskContext is what a task receives when a job runs locally.
type taskContext struct {
	// Job is the planned job being executed.
	Job *planner.Job
	// WorkDir is the directory holding the workflow's files.
	WorkDir string
	// Args are the job's command-line arguments.
	Args []string
}

// task is the local implementation of a logical transformation.
type task func(ctx *taskContext) error

// localExecutor runs planned jobs as real Go functions with bounded
// parallelism — the "real mode" of the system: examples and tests execute
// actual CAP3/BLAST work through it. It measures the wall clock and runs
// each task on its own goroutine, so it lives here, outside the simulation
// boundary.
type localExecutor struct {
	registry map[string]task
	workDir  string
	sem      chan struct{}
	events   chan engine.Event
	start    time.Time
}

// newLocalExecutor builds an executor with the given task registry,
// working directory and parallelism, which must be positive.
func newLocalExecutor(reg map[string]task, workDir string, parallelism int) *localExecutor {
	return &localExecutor{
		registry: reg,
		workDir:  workDir,
		sem:      make(chan struct{}, parallelism),
		events:   make(chan engine.Event, 64),
		start:    time.Now(),
	}
}

// Now returns seconds since the executor was created.
func (e *localExecutor) Now() float64 { return time.Since(e.start).Seconds() }

// Submit schedules the job on the worker pool. Unknown transformations
// fail the attempt rather than erroring the submission, mirroring how a
// batch system reports a missing executable as a job failure.
func (e *localExecutor) Submit(job *planner.Job, attempt int) {
	submitTime := e.Now()
	go func() {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		setupStart := e.Now()

		rec := &kickstart.Record{
			JobID:          job.ID,
			Transformation: job.Transformation,
			Site:           job.Site,
			Node:           "local",
			Attempt:        attempt,
			SubmitTime:     submitTime,
			SetupStart:     setupStart,
		}
		fn, ok := e.registry[job.Transformation]
		rec.ExecStart = e.Now()
		var err error
		if !ok {
			err = fmt.Errorf("local: transformation %q not registered", job.Transformation)
		} else {
			err = e.run(fn, job)
		}
		rec.EndTime = e.Now()
		ev := engine.Event{JobID: job.ID, Pos: job.Pos(), Time: rec.EndTime, Record: rec}
		if err != nil {
			rec.Status = kickstart.StatusFailed
			rec.ExitMessage = err.Error()
			ev.Type = engine.EventFailed
		} else {
			rec.Status = kickstart.StatusSuccess
			ev.Type = engine.EventFinished
		}
		e.events <- ev
	}()
}

// run invokes the task, converting panics into job failures so a buggy
// task cannot take down the meta-scheduler.
func (e *localExecutor) run(fn task, job *planner.Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("local: transformation %q panicked: %v", job.Transformation, r)
		}
	}()
	return fn(&taskContext{Job: job, WorkDir: e.workDir, Args: job.Args})
}

// Next blocks until a job attempt finishes.
func (e *localExecutor) Next() engine.Event { return <-e.events }

var _ engine.Executor = (*localExecutor)(nil)

// RunWorkflow runs the n-chunk blast2cap3 workflow for real on the files
// in dir (transcripts.fasta and alignments.out): it builds the abstract
// DAX, plans it for one "local" site with parallelism slots, and executes
// it under the engine through a localExecutor. Each job is attempted once:
// an in-process task is a deterministic function of its files, so a retry
// would fail the same way. It returns the abstract workflow and the run's
// result; an incomplete run is reported in the result, not as an error.
func RunWorkflow(dir string, n, parallelism int, params cap3.Params) (*dax.Workflow, *engine.Result, error) {
	if parallelism < 1 {
		return nil, nil, fmt.Errorf("blast2cap3: parallelism must be positive, got %d", parallelism)
	}
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n})
	if err != nil {
		return nil, nil, err
	}
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	if err := cats.Sites.Add(&catalog.Site{
		Name: "local", Slots: parallelism, SpeedFactor: 1, SharedSoftware: true,
	}); err != nil {
		return nil, nil, err
	}
	for _, tr := range workflow.Transformations() {
		if err := cats.Transformations.Add(&catalog.Transformation{
			Name: tr, Site: "local", Installed: true,
		}); err != nil {
			return nil, nil, err
		}
	}
	plan, err := planner.New(abstract, cats, planner.Options{Site: "local"})
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.Run(plan, newLocalExecutor(registry(params), dir, parallelism), engine.Options{})
	if err != nil {
		return nil, nil, err
	}
	return abstract, res, nil
}
