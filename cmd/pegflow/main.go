// Command pegflow is the workflow-management CLI, mirroring the Pegasus
// tool family (paper §III) and extending it with declarative scenarios
// and a long-running service:
//
//	pegflow dax        -n 300 > blast2cap3.dax          (DAX generator)
//	pegflow plan       -dax blast2cap3.dax -site osg    (pegasus-plan)
//	pegflow run        -dax blast2cap3.dax -site osg    (pegasus-run, simulated)
//	pegflow ensemble   -workflows 8 -sites sandhills,osg (pegasus-em)
//	pegflow scenario run  examples/scenarios/paper.json (what-if grid)
//	pegflow serve      -addr :8080                      (scenario HTTP service)
//	pegflow statistics -log run.jsonl                   (pegasus-statistics)
//	pegflow analyze    -log run.jsonl                   (pegasus-analyzer)
//
// plan, run and ensemble resolve sites against the built-in sites
// (sandhills, osg, cloud); scenarios declare their own site pools.
//
// Every subcommand's flags are defined in a <cmd>Flags constructor so the
// README's CLI reference can be generated from — and tested against — the
// real flag sets (see cli_reference_test.go).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pegflow/internal/core"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/ensemble"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/scenario"
	"pegflow/internal/server"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
	"pegflow/internal/workflow"
)

// command describes one subcommand: its name (possibly two words, like
// "scenario run"), the positional-argument placeholder for usage lines,
// a one-line summary, a fresh flag set (for help and the generated CLI
// reference) and the runner.
type command struct {
	name    string
	args    string
	summary string
	flags   func() *flag.FlagSet
	run     func(args []string) error
}

// commands lists every subcommand in display order. The CLI reference in
// README.md is generated from exactly this table.
func commands() []command {
	return []command{
		{
			name: "dax", summary: "generate the blast2cap3 abstract workflow (DAX XML) on stdout",
			flags: func() *flag.FlagSet { fs, _ := daxFlags(); return fs },
			run:   cmdDAX,
		},
		{
			name: "plan", summary: "map a DAX onto one site (-site) or several (-sites a,b -policy p)",
			flags: func() *flag.FlagSet { fs, _ := planFlags(); return fs },
			run:   cmdPlan,
		},
		{
			name: "run", summary: "plan and execute a DAX on simulated platforms",
			flags: func() *flag.FlagSet { fs, _ := runFlags(); return fs },
			run:   cmdRun,
		},
		{
			name: "ensemble", summary: "run many workflows concurrently on a shared platform pool",
			flags: func() *flag.FlagSet { fs, _ := ensembleFlags(); return fs },
			run:   cmdEnsemble,
		},
		{
			name: "scenario run", args: "<scenario.json ...>",
			summary: "execute declarative scenario files, one NDJSON line per cell",
			flags:   func() *flag.FlagSet { fs, _ := scenarioRunFlags(); return fs },
			run:     cmdScenarioRun,
		},
		{
			name: "scenario check", args: "<scenario.json>",
			summary: "validate a scenario file and print its fingerprint and cell count",
			flags:   func() *flag.FlagSet { return flag.NewFlagSet("scenario check", flag.ExitOnError) },
			run:     cmdScenarioCheck,
		},
		{
			name: "serve", summary: "serve scenarios over HTTP (POST /v1/scenarios/run)",
			flags: func() *flag.FlagSet { fs, _ := serveFlags(); return fs },
			run:   cmdServe,
		},
		{
			name: "statistics", summary: "summarize a kickstart log (JSON lines)",
			flags: func() *flag.FlagSet { fs, _ := statisticsFlags(); return fs },
			run:   cmdStatistics,
		},
		{
			name: "analyze", summary: "report failed attempts from a kickstart log",
			flags: func() *flag.FlagSet { fs, _ := analyzeFlags(); return fs },
			run:   cmdAnalyze,
		},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	args := os.Args[2:]
	switch name {
	case "-h", "--help", "help":
		usage()
		return
	case "scenario":
		// Two-word command: consume the verb.
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "pegflow: scenario needs a verb: run or check")
			os.Exit(2)
		}
		name, args = name+" "+args[0], args[1:]
	}
	for _, c := range commands() {
		if c.name == name {
			if err := c.run(args); err != nil {
				fmt.Fprintln(os.Stderr, "pegflow:", err)
				os.Exit(1)
			}
			return
		}
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pegflow <command> [flags]")
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, "commands:")
	for _, c := range commands() {
		name := c.name
		if c.args != "" {
			name += " " + c.args
		}
		fmt.Fprintf(os.Stderr, "  %-28s %s\n", name, c.summary)
	}
}

func loadDAX(path string) (*dax.Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dax.ReadXML(f)
}

// ---- dax ----

type daxOpts struct {
	n     int
	scale string
	seed  uint64
}

func daxFlags() (*flag.FlagSet, *daxOpts) {
	o := &daxOpts{}
	fs := flag.NewFlagSet("dax", flag.ExitOnError)
	fs.IntVar(&o.n, "n", 300, "number of cluster chunks")
	fs.StringVar(&o.scale, "scale", "paper", "workload scale: paper (with runtime profiles) or real (no profiles)")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed")
	return fs, o
}

func cmdDAX(args []string) error {
	fs, o := daxFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := workflow.BuilderConfig{N: o.n}
	if o.scale == "paper" {
		cfg.Workload = workflow.PaperWorkload(o.seed)
	} else if o.scale != "real" {
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	wf, err := workflow.BuildDAX(cfg)
	if err != nil {
		return err
	}
	return wf.WriteXML(os.Stdout)
}

// ---- plan ----

// planOpts are the flags plan and run share: the DAX file, where to plan it
// and how to cluster it.
type planOpts struct {
	dax            string
	site           string
	sites          string
	policy         string
	cluster        int
	clusterSeconds float64
}

// register defines the shared flags; multi says what -sites selects.
func (o *planOpts) register(fs *flag.FlagSet, multi string) {
	fs.StringVar(&o.dax, "dax", "", "abstract workflow file (required)")
	fs.StringVar(&o.site, "site", "sandhills", "execution site: sandhills, osg or cloud")
	fs.StringVar(&o.sites, "sites", "", "comma-separated site set for "+multi+" (overrides -site)")
	fs.StringVar(&o.policy, "policy", planner.PolicyDataAware,
		"site-selection policy for -sites: round-robin, data-aware or runtime-aware")
	fs.IntVar(&o.cluster, "cluster", 0, "max tasks bundled per clustered grid job (0 = off)")
	fs.Float64Var(&o.clusterSeconds, "cluster-seconds", 0,
		"close a clustered job once its estimated runtime reaches this many seconds (0 = off)")
}

// plan builds the world of the site set — -sites, or else the one -site, a
// set of one — from the built-in sites and plans the DAX file on it as an
// ensemble of one, the way `pegflow ensemble` plans its members.
func (o *planOpts) plan(failover bool) (ensemble.Spec, *workflow.World, error) {
	names := []string{o.site}
	if o.sites != "" {
		names = splitSites(o.sites)
	}
	sites, err := workflow.PresetSites(names)
	if err != nil {
		return ensemble.Spec{}, nil, err
	}
	world, err := workflow.NewWorld(sites)
	if err != nil {
		return ensemble.Spec{}, nil, err
	}
	wf, err := loadDAX(o.dax)
	if err != nil {
		return ensemble.Spec{}, nil, err
	}
	specs, err := ensemble.PlanAll([]ensemble.WorkflowSource{{Name: o.dax, Abstract: wf}}, world.Catalogs(), ensemble.PlanOptions{
		Sites:  names,
		Policy: o.policy,
		// The catalogs register replicas for both external inputs, so
		// multi-site plans stage them in once per site.
		AddStageIn: o.sites != "",
		Cluster:    planner.ClusterOptions{MaxTasksPerJob: o.cluster, TargetJobSeconds: o.clusterSeconds},
		Failover:   failover,
	})
	if err != nil {
		return ensemble.Spec{}, nil, err
	}
	return specs[0], world, nil
}

func planFlags() (*flag.FlagSet, *planOpts) {
	o := &planOpts{}
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	o.register(fs, "multi-site planning")
	return fs, o
}

func cmdPlan(args []string) error {
	fs, o := planFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.dax == "" {
		return fmt.Errorf("plan: -dax is required")
	}
	spec, _, err := o.plan(false)
	if err != nil {
		return err
	}
	plan := spec.Plan
	graph := plan.Graph()
	fmt.Printf("planned workflow %q for site %q\n", graph.Name, plan.Site)
	fmt.Printf("  jobs: %d   edges: %d   estimated serial work: %s\n",
		graph.Len(), graph.Edges(), stats.HMS(plan.TotalExecSeconds()))
	installs, composites, clusteredTasks := 0, 0, 0
	perSite := make(map[string]int)
	for _, j := range plan.Jobs() {
		if j.NeedsInstall {
			installs++
		}
		if len(j.Members) > 0 {
			composites++
			clusteredTasks += len(j.Members)
		}
		perSite[j.Site]++
	}
	fmt.Printf("  jobs with download/install step: %d\n", installs)
	if composites > 0 {
		fmt.Printf("  clustered jobs: %d (bundling %d tasks)\n", composites, clusteredTasks)
	}
	if o.sites != "" {
		for _, s := range plan.Sites {
			fmt.Printf("  jobs at %-12s: %d\n", s, perSite[s])
		}
	}
	cp, err := graph.CriticalPathLength()
	if err != nil {
		return err
	}
	fmt.Printf("  critical path length: %d\n", cp)
	return nil
}

// splitSites parses a comma-separated site list.
func splitSites(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ---- run ----

type runCmdOpts struct {
	planOpts
	seed      uint64
	retries   int
	failover  bool
	logOut    string
	rescueOut string
	timeline  bool
	aggregate bool
}

func runFlags() (*flag.FlagSet, *runCmdOpts) {
	o := &runCmdOpts{}
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	o.register(fs, "a multi-site run")
	fs.Uint64Var(&o.seed, "seed", 42, "simulation seed")
	fs.IntVar(&o.retries, "retries", 5, "retry limit per job")
	fs.BoolVar(&o.failover, "failover", false,
		"retry failed/evicted jobs on a sibling site (requires -sites)")
	fs.StringVar(&o.logOut, "log-out", "", "write the kickstart log (JSON lines) to this file")
	fs.StringVar(&o.rescueOut, "rescue-out", "", "write a rescue DAX here if the run is incomplete")
	fs.BoolVar(&o.timeline, "timeline", false, "print an ASCII utilization timeline")
	fs.BoolVar(&o.aggregate, "aggregate", false,
		"fold records into fixed-size accumulators instead of retaining them (memory-flat for million-job runs; incompatible with -timeline, -log-out and -rescue-out)")
	return fs, o
}

func cmdRun(args []string) error {
	fs, o := runFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.dax == "" {
		return fmt.Errorf("run: -dax is required")
	}
	if o.failover && o.sites == "" {
		return fmt.Errorf("run: -failover needs a multi-site run (-sites)")
	}
	if o.aggregate {
		// These consumers need the raw record stream the aggregating log
		// does not retain.
		for _, bad := range []struct {
			set  bool
			flag string
		}{{o.timeline, "-timeline"}, {o.logOut != "", "-log-out"}, {o.rescueOut != "", "-rescue-out"}} {
			if bad.set {
				return fmt.Errorf("run: %s needs the full record log; drop -aggregate", bad.flag)
			}
		}
	}
	spec, world, err := o.plan(o.failover)
	if err != nil {
		return err
	}
	spec.RetryLimit = o.retries
	cfgs, err := world.Configs(spec.Plan.Sites, o.seed)
	if err != nil {
		return err
	}
	pool, err := platform.NewMultiExecutor(cfgs)
	if err != nil {
		return err
	}
	out, err := ensemble.Run(pool, []ensemble.Spec{spec}, ensemble.Options{Aggregate: o.aggregate})
	if err != nil {
		return err
	}
	plan, res := spec.Plan, out.Workflows[0].Result
	if err := stats.WriteSummary(os.Stdout, plan.Name(), stats.Summarize(res.Log, res.Makespan)); err != nil {
		return err
	}
	if o.failover {
		fmt.Printf("Cross-site failovers         : %12d\n", res.Failovers)
	}
	fmt.Println()
	if err := stats.WritePerTransformation(os.Stdout, stats.PerTransformation(res.Log)); err != nil {
		return err
	}
	if rows := stats.PerCluster(res.Log); len(rows) > 0 {
		fmt.Println()
		if err := stats.WritePerCluster(os.Stdout, rows); err != nil {
			return err
		}
	}
	if o.timeline {
		fmt.Println()
		if err := stats.WriteTimeline(os.Stdout, stats.BuildTimeline(res.Log, 16), 56); err != nil {
			return err
		}
	}
	if !res.Success {
		fmt.Printf("\nworkflow INCOMPLETE; rescue workflow has %d jobs\n", len(res.RescueWorkflow()))
		if o.rescueOut != "" {
			f, err := os.Create(o.rescueOut)
			if err != nil {
				return err
			}
			if err := engine.WriteRescue(f, plan, res); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("rescue DAX written to %s (resubmit with: pegflow run -dax %s)\n",
				o.rescueOut, o.rescueOut)
		}
	}
	if o.logOut != "" {
		f, err := os.Create(o.logOut)
		if err != nil {
			return err
		}
		if err := res.Log.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nkickstart log written to %s\n", o.logOut)
	}
	return nil
}

// ---- ensemble ----

type ensembleOpts struct {
	workflows      int
	n              int
	sites          string
	policy         string
	seed           uint64
	retries        int
	maxInFlight    int
	cluster        int
	clusterSeconds float64
	failover       bool
	workers        int
	jsonOut        bool
	aggregate      bool
}

func ensembleFlags() (*flag.FlagSet, *ensembleOpts) {
	o := &ensembleOpts{}
	fs := flag.NewFlagSet("ensemble", flag.ExitOnError)
	fs.IntVar(&o.workflows, "workflows", 8, "number of concurrent workflows")
	fs.IntVar(&o.n, "n", 50, "cluster chunks per workflow")
	fs.StringVar(&o.sites, "sites", "sandhills,osg", "comma-separated execution sites")
	fs.StringVar(&o.policy, "policy", planner.PolicyDataAware,
		"site-selection policy: round-robin, data-aware or runtime-aware")
	fs.Uint64Var(&o.seed, "seed", 42, "simulation seed")
	fs.IntVar(&o.retries, "retries", 5, "retry limit per job")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "ensemble-wide cap on jobs in flight (0 = unlimited)")
	fs.IntVar(&o.cluster, "cluster", 0, "max tasks bundled per clustered grid job (0 = off)")
	fs.Float64Var(&o.clusterSeconds, "cluster-seconds", 0,
		"close a clustered job once its estimated runtime reaches this many seconds (0 = off)")
	fs.BoolVar(&o.failover, "failover", false, "retry failed/evicted jobs on a sibling pool site")
	fs.IntVar(&o.workers, "workers", 0, "planning workers (0 = all CPUs; results are identical for any count)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the ensemble report as JSON")
	fs.BoolVar(&o.aggregate, "aggregate", false,
		"fold member records into fixed-size accumulators instead of retaining them (memory-flat for large ensembles)")
	return fs, o
}

// cmdEnsemble runs N blast2cap3 workflows concurrently on a shared pool
// of simulated platforms — the Pegasus Ensemble Manager scenario.
func cmdEnsemble(args []string) error {
	fs, o := ensembleFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	siteNames := splitSites(o.sites)
	if len(siteNames) == 0 {
		return fmt.Errorf("ensemble: no sites given")
	}
	sites, err := workflow.PresetSites(siteNames)
	if err != nil {
		return fmt.Errorf("ensemble: %w", err)
	}
	exp := &core.EnsembleExperiment{
		Seed:        o.seed,
		Workflows:   o.workflows,
		N:           o.n,
		Policy:      o.policy,
		MaxInFlight: o.maxInFlight,
		RetryLimit:  o.retries,
		Cluster: planner.ClusterOptions{
			MaxTasksPerJob:   o.cluster,
			TargetJobSeconds: o.clusterSeconds,
		},
		Failover:  o.failover,
		Workers:   o.workers,
		Aggregate: o.aggregate,
	}
	if err := exp.Over(sites); err != nil {
		return err
	}
	res, err := exp.Run()
	if err != nil {
		return err
	}
	report := res.Report(exp.Policy)
	if o.jsonOut {
		return report.WriteJSON(os.Stdout)
	}
	return stats.WriteEnsemble(os.Stdout, report)
}

// ---- scenario run / scenario check ----

type scenarioRunOpts struct {
	workers   int
	aggregate bool
}

func scenarioRunFlags() (*flag.FlagSet, *scenarioRunOpts) {
	o := &scenarioRunOpts{}
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	fs.IntVar(&o.workers, "workers", 0, "concurrent cells (0 = all CPUs; output is identical for any count)")
	fs.BoolVar(&o.aggregate, "aggregate", false,
		"run every cell in aggregation mode, as if the document set outputs.aggregate (changes the fingerprint)")
	return fs, o
}

func cmdScenarioRun(args []string) error {
	fs, o := scenarioRunFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("scenario run: at least one scenario file is required")
	}
	for _, path := range fs.Args() {
		doc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		if o.aggregate {
			// Before Compile, so the fingerprint reflects the effective mode.
			doc.Outputs.Aggregate = true
		}
		c, err := scenario.Compile(doc)
		if err != nil {
			return err
		}
		if _, err := c.Run(scenario.RunOptions{
			Workers: o.workers,
			OnLine: func(line []byte) error {
				if _, err := os.Stdout.Write(line); err != nil {
					return err
				}
				_, err := os.Stdout.Write([]byte{'\n'})
				return err
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

func cmdScenarioCheck(args []string) error {
	fs := flag.NewFlagSet("scenario check", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("scenario check: exactly one scenario file is required")
	}
	doc, err := scenario.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	c, err := scenario.Compile(doc)
	if err != nil {
		return err
	}
	fmt.Printf("scenario   : %s\n", doc.Name)
	fmt.Printf("fingerprint: %s\n", c.Fingerprint)
	fmt.Printf("cells      : %d\n", len(c.Cells))
	return nil
}

// ---- serve ----

type serveOpts struct {
	addr           string
	workers        int
	maxInFlight    int
	cacheMB        int
	drainTimeout   time.Duration
	requestTimeout time.Duration
}

func serveFlags() (*flag.FlagSet, *serveOpts) {
	o := &serveOpts{}
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&o.workers, "workers", 4, "process-wide simulation worker pool shared by all requests")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "max concurrent scenario runs before 429 (0 = 2x workers)")
	fs.IntVar(&o.cacheMB, "cache-mb", 64,
		"content-addressed cell-result cache budget in MB (<= 0 disables the cache)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"on SIGTERM/SIGINT, stop accepting (new requests get 503) and give in-flight streams this long to finish")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 0,
		"wall-time budget per scenario run; an exceeded run stops simulating and ends with an error line (0 = no limit)")
	return fs, o
}

func cmdServe(args []string) error {
	fs, o := serveFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(os.Stderr, "pegflow serve: listening on %s (workers %d)\n", ln.Addr(), o.workers)
	return serveOn(ln, o, sigs)
}

// serveOn runs the scenario service on the listener until it fails or a
// signal arrives; on a signal it drains gracefully — the handler refuses
// new work with 503 + Retry-After, http.Server.Shutdown stops accepting
// and waits for in-flight streams — and returns nil so the process exits
// 0 on a clean drain. Split from cmdServe so tests can drive it with a
// fake signal channel and an ephemeral listener.
func serveOn(ln net.Listener, o *serveOpts, sigs <-chan os.Signal) error {
	cacheBytes := int64(-1)
	if o.cacheMB > 0 {
		cacheBytes = int64(o.cacheMB) << 20
	}
	srv := server.New(server.Options{
		Workers:        o.workers,
		MaxInFlight:    o.maxInFlight,
		CacheBytes:     cacheBytes,
		RequestTimeout: o.requestTimeout,
	})
	// A configured server, not http.ListenAndServe: without a read-header
	// timeout one client holding a half-open connection pins a goroutine
	// forever, and Shutdown needs idle connections reaped.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "pegflow serve: %v: draining (timeout %s)\n", sig, o.drainTimeout)
		srv.StartDraining()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
			return fmt.Errorf("serve: drain: %w", err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(os.Stderr, "pegflow serve: drained, exiting")
		return nil
	}
}

// ---- statistics / analyze ----

func loadLog(path string) (*kickstart.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kickstart.ReadJSON(f)
}

type logOpts struct {
	log string
}

func statisticsFlags() (*flag.FlagSet, *logOpts) {
	o := &logOpts{}
	fs := flag.NewFlagSet("statistics", flag.ExitOnError)
	fs.StringVar(&o.log, "log", "", "kickstart log file (required)")
	return fs, o
}

func cmdStatistics(args []string) error {
	fs, o := statisticsFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.log == "" {
		return fmt.Errorf("statistics: -log is required")
	}
	lg, err := loadLog(o.log)
	if err != nil {
		return err
	}
	makespan := 0.0
	for _, r := range lg.Records() {
		if r.EndTime > makespan {
			makespan = r.EndTime
		}
	}
	if err := stats.WriteSummary(os.Stdout, o.log, stats.Summarize(lg, makespan)); err != nil {
		return err
	}
	fmt.Println()
	if err := stats.WritePerTransformation(os.Stdout, stats.PerTransformation(lg)); err != nil {
		return err
	}
	if rows := stats.PerCluster(lg); len(rows) > 0 {
		fmt.Println()
		return stats.WritePerCluster(os.Stdout, rows)
	}
	return nil
}

func analyzeFlags() (*flag.FlagSet, *logOpts) {
	o := &logOpts{}
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	fs.StringVar(&o.log, "log", "", "kickstart log file (required)")
	return fs, o
}

func cmdAnalyze(args []string) error {
	fs, o := analyzeFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.log == "" {
		return fmt.Errorf("analyze: -log is required")
	}
	lg, err := loadLog(o.log)
	if err != nil {
		return err
	}
	fails := lg.Failures()
	if len(fails) == 0 {
		fmt.Println("no failed attempts")
		return nil
	}
	fmt.Printf("%d failed attempts:\n", len(fails))
	for _, r := range fails {
		fmt.Printf("  %-24s attempt %d  %-8s at %8.0f s on %-20s %s\n",
			r.JobID, r.Attempt, r.Status, r.EndTime, r.Node, r.ExitMessage)
	}
	return nil
}
