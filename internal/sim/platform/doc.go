// Package platform provides discrete-event models of the paper's two
// execution platforms — Sandhills (a campus HPC cluster) and the Open
// Science Grid — and an engine.Executor that runs planned workflows on
// them in virtual time.
//
// A platform is a slot pool plus four stochastic mechanisms, each of which
// the paper identifies as a cause of the observed Sandhills/OSG gap:
//
//   - per-job dispatch latency (submit-host + remote queueing): small and
//     steady on the campus cluster, heavy-tailed and uneven on the
//     opportunistic grid;
//   - a download/install setup phase for jobs whose software stack is not
//     preinstalled (planner.Job.NeedsInstall — the red rectangles of the
//     paper's Fig. 3);
//   - node speed heterogeneity: grid nodes vary, and some are faster than
//     campus nodes (the paper's "Kickstart Time" observation);
//   - preemption: opportunistic slots can be reclaimed by their owners,
//     ending the attempt with an eviction that DAGMan retries.
//
// The Executor is a pool of one or more sites on one des.Simulation, so a
// multi-site run — or an ensemble of them — is one virtual clock advanced by
// one goroutine, with events from every site interleaving in global time
// order; a single-platform run is a pool of one. Each site keeps one record
// per in-flight attempt in an index-addressed slab and is the des.Handler of
// every event it schedules: the end of the dispatch latency, the slot grant,
// the completion or eviction, and the slot-ramp and fault-timeline steps,
// attempt events carrying the record's index. An attempt allocates nothing
// between Submit and its terminal event, whose kickstart record is built
// from the attempt record. Terminal events leave by one FIFO of (member tag,
// event): Next serves engine.Run, Pull a driver that submits under its
// members' tags (SubmitFor).
//
// A site derives the log-normal parameters of its dispatch latency and its
// setup phase (an rng.MeanCV each, from DispatchMean/DispatchCV and
// SetupMean/SetupCV) in the reset that starts its run, and only when they
// differ from its previous run's, so a draw is a normal variate and an
// exponential, without the two logarithms and the square root of deriving
// them again. Config.Validate refuses a NaN or
// infinite value in any float field, which would otherwise surface mid-run
// as an event scheduled at NaN time.
//
// Reserve and Release. Reserve sizes the kernel, the slot pools and the
// slabs for a job count; only the bytes allocated depend on it. Release
// hands a finished executor's storage — the clock, each site's slot queue,
// attempt slab, record arena (a chunk list, rewound) and node-name table
// (kept while the site's name is), and the event queue — to the next
// NewMultiExecutor, which re-initializes it in place through the one reset
// a fresh executor goes through, so a recycled executor runs exactly as a
// fresh one. The ownership contract: the caller of Release owns the
// executor and every record it handed out, and gives up both; the executor
// panics on any later use, and the records' memory is the next pool's.
// Released storage waits in a spare.List, which any goroutine claims from
// and which drops what it holds across two garbage collections: a pool holds
// storage for at most two GC cycles.
package platform
