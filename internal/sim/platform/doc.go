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
// An attempt allocates nothing between Submit and its terminal event. The
// Executor keeps one attempt record per in-flight attempt in an
// index-addressed slab and is the des.Handler of every event it schedules:
// the end of the dispatch latency, the slot grant, the completion or
// eviction, and the slot-ramp and fault-timeline steps are operations of
// Executor.HandleEvent, attempt events carrying the record's index. The
// kickstart record is built from the attempt record at the terminal event.
// Reserve sizes the kernel, the slot pool and the slab for a plan's job
// count; the caller that owns both plan and executor calls it, and only the
// bytes allocated depend on it.
//
// A MultiExecutor pools several platforms on one shared simulation, so a
// multi-site run — or an ensemble of them — is still one virtual clock
// advanced by one goroutine, with events from every site interleaving in
// global time order.
package platform
