// Package engine implements a DAGMan-style meta-scheduler: it releases the
// jobs of an executable plan to an Executor in dependency order, throttles
// in-flight work, retries failed attempts, and produces a rescue workflow
// for anything left undone — mirroring Condor DAGMan as used by Pegasus.
//
// The scheduler is a step-driven state machine (Session): Start submits
// the root jobs and each Handle folds one terminal event. Run feeds a
// session from one Executor's event stream; the ensemble driver feeds many
// sessions from one platform pool. Either way a run is one goroutine.
package engine
