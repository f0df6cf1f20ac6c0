// Package server exposes the scenario engine as a long-running HTTP
// service — `pegflow serve`. Clients POST a scenario document and read
// back one NDJSON line per cell, streamed in deterministic grid order, so
// a slow consumer sees results as they complete while two clients posting
// the same document always read byte-identical bodies.
//
// Two independent throttles bound the service:
//
//   - a process-wide cell gate (Options.Workers tokens) that every cell
//     of every request must acquire, so N concurrent requests share one
//     bounded simulation pool instead of multiplying it;
//   - a request throttle (Options.MaxInFlight) that rejects work beyond
//     the cap with 429 rather than queueing unboundedly.
//
// Because all requests run in one process, they share scenario's run caches:
// the first request for a scenario shape builds the master plans, and
// every later request — from any client, for any seed — clones warm
// masters and pays only simulation. GET /v1/healthz exposes the cache
// counters so operators can watch the warm-up.
package server
