// Package pool provides the bounded worker pool over which
// internal/scenario's Run simulates the cells of a document. Callers write results into index i of a pre-sized
// slice, which keeps collection race-free and ordering deterministic
// without a mutex: any worker count produces identical output. ForEach
// itself takes no lock either: each worker records its failure in its own
// slot.
package pool
