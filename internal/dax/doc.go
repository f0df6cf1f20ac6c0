// Package dax models abstract scientific workflows as directed acyclic
// graphs of jobs, in the style of Pegasus DAX (directed acyclic graph in
// XML) documents.
//
// An abstract workflow names logical transformations and logical files; it
// says nothing about where jobs run or where files live. The planner
// (package planner) maps an abstract workflow plus catalogs onto an
// executable workflow for a concrete site.
//
// # Representation
//
// A Workflow numbers its jobs densely: a job's number is its index in
// insertion order (the order Jobs returns), and one map takes an ID to its
// number. AddDependency appends the pair of numbers to one edge list,
// duplicates included. Nothing else is stored.
//
// Every structural query reads a topology derived from the jobs and edges
// on the first read after an edit: children and parents in compressed
// sparse rows (offsets plus targets, each job's run sorted by ID and free of
// duplicate edges) and the topological order, all as int32 job numbers.
// TopoSort, Levels, CriticalPathLength and Validate work on
// those arrays and turn numbers into IDs only in what they return. Every
// AddJob and AddDependency drops the topology; the next read derives it
// afresh. It is published through an atomic pointer, so a workflow that is
// no longer edited may be read from many goroutines at once — readers that
// race to derive it derive equal values — which is how a cached workflow is
// shared by the cells that plan from it. Editing a workflow while another
// goroutine reads it is a data race, as it always was.
//
// Dense is the view by number for a planner walking every job and edge: the
// validated topological order and each job's children as job numbers, with
// no slice of IDs built per query.
package dax
