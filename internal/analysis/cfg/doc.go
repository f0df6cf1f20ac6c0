// Package cfg builds intra-procedural control-flow graphs over go/ast
// function bodies — basic blocks connected by branch, loop, switch,
// select, goto and panic edges — plus a generic forward-dataflow driver
// for computing per-block reaching facts to a fixpoint.
//
// No analyzer in the suite imports it: the lock-discipline analyzers it was
// built for ("the mutex is held on every path to this access", "every
// acquire reaches a release on all non-panic paths") were replaced by types
// that own their locks. The package is pure syntax — it never consults
// go/types — so it serves any statement-level path property.
//
// Two modeling decisions matter to clients:
//
//   - Composite statements never appear in Block.Nodes. An if/for/
//     switch/select contributes its component expressions (condition,
//     range operand, case expressions, comm statements) to the blocks
//     where they are evaluated; simple statements are stored whole.
//     Walking every node of every block therefore visits each
//     expression exactly once.
//   - defer carries no special edges. A DeferStmt appears as an
//     ordinary node at its registration point; an analyzer that cares
//     treats registering a releasing defer as the release,
//     because from that point on the release runs on every exit,
//     panics included.
//
// Function literals are opaque: their bodies are not folded into the
// enclosing graph, because they execute at some other time (or on some
// other goroutine). Analyzers build a separate graph per literal.
package cfg
