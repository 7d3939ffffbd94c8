package cfg

import "go/ast"

// A Fact is one lattice element of a client analysis. Facts are treated as
// immutable values: Transfer and Merge must return fresh facts (or shared
// unmodified ones), never mutate their arguments in place — the solver
// aliases facts freely across blocks.
type Fact any

// An Analysis supplies the lattice and transfer functions of one forward
// dataflow problem. Termination requires the usual monotone-framework
// contract: Merge is commutative/associative/idempotent and the lattice has
// finite height (set-union or set-intersection over program identifiers
// both qualify).
type Analysis interface {
	// EntryFact is the fact holding at function entry.
	EntryFact() Fact
	// Transfer pushes a fact across one node (a statement, or a branch
	// condition expression).
	Transfer(f Fact, n ast.Node) Fact
	// Merge joins the facts of two converging paths.
	Merge(a, b Fact) Fact
	// Equal reports lattice equality (the solver's fixpoint test).
	Equal(a, b Fact) bool
}

// A BranchAnalysis additionally refines facts along conditional edges:
// after Transfer runs on the condition itself, TransferBranch sees the
// condition once with branch=true (the taken edge) and once with
// branch=false. Analyses that bind meaning to conditions — "acquire
// succeeded", "err != nil" — implement this; others get the unrefined fact
// on both edges.
type BranchAnalysis interface {
	Analysis
	TransferBranch(f Fact, cond ast.Expr, branch bool) Fact
}

// A Result carries the solved facts. Blocks (and their nodes) unreachable
// from Entry have no facts: In and Before return (nil, false) for them.
type Result struct {
	in     map[*Block]Fact
	before map[ast.Node]Fact
}

// In returns the fact at block entry.
func (r *Result) In(b *Block) (Fact, bool) {
	f, ok := r.in[b]
	return f, ok
}

// Before returns the fact immediately before node n executes. n must be a
// node the graph carries (a block-level statement or branch condition) —
// sub-expressions inherit their statement's fact.
func (r *Result) Before(n ast.Node) (Fact, bool) {
	f, ok := r.before[n]
	return f, ok
}

// Exit returns the fact at the synthetic exit block of g — the merge over
// every return, explicit panic, and fall-off path.
func (r *Result) Exit(g *Graph) (Fact, bool) {
	return r.In(g.Exit)
}

// Solve runs the worklist algorithm on g for a. It terminates at the least
// fixpoint under the Analysis contract and then materializes per-node
// before facts in one final pass.
func Solve(g *Graph, a Analysis) *Result {
	ba, hasBranch := a.(BranchAnalysis)
	in := map[*Block]Fact{g.Entry: a.EntryFact()}

	// edgeFact computes the fact flowing out of b along successor edge i,
	// given the fact after b's last node.
	edgeFact := func(b *Block, out Fact, i int) Fact {
		if hasBranch && b.Cond != nil && i < 2 {
			return ba.TransferBranch(out, b.Cond, i == 0)
		}
		return out
	}

	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := in[b]
		for _, n := range b.Nodes {
			out = a.Transfer(out, n)
		}
		for i, succ := range b.Succs {
			f := edgeFact(b, out, i)
			cur, ok := in[succ]
			if ok {
				f = a.Merge(cur, f)
			}
			if !ok || !a.Equal(cur, f) {
				in[succ] = f
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}

	res := &Result{in: in, before: map[ast.Node]Fact{}}
	for _, b := range g.Blocks {
		f, ok := in[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			res.before[n] = f
			f = a.Transfer(f, n)
		}
	}
	return res
}
