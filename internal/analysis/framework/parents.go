package framework

import "go/ast"

// Parents maps every node of a subtree to its syntactic parent, letting
// analyzers ask "what statement/expression encloses this call?" without
// threading an inspection stack everywhere.
type Parents map[ast.Node]ast.Node

// BuildParents indexes root.
func BuildParents(root ast.Node) Parents {
	p := Parents{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			p[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return p
}
