// Package scopecheck enforces the workspace pooling contract:
//
//  1. a *workspace.Scope created with NewScope must be released in the
//     creating function (plain or deferred Release) unless it escapes —
//     a constructor may store the scope in the struct it returns and
//     release it later from that struct's Close;
//  2. a matrix obtained from Scope.Matrix must not outlive its scope's
//     Release: returning it, storing it into a struct field, or sending it
//     on a channel requires Scope.Keep first, otherwise the pool will hand
//     the same backing array to the next caller while the escapee still
//     reads it — silent data corruption, not a crash;
//  3. the same buffer must not be returned to a Pool twice in one block
//     (double Put re-enters the free list twice, so two later Gets alias).
//
// Storing a scope matrix into a local slice element (skelW[id] = out) is
// the sanctioned accumulation idiom and is not flagged.
package scopecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gofmm/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "scopecheck",
	Doc: "flag workspace scopes that are never released, scope matrices escaping a " +
		"released scope without Keep, and double pool Puts",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Syntax {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		parents := framework.BuildParents(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, parents, fd)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, parents framework.Parents, fd *ast.FuncDecl) {
	released := releasedScopes(pass, fd)
	kept := keptMatrices(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case framework.IsMethod(pass.TypesInfo, call, "workspace", "Pool", "NewScope"):
			checkNewScope(pass, parents, fd, call, released)
		case framework.IsMethod(pass.TypesInfo, call, "workspace", "Scope", "Matrix"):
			checkMatrix(pass, parents, fd, call, released, kept)
		}
		return true
	})

	checkDoublePut(pass, fd)
}

// releasedScopes collects every object on which .Release() is called
// (plain or deferred) anywhere in the function, closures included.
func releasedScopes(pass *framework.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !framework.IsMethod(pass.TypesInfo, call, "workspace", "Scope", "Release") {
			return true
		}
		sel := call.Fun.(*ast.SelectorExpr)
		if obj := framework.ObjectOf(pass.TypesInfo, sel.X); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// keptMatrices collects every object passed to Scope.Keep.
func keptMatrices(pass *framework.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !framework.IsMethod(pass.TypesInfo, call, "workspace", "Scope", "Keep") {
			return true
		}
		for _, arg := range call.Args {
			if obj := framework.ObjectOf(pass.TypesInfo, arg); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func checkNewScope(pass *framework.Pass, parents framework.Parents, fd *ast.FuncDecl, call *ast.CallExpr, released map[types.Object]bool) {
	as, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return // returned, passed along, or stored directly: ownership moves
	}
	var lhs ast.Expr
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call && i < len(as.Lhs) {
			lhs = as.Lhs[i]
		}
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return // stored through a selector/index: escapes
	}
	obj := framework.ObjectOf(pass.TypesInfo, id)
	if obj == nil || released[obj] || escapes(pass, parents, fd, obj) {
		return
	}
	d := framework.Diagnostic{
		Pos: as.Pos(),
		Message: fmt.Sprintf(
			"scope %s is never released: every buffer it hands out leaks from the pool", id.Name),
	}
	if as.Tok == token.DEFINE {
		pos := pass.Fset.Position(as.Pos())
		if pos.Column >= 1 {
			indent := strings.Repeat("\t", pos.Column-1)
			d.SuggestedFixes = []framework.SuggestedFix{{
				Message: fmt.Sprintf("defer %s.Release() after the binding", id.Name),
				TextEdits: []framework.TextEdit{{
					Pos:     as.End(),
					End:     as.End(),
					NewText: []byte("\n" + indent + "defer " + id.Name + ".Release()"),
				}},
			}}
		}
	}
	pass.Report(d)
}

// escapes reports whether obj leaves the function: passed as a call
// argument, returned, stored into a composite literal, aliased to another
// variable, address-taken, or sent on a channel. Method calls on obj do
// not count.
func escapes(pass *framework.Pass, parents framework.Parents, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found || framework.ObjectOf(pass.TypesInfo, id) != obj {
			return true
		}
		switch parent := parents[id].(type) {
		case *ast.CallExpr:
			for _, arg := range parent.Args {
				if arg == ast.Node(id) {
					found = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.UnaryExpr:
			found = true
		case *ast.AssignStmt:
			for _, rhs := range parent.Rhs {
				if ast.Unparen(rhs) == ast.Expr(id) {
					found = true // aliased; the alias may be released
				}
			}
		}
		return true
	})
	return found
}

func checkMatrix(pass *framework.Pass, parents framework.Parents, fd *ast.FuncDecl, call *ast.CallExpr, released, kept map[types.Object]bool) {
	sel := call.Fun.(*ast.SelectorExpr)
	scObj := framework.ObjectOf(pass.TypesInfo, sel.X)
	if scObj == nil || !released[scObj] {
		return // scope outlives this function; its matrices may too
	}

	// Direct escape: return sc.Matrix(...) with sc released here.
	if _, ok := parents[call].(*ast.ReturnStmt); ok {
		pass.Reportf(call.Pos(),
			"matrix from scope %s is returned, but the scope is released in this function; "+
				"the pool will recycle its backing array — call %s.Keep first",
			sel.X.(*ast.Ident).Name, sel.X.(*ast.Ident).Name)
		return
	}

	as, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return
	}
	var lhs ast.Expr
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call && i < len(as.Lhs) {
			lhs = as.Lhs[i]
		}
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); isSel {
			pass.Reportf(as.Pos(),
				"matrix from released scope is stored into a field without Keep; "+
					"the pool will recycle its backing array")
		}
		return
	}
	mObj := framework.ObjectOf(pass.TypesInfo, id)
	if mObj == nil || kept[mObj] {
		return
	}

	// Track the bound matrix: returning it, storing it into a field, or
	// sending it on a channel outlives Release. Local slice-element stores
	// (skelW[i] = M) stay inside the function and are fine.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || use.Pos() <= as.End() || framework.ObjectOf(pass.TypesInfo, use) != mObj {
			return true
		}
		switch parent := parents[use].(type) {
		case *ast.ReturnStmt:
			pass.Reportf(use.Pos(),
				"matrix %s from scope %s escapes via return, but the scope is released in this "+
					"function; call %s.Keep(%s) first", use.Name, scObj.Name(), scObj.Name(), use.Name)
		case *ast.SendStmt:
			if parent.Value == ast.Expr(use) {
				pass.Reportf(use.Pos(),
					"matrix %s from scope %s is sent on a channel, but the scope is released in "+
						"this function; call %s.Keep(%s) first", use.Name, scObj.Name(), scObj.Name(), use.Name)
			}
		case *ast.AssignStmt:
			for i, rhs := range parent.Rhs {
				if ast.Unparen(rhs) != ast.Expr(use) || i >= len(parent.Lhs) {
					continue
				}
				if _, isSel := ast.Unparen(parent.Lhs[i]).(*ast.SelectorExpr); isSel {
					pass.Reportf(use.Pos(),
						"matrix %s from scope %s is stored into a field, but the scope is released "+
							"in this function; call %s.Keep(%s) first", use.Name, scObj.Name(), scObj.Name(), use.Name)
				}
			}
		}
		return true
	})
}

// checkDoublePut flags the second Put of the same value within one
// statement list with no intervening reassignment.
func checkDoublePut(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		seen := map[types.Object]token.Pos{}
		for _, st := range block.List {
			var call *ast.CallExpr
			switch s := st.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			case *ast.AssignStmt:
				for _, l := range s.Lhs {
					if obj := framework.ObjectOf(pass.TypesInfo, l); obj != nil {
						delete(seen, obj) // reassigned: a fresh buffer now
					}
				}
				continue
			default:
				continue
			}
			if call == nil || len(call.Args) != 1 {
				continue
			}
			if !framework.IsMethod(pass.TypesInfo, call, "workspace", "Pool", "Put") &&
				!framework.IsMethod(pass.TypesInfo, call, "workspace", "Pool", "PutMatrix") {
				continue
			}
			obj := framework.ObjectOf(pass.TypesInfo, call.Args[0])
			if obj == nil {
				continue
			}
			if prev, dup := seen[obj]; dup {
				pass.Reportf(call.Pos(),
					"%s is returned to the pool twice (first at line %d); two later Gets will "+
						"alias the same backing array",
					obj.Name(), pass.Fset.Position(prev).Line)
				continue
			}
			seen[obj] = call.Pos()
		}
		return true
	})
}
