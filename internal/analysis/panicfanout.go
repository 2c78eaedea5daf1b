package analysis

import (
	"go/ast"
	"go/types"
)

// PanicFanout enforces the PR 6 panic-containment contract: a panic in a
// spawned goroutine that nothing recovers kills the whole process, so a
// single poisoned shard or corrupt vector must not take the serving
// binary down with it. Every goroutine launched outside tests must be
// contained by one of:
//
//   - a deferred recover in the goroutine body — either a deferred
//     closure that calls recover(), or a deferred call to a capture
//     helper whose body recovers (buildErrSlot.capture);
//   - routing through a //fairnn:fanout-safe launcher (parallelRange,
//     safeCall): the goroutine body's work happens inside a function
//     that installs the recover on the callee's side;
//   - the spawned function itself being //fairnn:fanout-safe or
//     recovering in its own body (verified by reading its source, also
//     cross-package);
//   - the enclosing function being annotated //fairnn:fanout-safe —
//     it IS a blessed launcher and installs recovery around the work it
//     runs.
var PanicFanout = &Analyzer{
	Name: "panicfanout",
	Doc:  "every spawned goroutine must recover panics or route through a fanout-safe launcher",
	Run:  runPanicFanout,
}

func runPanicFanout(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := pass.FuncDirective(fd, "fanout-safe"); ok {
				continue // blessed launcher: its go statements are the containment
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				pass.checkGoStmt(fd, gs)
				return true
			})
		}
	}
	return nil
}

func (p *Pass) checkGoStmt(fd *ast.FuncDecl, gs *ast.GoStmt) {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if p.bodyContained(lit.Body) {
			return
		}
		p.Reportf(gs.Pos(), "goroutine in %s has no panic containment: a panic here kills the process (defer a recover, call a capture helper, or route through parallelRange/safeCall)", fd.Name.Name)
		return
	}
	if fn := p.Callee(gs.Call); fn != nil {
		if p.FuncAnnotated(fn, "fanout-safe") || p.funcRecovers(fn) {
			return
		}
		p.Reportf(gs.Pos(), "go %s in %s: the spawned function neither recovers nor is marked //fairnn:fanout-safe — a panic inside it kills the process", fn.Name(), fd.Name.Name)
		return
	}
	// Dynamic func value: cannot see the body.
	p.Reportf(gs.Pos(), "goroutine in %s spawns a dynamic function value: containment cannot be verified (wrap it in safeCall or a deferred recover)", fd.Name.Name)
}

// bodyContained reports whether a goroutine body installs containment: a
// deferred recover (directly or via a capture helper), or a call to a
// //fairnn:fanout-safe function that recovers on the callee's side.
func (p *Pass) bodyContained(body *ast.BlockStmt) bool {
	contained := false
	ast.Inspect(body, func(n ast.Node) bool {
		if contained {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.FuncLit:
				if p.callsRecover(fun.Body) {
					contained = true
				}
			default:
				if fn := p.Callee(n.Call); fn != nil && p.funcRecovers(fn) {
					contained = true
				}
			}
		case *ast.CallExpr:
			if fn := p.Callee(n); fn != nil && p.FuncAnnotated(fn, "fanout-safe") {
				contained = true
			}
		}
		return !contained
	})
	return contained
}

// callsRecover reports whether the block calls the recover builtin
// (resolved through the type info, so a shadowing local named recover
// does not count).
func (p *Pass) callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
			if b, ok := p.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() == "recover" {
				// No type info (harvested tree) still counts: syntax-level
				// recover is the conservative-accept side here.
				found = true
			}
		}
		return !found
	})
	return found
}

// funcRecovers reports whether fn's body contains a recover call. The
// body is found in the current pass's syntax for same-package functions,
// or harvested from fn's declaration file for cross-package ones
// (export data has no bodies). Unknown bodies count as not recovering —
// the finding stays visible and the launch site can be rewritten or the
// callee annotated.
func (p *Pass) funcRecovers(fn *types.Func) bool {
	if fn == nil || !InModule(fn.Pkg()) {
		return false
	}
	pos := fn.Pos()
	if fn.Pkg() == p.Pkg {
		if fd := p.EnclosingFunc(pos); fd != nil && fd.Body != nil {
			return p.callsRecover(fd.Body)
		}
		return false
	}
	posn := p.Fset.Position(pos)
	if posn.Filename == "" {
		return false
	}
	hf := harvestFile(posn.Filename)
	if hf.file == nil {
		return false
	}
	for _, decl := range hf.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn.Name() || fd.Body == nil {
			continue
		}
		line := hf.fset.Position(fd.Name.Pos()).Line
		declLine := hf.fset.Position(fd.Pos()).Line
		if posn.Line != line && posn.Line != declLine {
			continue
		}
		// Syntax-only tree: detect recover by identifier.
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}
