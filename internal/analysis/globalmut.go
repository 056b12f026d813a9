package analysis

import (
	"go/ast"
	"go/types"
)

// The globalmut analyzer. The serving frontier (simulation-as-a-service,
// multi-stream replay, distributed sweeps) shares simulator instances
// and decoded artifacts across goroutines, so simulator packages must
// not communicate through package-level state: a global written by one
// request is read by every other. The simulator packages hold no
// process-global mutable state at all, and globalmut keeps it that way.
// Outside init it flags, with no exceptions:
//
//  1. Any write to a package-level variable — plain assignment,
//     op-assignment, IncDec, or taking the variable as a range-assign
//     target. Registration-time population belongs in init or the
//     variable's initializer.
//  2. Store/Swap/Add/CompareAndSwap/Or/And on a package-level atomic.
//
// Because every global write outside init is flagged, the
// receiver-reachable-pointer hazard — a gpu.Simulator or mem.System
// method parking receiver state in a global — is covered by the same
// rule: the store site itself is the finding.
var GlobalmutAnalyzer = &Analyzer{
	Name:  "globalmut",
	Doc:   "forbid package-level state writes outside init",
	Scope: simulatorOrFixture,
	Run:   runGlobalmut,
}

// atomicStoreMethods are the sync/atomic value methods that mutate.
var atomicStoreMethods = map[string]bool{
	"Store": true, "Swap": true, "Add": true, "CompareAndSwap": true, "Or": true, "And": true,
}

func runGlobalmut(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				continue // registration time; the package is still single-threaded
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkGlobalWrite(pass, lhs)
					}
				case *ast.IncDecStmt:
					checkGlobalWrite(pass, n.X)
				case *ast.RangeStmt:
					if n.Key != nil {
						checkGlobalWrite(pass, n.Key)
					}
					if n.Value != nil {
						checkGlobalWrite(pass, n.Value)
					}
				case *ast.CallExpr:
					checkAtomicStore(pass, n)
				}
				return true
			})
		}
	}
}

// packageVar returns the package-level variable a write target's root
// identifier names, or nil.
func packageVar(pass *Pass, target ast.Expr) (*ast.Ident, *types.Var) {
	root, _ := unwrapWriteTarget(pass, nil, target)
	if root == nil || root.Name == "_" {
		return nil, nil
	}
	v, ok := pass.Info.ObjectOf(root).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil, nil // local, parameter, or field
	}
	return root, v
}

// checkGlobalWrite flags lhs when its root identifier is a package-level
// variable of any package.
func checkGlobalWrite(pass *Pass, lhs ast.Expr) {
	if root, v := packageVar(pass, lhs); v != nil {
		pass.Reportf(lhs.Pos(), "writes package-level %s outside init; shared simulator state must be receiver-owned", root.Name)
	}
}

// checkAtomicStore flags mutating atomic method calls on package-level
// variables.
func checkAtomicStore(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicStoreMethods[sel.Sel.Name] {
		return
	}
	if root, v := packageVar(pass, sel.X); v != nil && isAtomicType(v.Type()) {
		pass.Reportf(call.Pos(), "%s.%s mutates a package-level atomic outside init; shared simulator state must be receiver-owned", root.Name, sel.Sel.Name)
	}
}

func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}
