// Package boundedmake encodes the loader-hardening invariant from PR 5
// (DESIGN.md §9): an integer decoded from untrusted input — a snapshot
// header, a manifest, anything read off an io.Reader — must not size an
// allocation until it has been bounded. A hostile header saying
// "10^15 drifts follow" must fail the length check, not reach make and
// panic (or reach make and OOM) at first use.
//
// The check is a per-function, flow-insensitive taint pass:
//
//   - Sources: encoding/binary decodes — LittleEndian/BigEndian/
//     NativeEndian.UintXX, binary.Read (the pointed-to value and its
//     fields), ReadUvarint/ReadVarint.
//   - Propagation: any assignment whose right side mentions a tainted
//     value taints the left side, through conversions and arithmetic.
//   - Sanitizers: a relational comparison (<, >, <=, >=) against an
//     untainted bound clears the value — that is the dominating
//     length-vs-stat'd-size check the loaders are required to make. The
//     len, cap, and min builtins yield untainted values.
//   - Sinks: make with a tainted length or capacity, slices.Grow with a
//     tainted delta, and io.ReadFull into a slice whose high bound is
//     tainted.
//
// Residual intentional sites are waived with
// //shift:allow-unbounded(reason).
package boundedmake

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/shiftcomment"
)

// Analyzer is the boundedmake pass.
var Analyzer = &analysis.Analyzer{
	Name: "boundedmake",
	Doc:  "flag allocations sized by integers decoded from untrusted input without a dominating bound check",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		idx := shiftcomment.NewFile(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, idx, fd)
		}
	}
	return nil, nil
}

type taintState struct {
	pass      *analysis.Pass
	tainted   map[types.Object]bool
	sanitized map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, idx *shiftcomment.File, fd *ast.FuncDecl) {
	st := &taintState{
		pass:      pass,
		tainted:   make(map[types.Object]bool),
		sanitized: make(map[types.Object]bool),
	}

	// Seed: binary.Read(r, order, &v) taints v wholesale (decoded
	// header structs).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeIs(pass, call, "encoding/binary", "Read") && len(call.Args) == 3 {
			if un, ok := call.Args[2].(*ast.UnaryExpr); ok && un.Op == token.AND {
				if obj := rootObject(pass, un.X); obj != nil {
					st.tainted[obj] = true
				}
			}
		}
		return true
	})

	// Propagate through assignments to a fixpoint (the taint set only
	// grows, so this terminates).
	for {
		grew := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				anyTainted := false
				for _, rhs := range n.Rhs {
					if st.exprTainted(rhs) {
						anyTainted = true
					}
				}
				if len(n.Rhs) == len(n.Lhs) {
					for i, rhs := range n.Rhs {
						if st.exprTainted(rhs) {
							grew = st.taintLHS(n.Lhs[i]) || grew
						}
					}
				} else if anyTainted {
					for _, lhs := range n.Lhs {
						grew = st.taintLHS(lhs) || grew
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if st.exprTainted(v) && i < len(n.Names) {
						grew = st.taintLHS(n.Names[i]) || grew
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}

	// Sanitizers: a relational comparison against an untainted bound.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		xT, yT := st.exprTainted(bin.X), st.exprTainted(bin.Y)
		if xT && !yT {
			st.sanitizeExpr(bin.X)
		}
		if yT && !xT {
			st.sanitizeExpr(bin.Y)
		}
		return true
	})

	// Sinks.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isBuiltin(pass, call, "make"):
			for _, arg := range call.Args[1:] {
				if st.hot(arg) {
					report(pass, idx, fd, call.Pos(),
						"make sized by an integer decoded from untrusted input; bound it against the stat'd input size first")
					break
				}
			}
		case calleeIs(pass, call, "slices", "Grow"):
			if len(call.Args) == 2 && st.hot(call.Args[1]) {
				report(pass, idx, fd, call.Pos(),
					"slices.Grow sized by an integer decoded from untrusted input; bound it against the stat'd input size first")
			}
		case calleeIs(pass, call, "io", "ReadFull") || calleeIs(pass, call, "io", "ReadAtLeast"):
			hot := false
			for _, arg := range call.Args[1:] {
				ast.Inspect(arg, func(n ast.Node) bool {
					if sl, ok := n.(*ast.SliceExpr); ok {
						if sl.High != nil && st.hot(sl.High) {
							hot = true
						}
						if sl.Max != nil && st.hot(sl.Max) {
							hot = true
						}
					}
					return true
				})
			}
			if hot {
				report(pass, idx, fd, call.Pos(),
					"io.ReadFull into a slice bounded by an untrusted decoded length; validate the length against the stat'd input size first")
			}
		}
		return true
	})
}

// hot reports whether expr carries live (unsanitized) taint: it mentions
// a tainted-but-not-sanitized object, or contains a decode source call
// directly.
func (st *taintState) hot(expr ast.Expr) bool {
	hot := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := st.pass.TypesInfo.ObjectOf(n); obj != nil && st.tainted[obj] && !st.sanitized[obj] {
				hot = true
			}
		case *ast.CallExpr:
			if isSource(st.pass, n) {
				hot = true
				return false
			}
			if isUntaintingCall(st.pass, n) {
				return false
			}
		}
		return true
	})
	return hot
}

// exprTainted reports whether expr derives from untrusted input at all
// (sanitized or not) — the propagation predicate.
func (st *taintState) exprTainted(expr ast.Expr) bool {
	tainted := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := st.pass.TypesInfo.ObjectOf(n); obj != nil && st.tainted[obj] {
				tainted = true
			}
		case *ast.CallExpr:
			if isSource(st.pass, n) {
				tainted = true
				return false
			}
			if isUntaintingCall(st.pass, n) {
				return false
			}
		}
		return true
	})
	return tainted
}

// taintLHS taints the object behind an assignment target; reports
// whether the set grew.
func (st *taintState) taintLHS(lhs ast.Expr) bool {
	obj := rootObject(st.pass, lhs)
	if obj == nil {
		return false
	}
	// Only integer-ish destinations matter, but struct roots (decoded
	// headers) are kept wholesale so field reads stay tainted.
	if st.tainted[obj] {
		return false
	}
	st.tainted[obj] = true
	return true
}

// sanitizeExpr clears every object the bound-checked expression mentions.
func (st *taintState) sanitizeExpr(expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.pass.TypesInfo.ObjectOf(id); obj != nil && st.tainted[obj] {
				st.sanitized[obj] = true
			}
		}
		return true
	})
}

// rootObject resolves the base object of an lvalue-ish expression:
// ident, selector chain root, index/slice/star/paren base.
func rootObject(pass *analysis.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(e)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isSource reports whether call decodes an integer from raw input:
// binary.{Little,Big,Native}Endian.UintXX or binary.Read{U,}varint.
func isSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	callee := typeutil.Callee(pass.TypesInfo, call)
	fn, ok := callee.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Uint") || name == "ReadUvarint" || name == "ReadVarint"
}

// isUntaintingCall reports calls whose results are inherently bounded by
// in-memory data: the len/cap/min/max builtins.
func isUntaintingCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "len", "cap", "min", "max":
				return true
			}
		}
	}
	return false
}

// calleeIs reports whether call statically invokes pkgPath.name (a
// package-level function or a method of a package-level value, like the
// binary.LittleEndian methods).
func calleeIs(pass *analysis.Pass, call *ast.CallExpr, pkgPath, name string) bool {
	callee := typeutil.Callee(pass.TypesInfo, call)
	fn, ok := callee.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isB
}

// report emits one finding unless waived.
func report(pass *analysis.Pass, idx *shiftcomment.File, fd *ast.FuncDecl, pos token.Pos, msg string) {
	waived, missingReason, d := idx.Waived(fd, pos, "unbounded")
	if waived {
		if missingReason {
			pass.Reportf(d.Pos, "shift:allow-unbounded waiver is missing its mandatory (reason)")
		}
		return
	}
	pass.Reportf(pos, "%s", msg)
}
