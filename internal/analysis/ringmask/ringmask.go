// Package ringmask enforces the repo's one blessed lock-free ring-buffer
// idiom: capacity is a power of two proven at construction (derived from
// pow2.CeilCap or a power-of-two constant) and every slot index is
// reduced with `& mask` (or `%` against a proven power-of-two length).
// An unproven capacity makes `seq & mask` silently alias the wrong slot;
// an unmasked index is an out-of-bounds panic waiting for the sequence
// counter to wrap — both are the kind of bug that only fires under load.
//
// A "ring" is detected structurally: a struct with a slice field, an
// integer field whose name contains "mask", and at least one
// sync/atomic-typed field or pointer to one (the lock-free cursor, which
// copies of one ring's header may share). Plain lookup tables
// that happen to have a mask are not constrained. The mask guards every
// slice field of its struct, whatever the names: a ring keeps no other
// slices. Generic rings are matched through their declaration, so
// Ring[T] methods are checked like any other.
//
// For each ring type the analyzer checks, package-wide:
//
//   - Construction. Every assignment to the mask field (including
//     composite-literal keys) must be provably capacity-1: `c - 1` for c
//     a local holding a pow2.CeilCap result, or a constant k with k+1 a
//     power of two. Every assignment to a slice field must be a make
//     whose length is so proven.
//
//   - Indexing. Every index into a ring slice field must be masked:
//     `i & r.mask` (either operand order), `i & (len(r.slots)-1)`,
//     `i % len(r.slots)`, `i %` a power-of-two constant, a constant, a
//     range key over the slice, or a local whose every assignment is one
//     of those masked forms.
//
// The pow2 package is matched by name so analysistest fixtures can
// declare a stand-in.
package ringmask

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer reports lock-free rings with unproven capacity or unmasked
// slot indexing.
var Analyzer = &analysis.Analyzer{
	Name: "ringmask",
	Doc:  "check that lock-free rings prove power-of-two capacity and mask every slot index",
	Run:  run,
}

// ring is one detected ring type: its mask field and its slice fields.
type ring struct {
	name   *types.TypeName
	mask   *types.Var
	slices map[*types.Var]bool
}

func run(pass *analysis.Pass) error {
	rings := detectRings(pass.Pkg)
	if len(rings) == 0 {
		return nil
	}
	// byMask and bySlice resolve a field object back to its ring.
	byMask := make(map[types.Object]*ring)
	bySlice := make(map[types.Object]*ring)
	for _, r := range rings {
		byMask[r.mask] = r
		for s := range r.slices {
			bySlice[s] = r
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, rings, byMask, bySlice)
		}
	}
	return nil
}

// detectRings scans the package scope for ring-shaped structs.
func detectRings(pkg *types.Package) []*ring {
	var out []*ring
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		r := &ring{name: tn, slices: make(map[*types.Var]bool)}
		hasAtomic := false
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			t := fld.Type()
			switch {
			case isSlice(t):
				r.slices[fld] = true
			case isMaskName(fld.Name()) && isInteger(t):
				if r.mask == nil {
					r.mask = fld
				}
			}
			if isAtomicType(t) {
				hasAtomic = true
			}
		}
		if r.mask != nil && hasAtomic && len(r.slices) > 0 {
			out = append(out, r)
		}
	}
	return out
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isMaskName(name string) bool {
	return strings.Contains(strings.ToLower(name), "mask")
}

// isAtomicType reports whether t is a named type declared in a package
// named atomic, or a pointer to one (a cursor shared between rings).
func isAtomicType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "atomic"
}

// checkFunc checks one function's ring constructions and slot indexes.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, rings []*ring, byMask, bySlice map[types.Object]*ring) {
	info := pass.TypesInfo
	pow2Locals := ceilCapLocals(pass, fn)
	maskedLocals := maskedLocals(pass, fn, byMask, bySlice, pow2Locals)
	rangeKeys := rangeKeysOverRings(pass, fn, bySlice)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				fo := fieldObject(info, sel)
				if fo == nil {
					continue
				}
				if r := byMask[fo]; r != nil && !provenMask(pass, n.Rhs[i], r, pow2Locals) {
					pass.Reportf(n.Rhs[i].Pos(),
						"ring %s mask assigned a value not provably capacity-1; derive the capacity with pow2.CeilCap and assign cap-1",
						r.name.Name())
				}
				if r := bySlice[fo]; r != nil && !provenMake(pass, n.Rhs[i], pow2Locals) {
					pass.Reportf(n.Rhs[i].Pos(),
						"ring %s slice assigned without a proven power-of-two capacity; use make with a pow2.CeilCap length",
						r.name.Name())
				}
			}
		case *ast.CompositeLit:
			checkCompositeLit(pass, n, rings, pow2Locals)
		case *ast.IndexExpr:
			sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fo := fieldObject(info, sel)
			r := bySlice[fo]
			if r == nil {
				return true
			}
			if !indexOK(pass, n.Index, r, maskedLocals, rangeKeys) {
				pass.Reportf(n.Index.Pos(),
					"index into ring %s slice %s is not masked; reduce it with `& %s` (capacity is a proven power of two)",
					r.name.Name(), sel.Sel.Name, r.mask.Name())
			}
		}
		return true
	})
}

// checkCompositeLit checks keyed ring literals: mask and slice elements
// must carry the same proofs as plain assignments.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, rings []*ring, pow2Locals map[types.Object]bool) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	var r *ring
	for _, cand := range rings {
		if cand.name == named.Obj() {
			r = cand
			break
		}
	}
	if r == nil {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if key.Name == r.mask.Name() && !provenMask(pass, kv.Value, r, pow2Locals) {
			pass.Reportf(kv.Value.Pos(),
				"ring %s mask assigned a value not provably capacity-1; derive the capacity with pow2.CeilCap and assign cap-1",
				r.name.Name())
		}
		for s := range r.slices {
			if key.Name == s.Name() && !provenMake(pass, kv.Value, pow2Locals) {
				pass.Reportf(kv.Value.Pos(),
					"ring %s slice assigned without a proven power-of-two capacity; use make with a pow2.CeilCap length",
					r.name.Name())
			}
		}
	}
}

// ceilCapLocals collects the function's locals assigned from
// pow2.CeilCap calls — the capacities proven to be powers of two.
func ceilCapLocals(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if !isCeilCapCall(pass, as.Rhs[i]) {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isCeilCapCall reports whether e is a call of CeilCap from a package
// named pow2.
func isCeilCapCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "CeilCap" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Name() == "pow2"
}

// provenPow2 reports whether e is provably a power of two: a
// pow2.CeilCap call or local holding one, or a constant power of two.
func provenPow2(pass *analysis.Pass, e ast.Expr, pow2Locals map[types.Object]bool) bool {
	e = unwrapConv(pass, e)
	if v, ok := constIntValue(pass, e); ok {
		return v > 0 && v&(v-1) == 0
	}
	if isCeilCapCall(pass, e) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		return pow2Locals[pass.TypesInfo.Uses[id]]
	}
	return false
}

// provenMask reports whether e is provably capacity-1 for a power-of-two
// capacity: `c - 1` with c proven, or a constant k with k+1 a power of
// two.
func provenMask(pass *analysis.Pass, e ast.Expr, r *ring, pow2Locals map[types.Object]bool) bool {
	e = unwrapConv(pass, e)
	if v, ok := constIntValue(pass, e); ok {
		return v >= 0 && (v+1)&v == 0
	}
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.SUB {
		if v, ok := constIntValue(pass, bin.Y); ok && v == 1 {
			if provenPow2(pass, bin.X, pow2Locals) {
				return true
			}
			if lenOfRingSlice(pass, bin.X, r) {
				return true
			}
		}
	}
	return false
}

// provenMake reports whether e is a make call with a proven power-of-two
// length.
func provenMake(pass *analysis.Pass, e ast.Expr, pow2Locals map[types.Object]bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	return provenPow2(pass, call.Args[1], pow2Locals)
}

// maskedLocals collects locals whose every assignment is a masked
// expression, so `i := h & r.mask; r.slots[i]` passes.
func maskedLocals(pass *analysis.Pass, fn *ast.FuncDecl, byMask, bySlice map[types.Object]*ring, pow2Locals map[types.Object]bool) map[types.Object]bool {
	assigns := make(map[types.Object][]ast.Expr)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value assignment: treat each target as unproven.
				for _, lhs := range n.Lhs {
					if obj := identObj(pass, lhs); obj != nil {
						assigns[obj] = append(assigns[obj], nil)
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				if obj := identObj(pass, lhs); obj != nil {
					assigns[obj] = append(assigns[obj], n.Rhs[i])
				}
			}
		case *ast.IncDecStmt:
			if obj := identObj(pass, n.X); obj != nil {
				assigns[obj] = append(assigns[obj], nil)
			}
		}
		return true
	})
	out := make(map[types.Object]bool)
	for obj, rhss := range assigns {
		ok := len(rhss) > 0
		for _, rhs := range rhss {
			if rhs == nil || !maskedExpr(pass, rhs, byMask, bySlice, pow2Locals) {
				ok = false
				break
			}
		}
		if ok {
			out[obj] = true
		}
	}
	return out
}

func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// maskedExpr reports whether e reduces an index into ring range: an AND
// with a ring mask (or len-1 of a ring slice), or a REM by a ring slice
// length or power-of-two constant.
func maskedExpr(pass *analysis.Pass, e ast.Expr, byMask, bySlice map[types.Object]*ring, pow2Locals map[types.Object]bool) bool {
	e = unwrapConv(pass, e)
	bin, ok := e.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.AND:
		return maskOperand(pass, bin.X, byMask, bySlice) || maskOperand(pass, bin.Y, byMask, bySlice)
	case token.REM:
		y := unwrapConv(pass, bin.Y)
		if v, ok := constIntValue(pass, y); ok {
			return v > 0 && v&(v-1) == 0
		}
		return lenOfAnyRingSlice(pass, y, bySlice)
	}
	return false
}

// maskOperand reports whether e is a ring mask reference or a
// `len(slice)-1` over a ring slice.
func maskOperand(pass *analysis.Pass, e ast.Expr, byMask, bySlice map[types.Object]*ring) bool {
	e = unwrapConv(pass, e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if fo := fieldObject(pass.TypesInfo, sel); fo != nil && byMask[fo] != nil {
			return true
		}
	}
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.SUB {
		if v, ok := constIntValue(pass, bin.Y); ok && v == 1 {
			return lenOfAnyRingSlice(pass, bin.X, bySlice)
		}
	}
	return false
}

// lenOfRingSlice reports whether e is len(s) for s a slice field of r.
func lenOfRingSlice(pass *analysis.Pass, e ast.Expr, r *ring) bool {
	fo := lenArgField(pass, e)
	return fo != nil && r.slices[fo]
}

// lenOfAnyRingSlice reports whether e is len(s) for s any ring slice
// field.
func lenOfAnyRingSlice(pass *analysis.Pass, e ast.Expr, bySlice map[types.Object]*ring) bool {
	fo := lenArgField(pass, e)
	return fo != nil && bySlice[fo] != nil
}

// lenArgField resolves len(x.slots) to the slots field object, or nil.
func lenArgField(pass *analysis.Pass, e ast.Expr) *types.Var {
	call, ok := ast.Unparen(unwrapConv(pass, e)).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "len" {
		return nil
	}
	sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldObject(pass.TypesInfo, sel)
}

// rangeKeysOverRings collects range keys iterating a ring slice field.
func rangeKeysOverRings(pass *analysis.Pass, fn *ast.FuncDecl, bySlice map[types.Object]*ring) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || rs.Key == nil {
			return true
		}
		sel, ok := ast.Unparen(rs.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fo := fieldObject(pass.TypesInfo, sel)
		if fo == nil || bySlice[fo] == nil {
			return true
		}
		if obj := identObj(pass, rs.Key); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// indexOK reports whether idx is a proven in-range slot index for ring r.
func indexOK(pass *analysis.Pass, idx ast.Expr, r *ring, maskedLocals, rangeKeys map[types.Object]bool) bool {
	e := unwrapConv(pass, idx)
	if _, ok := constIntValue(pass, e); ok {
		return true
	}
	byMask := map[types.Object]*ring{r.mask: r}
	bySlice := make(map[types.Object]*ring)
	for s := range r.slices {
		bySlice[s] = r
	}
	if maskedExpr(pass, e, byMask, bySlice, nil) {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := pass.TypesInfo.Uses[id]
		return maskedLocals[obj] || rangeKeys[obj]
	}
	return false
}

// fieldObject resolves sel to the struct field it selects, or nil. A
// field selected through an instantiated generic type (r.slots inside a
// method of Ring[T]) resolves to the field of the generic declaration,
// the object detectRings recorded.
func fieldObject(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v.Origin()
}

// unwrapConv strips parens and type conversions (uint64(e)).
func unwrapConv(pass *analysis.Pass, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// constIntValue extracts e's constant integer value, if it has one.
func constIntValue(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
