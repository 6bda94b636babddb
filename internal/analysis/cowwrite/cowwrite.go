// Package cowwrite enforces the copy-on-write snapshot contract of
// internal/graph and internal/index: a struct field marked with a
// `//cow:shared` comment holds backing storage that may be shared
// between snapshots (COW adjacency rows, ladder rungs, edge pages,
// attribute bags), so element-level writes through it are only legal
// after the function has re-bound the whole field to a fresh copy.
// The index once shipped exactly this bug: its attribute patch spliced
// new entries into sorted lists still shared with the previous
// snapshot, so in-flight searches saw a half-patched index.
//
// Checked mutations (through the field directly, or through a local
// slice or map alias `p := x.F`, `row := x.F[i]`):
//
//   - element assignment:   x.F[i] = v, x.F[i].G = v, x.F[i]++
//   - map deletion:         delete(x.F, k)
//   - mutator method calls: x.F.Set(...), x.F[i].UnionWith(...), and
//     the other in-place Bitset/Attrs mutators
//
// A mutation is allowed when the same function has already re-bound
// the field wholesale (x.F = make(...), x.F = append([]T(nil),
// x.F...), a composite literal with a cloning field value, ...).
// Re-binding from a bare read of the same field (next.F = g.F) is
// sharing, not cloning, and does not license writes.
//
// Storage two levels deep (pages [][]T, rows map[K][]T) is shared level
// by level: cloning the outer slice copies the row headers, not the rows.
// An element write two indexes deep (x.F[p][i] = v, x.F[p][i].G = v),
// or a mutator call on an element (x.F[i].Set(...) writes what x.F[i]
// holds or points at), therefore also needs a row re-bound first (x.F[p]
// = clone); x.F[p] = y.F[q] is sharing again and does not count. Which
// row was re-bound is not tracked, only that the function knows the
// idiom. The check is
// per-function and position-ordered — the COW idiom is always
// clone-then-patch in one function; construction-time mutation in
// builder methods is annotated per function with //netembedvet:allow.
package cowwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"netembed/internal/analysis"
)

// New returns the analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "cowwrite",
		Doc:  "element writes through //cow:shared fields require cloning the field first",
		Run:  run,
	}
}

// mutators are methods that write their receiver in place (sets.Bitset
// and graph.Attrs surface). Calling one on shared storage mutates every
// snapshot that shares it.
var mutators = map[string]bool{
	"Set": true, "Clear": true, "Reset": true, "Fill": true,
	"Add": true, "AddSet": true, "RemoveSet": true,
	"UnionWith": true, "IntersectWith": true, "AndNotWith": true,
}

const marker = "cow:shared"

func run(pass *analysis.Pass) error {
	shared := collectShared(pass)
	if len(shared) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, shared)
		}
	}
	return nil
}

// collectShared finds every struct field in the package whose
// declaration carries the //cow:shared marker.
func collectShared(pass *analysis.Pass) map[types.Object]bool {
	shared := make(map[types.Object]bool)
	mark := func(field *ast.Field) {
		has := false
		// CommentGroup.Text() strips //name:value directive comments, which
		// is exactly the shape of the marker — scan the raw list instead.
		for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
			if cg == nil {
				continue
			}
			for _, cmt := range cg.List {
				if strings.Contains(cmt.Text, marker) {
					has = true
				}
			}
		}
		if !has {
			return
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				shared[obj] = true
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				mark(f)
			}
			return true
		})
	}
	return shared
}

// fieldOf resolves a selector to the struct field object it reads, or
// nil for methods and package selectors.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) types.Object {
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}

type checker struct {
	pass   *analysis.Pass
	shared map[types.Object]bool
	// aliases maps a local slice or map to the shared storage it was
	// bound to with a bare read: `p := x.F` (depth 0), `row := x.F[i]`
	// (depth 1).
	aliases map[types.Object]alias
	// clonedAt records, per shared field, the earliest position at
	// which the function re-bound it wholesale to a fresh value;
	// rowClonedAt the earliest re-binding of one of its rows.
	clonedAt, rowClonedAt map[types.Object]token.Pos
}

type alias struct {
	field types.Object
	depth int
}

// root walks an expression chain (selectors, indexes, slicings, parens,
// derefs) to the outermost shared field it passes through. depth counts
// the index expressions after the field: 0 denotes the field itself, 1 an
// element of the shared storage, 2 an element of one of its rows.
func (c *checker) root(e ast.Expr, depth int) (types.Object, int) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if f := fieldOf(c.pass, x); f != nil && c.shared[f] {
			return f, depth
		}
		return c.root(x.X, depth)
	case *ast.IndexExpr:
		return c.root(x.X, depth+1)
	case *ast.SliceExpr:
		return c.root(x.X, depth)
	case *ast.ParenExpr:
		return c.root(x.X, depth)
	case *ast.StarExpr:
		return c.root(x.X, depth)
	case *ast.Ident:
		if a, ok := c.aliases[c.pass.TypesInfo.Uses[x]]; ok {
			return a.field, a.depth + depth
		}
	}
	return nil, 0
}

// bareFieldRead reports whether e is a plain read of field f (possibly
// parenthesized): the RHS shape that shares storage instead of cloning.
func (c *checker) bareFieldRead(e ast.Expr, f types.Object) bool {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return fieldOf(c.pass, sel) == f
}

// writable reports whether an element depth indexes below field f may be
// written at position at.
func (c *checker) writable(f types.Object, depth int, at token.Pos) bool {
	before := func(m map[types.Object]token.Pos) bool {
		pos, ok := m[f]
		return ok && pos < at
	}
	return before(c.clonedAt) && (depth < 2 || before(c.rowClonedAt))
}

func first(m map[types.Object]token.Pos, f types.Object, pos token.Pos) {
	if _, seen := m[f]; !seen {
		m[f] = pos
	}
}

func (c *checker) violation(pos token.Pos, f types.Object, what string, depth int) {
	if _, ok := c.clonedAt[f]; ok && depth >= 2 {
		c.pass.Reportf(pos, "%s write of //cow:shared field %s two levels deep without re-binding the row first (x.%s[p] = clone): cloning the field copied the row headers, the rows may be shared with another snapshot",
			what, f.Name(), f.Name())
		return
	}
	c.pass.Reportf(pos, "%s write of //cow:shared field %s without cloning the field first: the storage may be shared with another snapshot",
		what, f.Name())
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, shared map[types.Object]bool) {
	c := &checker{
		pass:        pass,
		shared:      shared,
		aliases:     make(map[types.Object]alias),
		clonedAt:    make(map[types.Object]token.Pos),
		rowClonedAt: make(map[types.Object]token.Pos),
	}

	// First pass: record whole-field clones, row re-bindings and bare
	// aliases, in position order (ast.Inspect visits in source order).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				} else if len(st.Rhs) == 1 {
					rhs = st.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				// p := x.F, row := x.F[i] — a local name for shared storage.
				if id, ok := lhs.(*ast.Ident); ok && st.Tok == token.DEFINE {
					if f, depth := c.root(rhs, 0); f != nil && sliceOrMap(pass.TypesInfo.TypeOf(rhs)) {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							c.aliases[obj] = alias{f, depth}
						}
					}
					continue
				}
				// x.F = <fresh value> — a wholesale re-bind. Cloning from
				// a bare read of the same field is sharing, not cloning.
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if f := fieldOf(pass, sel); f != nil && shared[f] && !c.bareFieldRead(rhs, f) {
						first(c.clonedAt, f, st.Pos())
					}
				}
				// x.F[p] = <fresh row>. A row of the same field, whole or
				// resliced, is still the shared row.
				if f, depth := c.root(lhs, 0); f != nil && depth == 1 {
					if from, _ := c.root(rhs, 0); from != f {
						first(c.rowClonedAt, f, st.Pos())
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				f := pass.TypesInfo.Uses[key]
				if f == nil || !shared[f] || c.bareFieldRead(kv.Value, f) {
					continue
				}
				first(c.clonedAt, f, st.Pos())
			}
		}
		return true
	})

	// Second pass: flag element-level mutations that precede the clones
	// they need.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if f, depth := c.root(lhs, 0); f != nil && depth > 0 && !c.writable(f, depth, st.Pos()) {
					c.violation(lhs.Pos(), f, "element", depth)
				}
			}
		case *ast.IncDecStmt:
			if f, depth := c.root(st.X, 0); f != nil && depth > 0 && !c.writable(f, depth, st.Pos()) {
				c.violation(st.Pos(), f, "element", depth)
			}
		case *ast.CallExpr:
			// delete(x.F, k)
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) == 2 {
				if f, depth := c.root(st.Args[0], 0); f != nil && !c.writable(f, depth+1, st.Pos()) {
					c.violation(st.Pos(), f, "map", depth+1)
				}
				return true
			}
			// x.F[i].Set(...) / x.F.Set(...) — in-place mutator methods.
			if sel, ok := st.Fun.(*ast.SelectorExpr); ok && mutators[sel.Sel.Name] {
				if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
					if f, depth := c.root(sel.X, 0); f != nil && !c.writable(f, depth+1, st.Pos()) {
						c.violation(st.Pos(), f, "mutator-method", depth+1)
					}
				}
			}
		}
		return true
	})
}

func sliceOrMap(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}
