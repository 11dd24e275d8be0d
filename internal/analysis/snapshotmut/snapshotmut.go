// Package snapshotmut forbids mutating published snapshot state outside
// its designated builder functions.
//
// The entire lock-free read plane rests on one invariant: a
// serve.Snapshot (and each shardView inside it), and an index.Set, are
// frozen the moment they are published through an atomic.Pointer store. Readers at any fan-in dereference them with no lock; a single
// post-publication field write is a data race that -race only catches if
// a test happens to overlap the exact pair of accesses. This analyzer
// makes the freeze structural: assignments (including compound assigns,
// ++/--, element writes and whole-struct overwrites through a pointer)
// to fields of those types are allowed only inside the functions that
// build the value before publication — serve.buildSnapshotLocked for
// Snapshot/shardView, index.NewSet for Set. Everywhere else they are
// reported.
//
// Known limitation: the check is syntactic over selector chains, so a
// write through an intermediate alias (v := snap.shards[0]; v.proto = …)
// on a non-pointer copy is not flagged — but such a write mutates the
// copy, not the snapshot, so the invariant still holds.
package snapshotmut

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"hdcirc/internal/analysis"
)

// Analyzer is the snapshotmut checker.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc: "forbid writes to serve.Snapshot / serve.shardView / index.Set " +
		"fields outside their designated builders; published snapshots are " +
		"immutable and readers hold no lock",
	Run: run,
}

// target is one protected type and the builder functions allowed to
// populate it before publication.
type target struct {
	pkgName  string
	typeName string
	builders map[string]bool
}

var targets = []target{
	{"serve", "Snapshot", map[string]bool{"buildSnapshotLocked": true}},
	{"serve", "shardView", map[string]bool{"buildSnapshotLocked": true}},
	{"index", "Set", map[string]bool{"NewSet": true}},
}

// match returns the protected target for a named type, or nil.
func match(n *types.Named) *target {
	if n == nil || n.Obj().Pkg() == nil {
		return nil
	}
	for i := range targets {
		t := &targets[i]
		if n.Obj().Name() == t.typeName && n.Obj().Pkg().Name() == t.pkgName {
			return t
		}
	}
	return nil
}

// protectedWrite walks an assignment target's selector/index/deref chain
// and returns the protected target it mutates, if any, with the position
// to report.
func protectedWrite(info *types.Info, expr ast.Expr) (*target, string) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.StarExpr:
			// *p = Snapshot{…} — whole-struct overwrite through a pointer.
			if tv, ok := info.Types[e.X]; ok {
				if t := match(analysis.NamedOf(tv.Type)); t != nil {
					return t, t.typeName
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.TypeAssertExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if t := match(analysis.NamedOf(sel.Recv())); t != nil {
					return t, t.typeName + "." + e.Sel.Name
				}
			}
			expr = e.X
		default:
			return nil, ""
		}
	}
}

func run(pass *analysis.Pass) error {
	check := func(expr ast.Expr, stack []ast.Node) {
		t, what := protectedWrite(pass.TypesInfo, expr)
		if t == nil {
			return
		}
		if fd := analysis.EnclosingFunc(stack); fd != nil && t.builders[fd.Name.Name] {
			return
		}
		pass.Reportf(expr.Pos(),
			"write to %s outside builder(s) %s: published snapshot state is immutable (lock-free readers)",
			what, builderNames(t))
	}
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs, stack)
			}
		case *ast.IncDecStmt:
			check(n.X, stack)
		}
		return true
	})
	return nil
}

func builderNames(t *target) string {
	names := make([]string, 0, len(t.builders))
	for n := range t.builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
