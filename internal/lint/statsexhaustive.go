package lint

import (
	"go/ast"
	"go/types"
)

// analyzerStatsExhaustive proves every core.Stats counter survives the
// whole reporting pipeline: the keyed composite in (Stats).Merge (so
// replicated aggregation drops nothing), the results JSON totals
// (internal/results), and the rmbsweep aggregate table. Adding a counter
// to Stats and forgetting one of those hops used to be caught — for Merge
// only — by a reflection test in internal/duplex; this analyzer replaces
// it with a compile-time proof that also covers the two human-facing
// surfaces. A field counts as surfaced at a site if the site reads it
// directly or calls a Stats method (other than Merge) that reads it, so
// derived means like MeanUtilization cover their ingredient fields.
func analyzerStatsExhaustive() *Analyzer {
	a := &Analyzer{
		Name: "stats-exhaustive",
		Doc: "Every field of core.Stats must be merged by (Stats).Merge and " +
			"surfaced (directly or through a Stats accessor) in both the " +
			"results JSON totals and the rmbsweep aggregate table; a silently " +
			"dropped counter invalidates every Table 3 comparison built on it.",
	}
	a.Run = func(m *Module, pkg *Package) []Diagnostic {
		if !inTier(pkg.Path, "internal/core") {
			return nil
		}
		tn, ok := pkg.Types.Scope().Lookup("Stats").(*types.TypeName)
		if !ok {
			return nil
		}
		named := namedOf(tn.Type())
		if named == nil {
			return nil
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		var fields []*types.Var
		fieldSet := make(map[*types.Var]bool)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fields = append(fields, f)
			fieldSet[f] = true
		}
		if len(fields) == 0 {
			return nil
		}

		var out []Diagnostic

		// Merge must carry every field across an aggregation.
		var mergeFn *types.Func
		mergeCover := make(map[*types.Var]bool)
		methodCover := make(map[*types.Func]map[*types.Var]bool)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || recvNamed(pkg.Info, fd) != named {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				covered := statsFieldReads(pkg, fd.Body, fieldSet)
				if fd.Name.Name == "Merge" {
					mergeFn = fn
					for v := range covered {
						mergeCover[v] = true
					}
					// Keys of a Stats composite count too: `Ticks: a + b`
					// reads the field through the key ident, which carries
					// no Selection entry.
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						cl, ok := n.(*ast.CompositeLit)
						if !ok || namedOf(pkg.Info.Types[cl].Type) != named {
							return true
						}
						for _, el := range cl.Elts {
							kv, ok := el.(*ast.KeyValueExpr)
							if !ok {
								continue
							}
							if key, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := pkg.Info.Uses[key].(*types.Var); ok && fieldSet[v] {
									mergeCover[v] = true
								}
							}
						}
						return true
					})
				} else if fn != nil {
					methodCover[fn] = covered
				}
			}
		}
		if mergeFn == nil {
			if d, ok := diag(m, pkg, a.Name, tn.Pos(),
				"Stats has no Merge method: aggregation across replications would drop every counter"); ok {
				out = append(out, d)
			}
		} else {
			for _, f := range fields {
				if !mergeCover[f] {
					if d, ok := diag(m, pkg, a.Name, f.Pos(),
						"Stats.%s is dropped by (Stats).Merge: add it to the merged result (sum counters, take the max of gauges)", f.Name()); ok {
						out = append(out, d)
					}
				}
			}
		}

		// Reporting surfaces: each must read every field, directly or via a
		// non-Merge Stats method.
		sites := []struct{ tier, label string }{
			{"internal/results", "the results JSON totals (internal/results)"},
			{"cmd/rmbsweep", "the rmbsweep aggregate totals"},
		}
		for _, site := range sites {
			var sp *Package
			for _, p := range m.Pkgs {
				if inTier(p.Path, site.tier) {
					sp = p
					break
				}
			}
			if sp == nil {
				continue
			}
			cover := make(map[*types.Var]bool)
			for _, f := range sp.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					selection, ok := sp.Info.Selections[sel]
					if !ok {
						return true
					}
					switch obj := selection.Obj().(type) {
					case *types.Var:
						if fieldSet[obj] {
							cover[obj] = true
						}
					case *types.Func:
						if obj == mergeFn {
							return true // Merge reads everything; it is aggregation, not reporting
						}
						for v := range methodCover[obj] {
							cover[v] = true
						}
					}
					return true
				})
			}
			for _, f := range fields {
				if !cover[f] {
					if d, ok := diag(m, pkg, a.Name, f.Pos(),
						"Stats.%s is not surfaced in %s: wire it through, or waive it here with a documented rmbvet:allow", f.Name(), site.label); ok {
						out = append(out, d)
					}
				}
			}
		}
		return out
	}
	return a
}

// statsFieldReads collects which of the given struct fields are selected
// anywhere inside body.
func statsFieldReads(pkg *Package, body ast.Node, fieldSet map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if selection, ok := pkg.Info.Selections[sel]; ok {
			if v, ok := selection.Obj().(*types.Var); ok && fieldSet[v] {
				out[v] = true
			}
		}
		return true
	})
	return out
}
