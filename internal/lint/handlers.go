package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// ifaceIn looks up an interface type by name in a package.
func ifaceIn(p *pkg, name string) *types.Interface {
	if p == nil {
		return nil
	}
	obj := p.types.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// implementsIn reports whether the package declares a concrete named
// type that implements iface (directly or via pointer receiver).
func implementsIn(p *pkg, iface *types.Interface) bool {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// side is where one protocol half's dispatch and send sites may live:
// the packages declaring a type that implements the half's interface,
// and the module types such an implementation embeds (a shared
// controller skeleton). An embedded type counts only inside its own
// method bodies, so the rest of its package — a cache agent beside the
// skeleton, say — cannot stand in for it.
type side struct {
	pkgs   []*pkg
	embeds []*types.TypeName
}

func sideOf(mod *module, msgPkg *pkg, iface *types.Interface) side {
	var s side
	for _, p := range mod.sorted() {
		if p == msgPkg || !implementsIn(p, iface) {
			continue
		}
		s.pkgs = append(s.pkgs, p)
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !types.Implements(types.NewPointer(tn.Type()), iface) {
				continue
			}
			st, _ := tn.Type().Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				named, ok := st.Field(i).Type().(*types.Named)
				if ok && st.Field(i).Anonymous() && named.Obj().Pkg() != nil &&
					mod.pkgs[named.Obj().Pkg().Path()] != nil && !slices.Contains(s.embeds, named.Obj()) {
					s.embeds = append(s.embeds, named.Obj())
				}
			}
		}
	}
	return s
}

// uses reports whether cn is referenced anywhere in the side's packages
// or in a method body of one of its embedded types.
func (s side) uses(mod *module, cn *types.Const) bool {
	for _, p := range s.pkgs {
		for _, obj := range p.info.Uses {
			if obj == types.Object(cn) {
				return true
			}
		}
	}
	for _, tn := range s.embeds {
		p := mod.pkgs[tn.Pkg().Path()]
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				recv := p.info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if named, ok := recv.(*types.Named); !ok || named.Obj() != tn {
					continue
				}
				for id, obj := range p.info.Uses {
					if obj == types.Object(cn) && id.Pos() >= fd.Body.Pos() && id.Pos() < fd.Body.End() {
						return true
					}
				}
			}
		}
	}
	return false
}

func (s side) String() string {
	var out []string
	for _, p := range s.pkgs {
		out = append(out, p.path)
	}
	for _, tn := range s.embeds {
		out = append(out, tn.Pkg().Path()+"."+tn.Name()+" methods")
	}
	if len(out) == 0 {
		return "none found"
	}
	return strings.Join(out, ", ")
}

// checkHandlers applies the handler-completeness analyzer: every message
// kind (exported, non-zero constant of the message enum) must be
// referenced in at least one cache-side package and at least one
// memory-side package. A package is cache-side (memory-side) when it
// declares a type implementing the CacheSide (MemSide) interface; a
// reference anywhere in such a package counts, because dispatch switches
// and send sites both live next to the implementing type. A reference in
// a method of a type such an implementation embeds counts too: that is a
// shared skeleton's send site (see side).
func checkHandlers(mod *module, cfg Config) []Diagnostic {
	msgPkg := mod.pkgs[cfg.MsgPath]
	protoPkg := mod.pkgs[cfg.ProtoPath]
	if msgPkg == nil || protoPkg == nil {
		// Modules without the protocol vocabulary (fixtures for the other
		// analyzers) have nothing to check.
		return nil
	}
	cacheIface := ifaceIn(protoPkg, cfg.CacheIface)
	memIface := ifaceIn(protoPkg, cfg.MemIface)
	if cacheIface == nil || memIface == nil {
		return []Diagnostic{{
			Pos:      mod.fset.Position(protoPkg.files[0].Package),
			Analyzer: AnalyzerHandlers,
			Message: fmt.Sprintf("package %s does not declare interfaces %s and %s",
				cfg.ProtoPath, cfg.CacheIface, cfg.MemIface),
		}}
	}

	// The message kinds under contract: exported package-level constants
	// of the enum type with a non-zero value (the zero value is the
	// conventional "invalid" sentinel; unexported sentinels such as a
	// trailing numKinds bound are skipped by the export check).
	enumObj := msgPkg.types.Scope().Lookup(cfg.MsgEnum)
	if enumObj == nil {
		return []Diagnostic{{
			Pos:      mod.fset.Position(msgPkg.files[0].Package),
			Analyzer: AnalyzerHandlers,
			Message:  fmt.Sprintf("package %s does not declare enum %s", cfg.MsgPath, cfg.MsgEnum),
		}}
	}
	enumType := enumObj.Type()
	var kinds []*types.Const
	for _, obj := range msgPkg.info.Defs {
		cn, ok := obj.(*types.Const)
		if !ok || !cn.Exported() || cn.Parent() != msgPkg.types.Scope() {
			continue
		}
		if !types.Identical(cn.Type(), enumType) {
			continue
		}
		if v, ok := constant.Int64Val(cn.Val()); !ok || v == 0 {
			continue
		}
		kinds = append(kinds, cn)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Pos() < kinds[j].Pos() })

	cacheSide := sideOf(mod, msgPkg, cacheIface)
	memSide := sideOf(mod, msgPkg, memIface)

	var diags []Diagnostic
	for _, cn := range kinds {
		var missing []string
		if !cacheSide.uses(mod, cn) {
			missing = append(missing, fmt.Sprintf("no cache-side dispatch site (searched %s implementations in: %s)",
				cfg.CacheIface, cacheSide))
		}
		if !memSide.uses(mod, cn) {
			missing = append(missing, fmt.Sprintf("no memory-side dispatch site (searched %s implementations in: %s)",
				cfg.MemIface, memSide))
		}
		if len(missing) > 0 {
			diags = append(diags, Diagnostic{
				Pos:      mod.fset.Position(cn.Pos()),
				Analyzer: AnalyzerHandlers,
				Message:  fmt.Sprintf("message kind %s: %s", cn.Name(), strings.Join(missing, "; ")),
			})
		}
	}
	return diags
}
