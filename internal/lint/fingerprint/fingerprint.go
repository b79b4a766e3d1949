// Package fingerprint checks that canonical fingerprint/cache-key encoders
// stay in sync with the structs they encode.
//
// The repo's caching and replication layers are content-addressed: a
// simulation outcome is keyed by an exhaustive encoding of everything that
// can influence it (interp.CacheKey over Options, perturb's AppendCanonical
// over Schedule). The classic failure mode is
// silent: someone adds an Options field that changes behavior, forgets the
// encoder, and stale cache entries start answering for runs they do not
// match. This analyzer makes the contract explicit:
//
//	//dfvet:fingerprint <Type> [<Type>...]
//
// on an encoder function declares it the canonical encoder of those struct
// types (qualified names reach imported packages). Every exported-or-not
// field of each named type must then either be consumed — referenced
// through a selector in the encoder or in any same-package function it
// transitively calls — or be explicitly excluded:
//
//	//dfvet:fingerprint-exclude <Type>.<Field> — <reason>   (on the encoder's doc)
//	//dfvet:fingerprint-exclude <reason>                    (on the field's line)
//
// A stale exclusion (the field is in fact consumed) is also reported, so
// the exclusion list cannot rot.
package fingerprint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "fingerprint",
	Doc:  "struct field neither consumed by its canonical fingerprint encoder nor explicitly excluded",
	Run:  run,
}

func run(pass *lint.Pass) error {
	// Index this package's function bodies so consumption can follow
	// same-package calls.
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				bodies[obj] = fn
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var targets []string
			excluded := map[string]bool{} // "Type.Field" as written in the directive
			for _, d := range lint.Directives(pass.Fset, fn.Doc) {
				switch d.Verb {
				case "fingerprint":
					targets = append(targets, d.Args...)
				case "fingerprint-exclude":
					if len(d.Args) >= 2 && strings.Contains(d.Args[0], ".") {
						excluded[d.Args[0]] = true
					}
				}
			}
			if len(targets) > 0 {
				checkEncoder(pass, bodies, fn, targets, excluded)
			}
		}
	}
	return nil
}

func checkEncoder(pass *lint.Pass, bodies map[*types.Func]*ast.FuncDecl, fn *ast.FuncDecl, targets []string, excluded map[string]bool) {
	structs := map[string]*types.Struct{}
	targetSet := map[*types.Struct]bool{}
	for _, spec := range targets {
		st, err := resolveStruct(pass, spec)
		if err != nil {
			pass.Reportf(fn.Pos(), "//dfvet:fingerprint %s: %v", spec, err)
			continue
		}
		structs[spec] = st
		targetSet[st] = true
	}
	consumed := consumedFields(pass, bodies, fn, targetSet)
	for _, spec := range targets {
		st := structs[spec]
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			key := spec + "." + field.Name()
			switch {
			case consumed[field]:
				if excluded[key] || fieldLineExcluded(pass, field) {
					pass.Reportf(fn.Pos(), "stale exclusion: field %s is consumed by %s; drop the //dfvet:fingerprint-exclude", key, fn.Name.Name)
				}
			case excluded[key], fieldLineExcluded(pass, field):
				// intentionally outside the fingerprint
			default:
				pass.Reportf(fn.Pos(), "field %s is not consumed by fingerprint encoder %s and not excluded; encode it (and bump the key version) or add //dfvet:fingerprint-exclude %s <reason>",
					key, fn.Name.Name, key)
			}
		}
	}
}

// resolveStruct resolves a directive type spec ("Options" in the package
// scope, "simmach.Config" through the package's imports) to its struct
// type.
func resolveStruct(pass *lint.Pass, spec string) (*types.Struct, error) {
	scope := pass.Pkg.Scope()
	name := spec
	if pkgName, typeName, ok := strings.Cut(spec, "."); ok {
		var imported *types.Package
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName {
				imported = imp
				break
			}
		}
		if imported == nil {
			return nil, fmt.Errorf("package %s is not imported", pkgName)
		}
		scope, name = imported.Scope(), typeName
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("type %s not found", name)
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, fmt.Errorf("%s is not a struct type", spec)
	}
	return st, nil
}

// consumedFields collects every struct field object referenced through a
// selector in fn's body or in any same-package function it transitively
// calls. Methods of a target type itself are not followed as callees:
// canonicalizers like withDefaults touch every field to default it, and a
// field that is only defaulted but never encoded must still be flagged.
// (The annotated root is always walked, so annotating the canonicalizer
// itself still works.)
func consumedFields(pass *lint.Pass, bodies map[*types.Func]*ast.FuncDecl, fn *ast.FuncDecl, targetSet map[*types.Struct]bool) map[*types.Var]bool {
	consumed := map[*types.Var]bool{}
	seen := map[*ast.FuncDecl]bool{}
	var visit func(*ast.FuncDecl)
	visit = func(f *ast.FuncDecl) {
		if seen[f] {
			return
		}
		seen[f] = true
		if f != fn && receiverIsTarget(pass, f, targetSet) {
			return
		}
		ast.Inspect(f.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						consumed[v] = true
					}
				}
			case *ast.Ident:
				if callee, ok := pass.TypesInfo.Uses[n].(*types.Func); ok {
					if decl, ok := bodies[callee]; ok {
						visit(decl)
					}
				}
			}
			return true
		})
	}
	visit(fn)
	return consumed
}

// receiverIsTarget reports whether f is a method whose receiver's
// underlying struct is one of the encoder's target types.
func receiverIsTarget(pass *lint.Pass, f *ast.FuncDecl, targetSet map[*types.Struct]bool) bool {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(f.Recv.List[0].Type)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return ok && targetSet[st]
}

// fieldLineExcluded reports a field-level //dfvet:fingerprint-exclude on
// the field's own line or the line above it (its doc comment). Only
// resolvable for fields declared in the analyzed package's files.
func fieldLineExcluded(pass *lint.Pass, field *types.Var) bool {
	pos := pass.Fset.Position(field.Pos())
	if pos.Filename == "" {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range pass.Annotations.At(pos.Filename, line) {
			if d.Verb == "fingerprint-exclude" && len(d.Args) >= 1 {
				return true
			}
		}
	}
	return false
}
