// Package clonecheck holds a clone method to its struct, for tests. A
// checkpoint built from clones is only as complete as the clones: Shared
// fills every field of a struct non-zero, unexported ones included, clones
// it, and names each slice or map the clone still shares with the
// original, so a test that requires the list to be empty (bar fields
// shared by design) fails, naming the field, when a new slice or map field
// is not deep-copied.
package clonecheck

import (
	"reflect"
	"unsafe"
)

// Shared fills a T, clones it with clone, and returns the path, rooted at
// the type's name, of every slice or map the clone shares with the
// original: a slice whose backing array overlaps the original's, the same
// map, or a map entry holding the same pointer. Struct and array fields are
// walked, and so are the values of map entries that are pointers, since a
// map owns its entries; other pointers and slice elements are not, since a
// clone shares those by design (code, the objects a register names, the
// live section a worker runs).
func Shared[T any](clone func(*T) T) []string {
	var orig T
	fill(reflect.ValueOf(&orig).Elem(), 0)
	c := clone(&orig)
	return aliased(nil, reflect.TypeOf(orig).Name(), reflect.ValueOf(&orig).Elem(), reflect.ValueOf(&c).Elem())
}

// maxDepth bounds how many pointers, slices and maps fill follows, which
// also ends pointer cycles.
const maxDepth = 2

// fill sets every field of v non-zero: numbers to 1, booleans to true,
// strings to "x", slices to two elements, maps to one entry, pointers to a
// new value and funcs to a no-op, filling what they hold in turn up to
// maxDepth. Interface fields stay nil: no value is known to implement them.
func fill(v reflect.Value, depth int) {
	v = open(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), depth)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), depth)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		if depth < maxDepth {
			fill(s.Index(0), depth+1)
			fill(s.Index(1), depth+1)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		if depth < maxDepth {
			fill(k, depth+1)
			fill(e, depth+1)
		}
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if depth < maxDepth {
			fill(p.Elem(), depth+1)
		}
		v.Set(p)
	case reflect.Func:
		ft := v.Type()
		v.Set(reflect.MakeFunc(ft, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, ft.NumOut())
			for i := range out {
				out[i] = reflect.Zero(ft.Out(i))
			}
			return out
		}))
	}
}

func aliased(out []string, path string, a, b reflect.Value) []string {
	a, b = open(a), open(b)
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			out = aliased(out, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			out = aliased(out, path, a.Index(i), b.Index(i))
		}
	case reflect.Slice:
		size := a.Type().Elem().Size()
		a0, b0 := a.Pointer(), b.Pointer()
		if a.Cap() > 0 && b.Cap() > 0 && a0 < b0+uintptr(b.Cap())*size && b0 < a0+uintptr(a.Cap())*size {
			out = append(out, path)
		}
	case reflect.Map:
		if a.Pointer() == b.Pointer() {
			return append(out, path)
		}
		for it := a.MapRange(); it.Next(); {
			av, bv := it.Value(), b.MapIndex(it.Key())
			if av.Kind() != reflect.Pointer || !bv.IsValid() {
				continue
			}
			if av.Pointer() == bv.Pointer() {
				out = append(out, path+"[]")
			} else {
				out = aliased(out, path+"[]", av.Elem(), bv.Elem())
			}
		}
	}
	return out
}

// open returns an addressable v with the read-only mark of an unexported
// field dropped, so it can be set and its entries read.
func open(v reflect.Value) reflect.Value {
	if !v.CanAddr() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
