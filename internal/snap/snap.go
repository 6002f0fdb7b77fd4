// Package snap captures and restores the mutable state of a model object
// graph — the fabric's channels and NICs, verbs contexts and queue pairs,
// DPA threads, telemetry registries, collective instances — so a caller
// can rewind the SAME objects to a snapshot instead of rebuilding them.
//
// Capture walks the graph reflectively from a set of roots, taking a typed
// shallow copy of every reachable struct region (including unexported
// fields, reached through their addresses) plus the contents of every
// slice backing array and map. Restore writes those copies back in place:
// struct bytes are copied back (restoring scalars, pointers, slice/map
// headers, func values and interface words), slice elements are written
// back into their original backing arrays (preserving aliasing), and maps
// are cleared and re-filled (preserving map identity for everyone holding
// the reference). Nothing is reallocated, so every pointer anyone holds
// into the graph stays valid — the property that makes restore-in-place
// composable with the event engine's own Snapshot/Restore, whose pending
// events point into this very graph.
//
// Types listed in Config.Skip are treated as immutable (or as externally
// managed, like *sim.Engine): the pointer is preserved but never followed.
//
// Limitations, by design:
//   - Closure-captured variables that are not reachable through the graph
//     are invisible. The model layers here store state in struct fields
//     and pass closures only as stateless callbacks (method values,
//     completion notifications), which is why the walk suffices.
//   - Channels and sync primitives are not followed (none exist in the
//     model layers; the engine owns all concurrency).
//
// Digest hashes the captured value data — never addresses — over a
// deterministic traversal (struct fields in order, slices in order, map
// keys sorted by their formatted value), so two independently built,
// identically constructed graphs produce the same digest; the replay
// debugger uses this as its waypoint byte-identity check.
package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"unsafe"
)

// Config parameterizes a capture.
type Config struct {
	// Skip lists pointer-target types the walk must not follow: immutable
	// shared structure (topologies, routing tables) and externally managed
	// machinery (*sim.Engine). Give the pointed-to type, e.g.
	// reflect.TypeOf(topology.Graph{}).
	Skip []reflect.Type
	// Payload lists slice element types whose contents are opaque bulk
	// data: the walk records the slice length in the digest but neither
	// captures, hashes, nor restores the contents. Use for data planes —
	// message buffers, staging rings — whose bytes never influence model
	// behavior (the simulation times sizes, not content). On the testbed
	// stack the staging rings alone are tens of megabytes; excluding them
	// is what keeps a fork O(dirty state) instead of O(buffer capacity).
	Payload []reflect.Type
}

// State is one captured snapshot of a model graph. Construct with Capture;
// rewind with Restore. A State is immutable and may be restored any number
// of times.
type State struct {
	regions []region
	maps    []mapRecord
	digest  uint64
	bytes   int
}

// region is one typed memory area (a struct pointee or a slice backing
// array) with its saved copy.
type region struct {
	ptr   unsafe.Pointer
	typ   reflect.Type
	saved reflect.Value // *typ holding the snapshot copy
}

// mapRecord is one reachable map with its saved entries.
type mapRecord struct {
	m    reflect.Value
	keys []reflect.Value
	vals []reflect.Value
}

// Digest returns the deterministic value-data hash of the captured state.
func (s *State) Digest() uint64 { return s.digest }

// Bytes estimates the snapshot's in-memory size (informational metric).
func (s *State) Bytes() int { return s.bytes }

// Regions returns the number of captured memory regions (diagnostics).
func (s *State) Regions() int { return len(s.regions) }

// capture carries one walk's bookkeeping.
type capture struct {
	cfg   Config
	state *State
	seen  map[seenKey]int // region identity -> first-visit id (for digest)
	h     uint64          // FNV-1a running hash
}

type seenKey struct {
	ptr unsafe.Pointer
	typ reflect.Type
}

// Capture snapshots everything reachable from the roots. Roots are
// typically the top-level model objects (a *fabric.Fabric, a
// *cluster.Cluster, a *telemetry.Registry, a collective instance); pass
// pointers or interfaces holding pointers.
func Capture(cfg Config, roots ...any) *State {
	c := &capture{
		cfg:   cfg,
		state: &State{},
		seen:  map[seenKey]int{},
		h:     1469598103934665603, // FNV-1a offset basis
	}
	for _, r := range roots {
		if r == nil {
			continue
		}
		c.walkValue(reflect.ValueOf(r))
	}
	c.state.digest = c.h
	return c.state
}

// Restore writes every captured region and map back in place. Regions the
// run never dirtied are detected with a read-only compare and skipped: on
// a model graph dominated by rarely-touched buffers this makes restore
// proportional to what actually changed, not to what was captured.
func (s *State) Restore() {
	for i := range s.regions {
		r := &s.regions[i]
		n := int(r.typ.Size())
		cur := unsafe.Slice((*byte)(r.ptr), n)
		want := unsafe.Slice((*byte)(r.saved.UnsafePointer()), n)
		if bytes.Equal(cur, want) {
			continue
		}
		reflect.NewAt(r.typ, r.ptr).Elem().Set(r.saved.Elem())
	}
	for i := range s.maps {
		mr := &s.maps[i]
		// Delete keys not part of the snapshot, then re-assert the saved
		// entries; the map object itself is never replaced.
		live := mr.m.MapKeys()
		for _, k := range live {
			mr.m.SetMapIndex(k, reflect.Value{})
		}
		for j := range mr.keys {
			mr.m.SetMapIndex(mr.keys[j], mr.vals[j])
		}
	}
}

// --- hash helpers ---------------------------------------------------------

func (c *capture) mix(b []byte) {
	h := c.h
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	c.h = h
}

func (c *capture) mixUint(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	c.mix(b[:])
}

func (c *capture) mixString(s string) {
	c.mixUint(uint64(len(s)))
	c.mix([]byte(s))
}

// mixRaw folds n bytes at p into the hash, FNV-style over 8-byte words:
// the same value-data-only property as byte-wise mixing, at one loop
// iteration per word — the difference between microseconds and tens of
// milliseconds on a multi-megabyte buffer region. The region is viewed as
// bytes (always a legal conversion, unlike a *uint64 view of a small or
// unaligned region, which trips checkptr under -race) and words are
// assembled little-endian — a single unaligned load on amd64, and a
// platform-independent digest everywhere else.
func (c *capture) mixRaw(p unsafe.Pointer, n int) {
	b := unsafe.Slice((*byte)(p), n)
	h := c.h
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= 1099511628211
		b = b[8:]
	}
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	c.h = h
}

// --- the walk -------------------------------------------------------------

func (c *capture) skipType(t reflect.Type) bool {
	for _, s := range c.cfg.Skip {
		if t == s {
			return true
		}
	}
	return false
}

func (c *capture) payloadType(t reflect.Type) bool {
	for _, s := range c.cfg.Payload {
		if t == s {
			return true
		}
	}
	return false
}

// rawKind reports whether values of kind k hold no pointers, so a
// slice/array of them is raw data: capture is one memcpy and the digest
// one word-wise pass, with no per-element reflection. Structs and arrays
// are excluded even when pointer-free — their padding bytes are
// unspecified and would poison the digest.
func rawKind(k reflect.Kind) bool {
	switch k {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// walkValue dispatches on the value's kind. v must be a full-power value
// (obtained from a root, via reflect.NewAt, or as a copy) — never a
// read-only unexported field projection.
func (c *capture) walkValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		c.walkPointer(v)
	case reflect.Interface:
		if v.IsNil() {
			c.mixString("nil-iface")
			return
		}
		elem := v.Elem()
		c.mixString(elem.Type().String())
		// Box copies are immutable through the interface; only pointers
		// inside them can lead to mutable state.
		c.walkValue(elem)
	case reflect.Struct:
		c.walkStructCopy(v)
	case reflect.Map:
		c.walkMap(v)
	case reflect.Slice:
		c.walkSlice(v)
	case reflect.Array:
		if rawKind(v.Type().Elem().Kind()) && v.CanAddr() {
			c.mixRaw(unsafe.Pointer(v.UnsafeAddr()), int(v.Type().Size()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			c.walkValue(full(v.Index(i)))
		}
	case reflect.Func:
		if v.IsNil() {
			c.mixString("nil-func")
		} else {
			c.mixString("func:" + v.Type().String())
		}
	case reflect.Chan, reflect.UnsafePointer:
		c.mixString("opaque:" + v.Kind().String())
	case reflect.String:
		c.mixString(v.String())
	case reflect.Bool:
		if v.Bool() {
			c.mixUint(1)
		} else {
			c.mixUint(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.mixUint(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.mixUint(v.Uint())
	case reflect.Float32, reflect.Float64:
		c.mixUint(mathFloat64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		cv := v.Complex()
		c.mixUint(mathFloat64bits(real(cv)))
		c.mixUint(mathFloat64bits(imag(cv)))
	}
}

func mathFloat64bits(f float64) uint64 { return *(*uint64)(unsafe.Pointer(&f)) }

// full strips the read-only flag from a field projection by re-deriving
// the value from its address. v must be addressable.
func full(v reflect.Value) reflect.Value {
	if v.CanInterface() && v.CanSet() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// walkPointer visits a pointer: skip-listed and nil targets are hashed as
// markers; new targets are captured as regions and recursed into; already
// seen targets hash their first-visit id (address-free identity).
func (c *capture) walkPointer(v reflect.Value) {
	if v.IsNil() {
		c.mixString("nil")
		return
	}
	t := v.Type().Elem()
	if c.skipType(t) {
		c.mixString("skip:" + t.String())
		return
	}
	ptr := v.UnsafePointer()
	key := seenKey{ptr, t}
	if id, ok := c.seen[key]; ok {
		c.mixString("ref")
		c.mixUint(uint64(id))
		return
	}
	id := len(c.seen)
	c.seen[key] = id
	c.mixString("obj:" + t.String())
	c.mixUint(uint64(id))

	// Save the pointee as a region (raw typed copy), then recurse into
	// its contents for referenced containers.
	pointee := reflect.NewAt(t, ptr).Elem()
	saved := reflect.New(t)
	saved.Elem().Set(pointee)
	c.state.regions = append(c.state.regions, region{ptr: ptr, typ: t, saved: saved})
	c.state.bytes += int(t.Size())
	c.walkValue(saved.Elem()) // recurse on the copy: same pointers, no aliasing hazards
}

// walkStructCopy hashes and recurses a struct VALUE (a copy — already
// captured as part of its containing region). Unexported fields are
// reached through the copy's own address.
func (c *capture) walkStructCopy(v reflect.Value) {
	t := v.Type()
	if c.skipType(t) {
		c.mixString("skipval:" + t.String())
		return
	}
	var base unsafe.Pointer
	if v.CanAddr() {
		base = unsafe.Pointer(v.UnsafeAddr())
	} else {
		// Unaddressable copy (e.g. a map value): re-home it.
		h := reflect.New(t)
		h.Elem().Set(v)
		base = h.UnsafePointer()
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fv := reflect.NewAt(f.Type, unsafe.Add(base, f.Offset)).Elem()
		c.mixString(f.Name)
		c.walkValue(fv)
	}
}

// walkSlice captures the backing array as a region and recurses into the
// elements. Payload-typed contents are skipped wholesale; raw (pointer-
// free) elements are captured with one copy and hashed word-wise instead
// of reflecting over every element.
func (c *capture) walkSlice(v reflect.Value) {
	n := v.Len()
	c.mixUint(uint64(n))
	if n == 0 {
		return
	}
	et := v.Type().Elem()
	if c.payloadType(et) {
		c.mixString("payload:" + et.String())
		return
	}
	arrT := reflect.ArrayOf(n, et)
	ptr := v.UnsafePointer()
	key := seenKey{ptr, arrT}
	if id, ok := c.seen[key]; ok {
		c.mixString("sliceref")
		c.mixUint(uint64(id))
		return
	}
	id := len(c.seen)
	c.seen[key] = id
	saved := reflect.New(arrT)
	reflect.Copy(saved.Elem().Slice(0, n), v)
	c.state.regions = append(c.state.regions, region{ptr: ptr, typ: arrT, saved: saved})
	c.state.bytes += int(arrT.Size())
	if rawKind(et.Kind()) {
		c.mixRaw(saved.UnsafePointer(), int(arrT.Size()))
		return
	}
	for i := 0; i < n; i++ {
		c.walkValue(saved.Elem().Index(i))
	}
}

// walkMap records the map's entries for clear-and-refill restore and
// recurses into keys and values, in sorted key order so the digest (and
// the region list) is iteration-order-independent.
func (c *capture) walkMap(v reflect.Value) {
	if v.IsNil() {
		c.mixString("nil-map")
		return
	}
	keys := v.MapKeys()
	c.mixUint(uint64(len(keys)))
	type kv struct {
		label string
		k     reflect.Value
	}
	sorted := make([]kv, len(keys))
	for i, k := range keys {
		sorted[i] = kv{fmt.Sprintf("%v", k.Interface()), k}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].label < sorted[j].label })
	mr := mapRecord{m: v}
	for _, e := range sorted {
		val := v.MapIndex(e.k)
		mr.keys = append(mr.keys, e.k)
		mr.vals = append(mr.vals, val)
		c.mixString(e.label)
		c.walkValue(e.k)
		c.walkValue(val)
		c.state.bytes += int(e.k.Type().Size() + val.Type().Size())
	}
	c.state.maps = append(c.state.maps, mr)
}
