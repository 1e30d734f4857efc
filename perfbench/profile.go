package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped protobuf profiles runtime/pprof writes
// (the profile.proto schema) far enough to attribute sample values to
// the program's modules. Only the standard library is available, so
// the decoder reads the wire format directly.

// frame is one function on a sample's stack.
type frame struct {
	name, file string
}

// pprofile is a decoded profile: each sample's stack, leaf first, and
// its values in sample-type order.
type pprofile struct {
	types   []string
	samples []psample
}

type psample struct {
	stack  []frame
	values []int64
}

// valueIndex returns the index of the named sample type, or -1.
func (p *pprofile) valueIndex(typ string) int {
	for i, t := range p.types {
		if t == typ {
			return i
		}
	}
	return -1
}

func parseProfile(gz []byte) (*pprofile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type loc struct{ funcs []uint64 }
	type fn struct{ name, file int64 }
	var (
		strs     []string
		typeIdx  []int64
		rawSamps []struct{ locs, vals []uint64 }
		locs     = map[uint64]loc{}
		funcs    = map[uint64]fn{}
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.vals, v, b)
				}
				return nil
			})
			rawSamps = append(rawSamps, s)
			return err
		case 4: // location
			var id uint64
			var l loc
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined call
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var x fn
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					x.name = int64(v)
				case 4:
					x.file = int64(v)
				}
				return nil
			})
			funcs[id] = x
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &pprofile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, rs := range rawSamps {
		s := psample{values: make([]int64, len(rs.vals))}
		for i, v := range rs.vals {
			s.values[i] = int64(v)
		}
		for _, id := range rs.locs {
			for _, fid := range locs[id].funcs {
				f := funcs[fid]
				s.stack = append(s.stack, frame{name: str(f.name), file: str(f.file)})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (data set) or
// not (one value).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageModule maps packages to the layer names the benchmark
// attributes cost to; the runtime is the module "runtime", and stacks
// with no module frame (the benchmark's own code) are "other". Every
// wattio package not listed, and every standard-library package outside
// the runtime, is transparent: its cost goes to the nearest listed
// caller on the stack.
var packageModule = map[string]string{
	"wattio/internal/scenario": "scenario",
	"wattio/internal/serve":    "serve",
	"wattio/internal/sim":      "sim",
	"wattio/internal/ssd":      "devices",
	"wattio/internal/hdd":      "devices",
	"wattio/internal/power":    "devices",
	"wattio/internal/fault":    "devices",
	"wattio/internal/device":   "devices",
	"wattio/internal/catalog":  "devices",
	"wattio/internal/nvme":     "devices",
	"wattio/internal/sata":     "devices",
	"wattio/internal/workload": "workload",
	"wattio/internal/meso":     "meso",
	"wattio/internal/adaptive": "plan",
	"wattio/internal/core":     "plan",
}

// funcPackage returns the import path of a symbol such as
// "wattio/internal/sim.(*Engine).Run".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// selfModule attributes a CPU sample: a runtime leaf (allocation, GC,
// maps, scheduling) is the runtime's own time, anything else goes to
// the nearest module frame.
func selfModule(stack []frame) string {
	if len(stack) > 0 && isRuntime(funcPackage(stack[0].name)) {
		return "runtime"
	}
	return nearestModule(stack)
}

// nearestModule returns the module of the frame closest to the leaf
// that belongs to one, skipping runtime and transparent frames; it is
// how allocated bytes are attributed to the code that asked for them.
func nearestModule(stack []frame) string {
	for _, f := range stack {
		if m, ok := packageModule[funcPackage(f.name)]; ok {
			return m
		}
	}
	if len(stack) > 0 && isRuntime(funcPackage(stack[len(stack)-1].name)) {
		return "runtime"
	}
	return "other"
}

// A slice is a named part of one module, matched on the frame nearest
// the leaf that belongs to a module: by function, its methods and
// closures, or a whole package (by prefix), or by source file.
type slice struct {
	name  string
	funcs []string
	files []string
}

func (s slice) match(f frame) bool {
	for _, fn := range s.funcs {
		if f.name == fn || strings.HasPrefix(f.name, fn+".") {
			return true
		}
	}
	for _, file := range s.files {
		if strings.HasSuffix(f.file, file) {
			return true
		}
	}
	return false
}

var moduleSlices = []slice{
	{name: "serve.merge", funcs: []string{"wattio/internal/serve.merge", "wattio/internal/serve.latQuantiles"}},
	{name: "serve.churn", funcs: []string{"wattio/internal/serve.compileChurn"}, files: []string{"/internal/serve/lifecycle.go"}},
	{name: "power", funcs: []string{"wattio/internal/power"}},
}

// attribution is a profile's values summed per module and per slice.
type attribution struct {
	total    int64
	byModule map[string]int64
	bySlice  map[string]int64
}

// attribute sums value index vi of every sample. self selects CPU-style
// attribution (runtime leaves count as runtime); otherwise samples go
// to the nearest module frame.
func attribute(p *pprofile, vi int, self bool) attribution {
	a := attribution{byModule: map[string]int64{}, bySlice: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		a.total += v
		var m string
		if self {
			m = selfModule(s.stack)
		} else {
			m = nearestModule(s.stack)
		}
		a.byModule[m] += v
		if m == "runtime" && self {
			continue
		}
		for _, f := range s.stack {
			if _, ok := packageModule[funcPackage(f.name)]; !ok {
				continue
			}
			for _, sl := range moduleSlices {
				if sl.match(f) {
					a.bySlice[sl.name] += v
				}
			}
			break
		}
	}
	return a
}

// sub returns a − b per key: the allocation profile is cumulative, so
// the bytes a phase allocated are the difference of two snapshots.
func (a attribution) sub(b attribution) attribution {
	out := attribution{total: a.total - b.total, byModule: map[string]int64{}, bySlice: map[string]int64{}}
	for k, v := range a.byModule {
		out.byModule[k] = v - b.byModule[k]
	}
	for k, v := range a.bySlice {
		out.bySlice[k] = v - b.bySlice[k]
	}
	return out
}
