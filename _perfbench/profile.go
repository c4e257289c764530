package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution from a runtime/pprof CPU profile. The profile is a
// gzipped protocol buffer (github.com/google/pprof proto/profile.proto);
// the few fields attribution needs are decoded here with a minimal
// wire-format reader, so the harness needs neither the pprof tool nor
// a dependency outside the standard library.

// modulePrefix marks the program's own frames in function names.
const modulePrefix = "epoc/"

// cpuLayers lists the packages charged a cpu.<layer>_share, keyed by
// import path; every other package of the module is "other".
var cpuLayers = map[string]string{
	"epoc/internal/linalg":        "linalg",
	"epoc/internal/linalg/kernel": "kernel",
	"epoc/internal/qoc":           "qoc",
	"epoc/internal/synth":         "synth",
	"epoc/internal/opt":           "opt",
	"epoc/internal/zx":            "zx",
	"epoc/internal/sim":           "sim",
	"epoc/internal/densesim":      "sim",
}

// eigFunc is the function ROADMAP item 2 found dominating full-GRAPE
// CPU; its cumulative share is reported as cpu.eig_cum_share.
const eigFunc = "epoc/internal/linalg.EigHermitianInto"

// cpuShares is the attribution of a profile's samples.
type cpuShares struct {
	Samples int64            // total sample count (the base of every share)
	ByLayer map[string]int64 // layer -> samples, incl. "other", "runtime", "harness"
	EigCum  int64            // samples with eigFunc anywhere on the stack
}

// share returns the fraction of samples charged to layer.
func (c cpuShares) share(layer string) float64 {
	if c.Samples == 0 {
		return 0
	}
	return float64(c.ByLayer[layer]) / float64(c.Samples)
}

// funcPackage returns the import path of a Go symbol name such as
// "epoc/internal/qoc.(*propCache).update".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// attribute charges each sample to the package of its innermost
// module frame, so standard-library frames (math, math/cmplx, the
// allocator) count against the module code that called them. Samples
// with no module frame go to "harness" when the benchmark's own code
// (package main) is on the stack and to "runtime" otherwise.
func attribute(stacks [][]string, counts []int64) cpuShares {
	out := cpuShares{ByLayer: map[string]int64{}}
	for i, frames := range stacks {
		n := counts[i]
		out.Samples += n
		layer := ""
		harness, eig := false, false
		for _, f := range frames {
			if f == eigFunc {
				eig = true
			}
			if layer == "" && strings.HasPrefix(f, modulePrefix) {
				layer = cpuLayers[funcPackage(f)]
				if layer == "" {
					layer = "other"
				}
			}
			if strings.HasPrefix(f, "main.") {
				harness = true
			}
		}
		switch {
		case layer != "":
		case harness:
			layer = "harness"
		default:
			layer = "runtime"
		}
		out.ByLayer[layer] += n
		if eig {
			out.EigCum += n
		}
	}
	return out
}

// parseCPUProfile decodes a gzipped pprof profile into one stack per
// sample (innermost frame first, inlined frames expanded) and the
// sample counts (the profile's first value).
func parseCPUProfile(gz []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples  []sample
		strtab   []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strtab)) {
					frames = append(frames, strtab[i])
				}
			}
		}
		stacks = append(stacks, frames)
		counts = append(counts, int64(s.vals[0]))
	}
	return stacks, counts, nil
}

// appendPacked appends a repeated varint field that arrived either
// unpacked (one varint, b nil) or packed (a length-delimited run).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errWire = errors.New("malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field
// number and either its varint value (b nil) or its length-delimited
// payload. Fixed-width fields are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errWire
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errWire
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errWire
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errWire
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errWire
			}
			msg = msg[4:]
		default:
			return errWire
		}
	}
	return nil
}
