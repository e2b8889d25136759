package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run takes a CPU profile of the workload and folds its
// samples by the package of the function they were taken in (self time)
// into cpu_share.<module>. The profile is parsed here from its protobuf
// encoding with the standard library alone.

// cpuModules are the buckets a sample folds into: one per package of the
// program, plus the runtime split into map operations, allocation, GC
// and the rest, system calls, other standard-library code, and the
// benchmark's own code.
var cpuModules = []string{
	"coherency", "core", "dissemination", "ingest", "live", "netio", "netsim",
	"node", "obs", "place", "query", "repository", "resilience", "serve", "sim",
	"trace", "tree", "vserve", "wal", "wire", "facade",
	"runtime.map", "runtime.malloc", "runtime.gc", "runtime.other",
	"syscall", "stdlib", "perfbench",
}

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuModules))
	for i, m := range cpuModules {
		defs[i] = metricDef{"cpu_share." + m, "%"}
	}
	return defs
}

// profile buffers the CPU profile being taken.
var profile bytes.Buffer

func startProfile() error {
	profile.Reset()
	return pprof.StartCPUProfile(&profile)
}

// stopProfile ends the CPU profile and keeps its samples.
func (r *run) stopProfile() error {
	pprof.StopCPUProfile()
	samples, err := parseProfile(profile.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	r.cpuSamples = append(r.cpuSamples, samples...)
	return nil
}

// reportProfile reports the fold of every profiled sample.
func (r *run) reportProfile() {
	shares, total := foldProfile(r.cpuSamples)
	r.set("cpu_profile.samples", float64(total))
	for _, m := range cpuModules {
		r.set("cpu_share."+m, shares[m])
	}
}

// stackSample is one profile sample: its count and the function names of
// its stack, leaf first (inlined frames expanded).
type stackSample struct {
	count int64
	stack []string
}

// foldProfile returns each module's percentage of the samples, and the
// sample count.
func foldProfile(samples []stackSample) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		counts[moduleOf(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = 100 * float64(counts[m]) / float64(total)
		}
	}
	return shares, total
}

// moduleOf buckets a stack (leaf first): any garbage-collector frame
// makes it GC work; otherwise the leaf function's package decides.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	if len(stack) == 0 {
		return "runtime.other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "main.") || strings.HasPrefix(leaf, "d3t/perfbench."):
		return "perfbench"
	case strings.HasPrefix(leaf, "d3t/internal/"):
		pkg := strings.TrimPrefix(leaf, "d3t/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "facade"
	case strings.HasPrefix(leaf, "d3t.") || strings.HasPrefix(leaf, "d3t/"):
		return "facade"
	case strings.HasPrefix(leaf, "syscall.") || strings.HasPrefix(leaf, "internal/runtime/syscall.") ||
		strings.HasPrefix(leaf, "internal/syscall/"):
		return "syscall"
	case strings.HasPrefix(leaf, "runtime.map") || strings.HasPrefix(leaf, "internal/runtime/maps."):
		return "runtime.map"
	case strings.HasPrefix(leaf, "runtime.mallocgc") || strings.HasPrefix(leaf, "runtime.memclr") ||
		strings.HasPrefix(leaf, "runtime.nextFree") || strings.HasPrefix(leaf, "runtime.(*mcache)") ||
		strings.HasPrefix(leaf, "runtime.(*mspan)") || strings.HasPrefix(leaf, "runtime.(*mheap)") ||
		strings.HasPrefix(leaf, "runtime.newobject") || strings.HasPrefix(leaf, "runtime.growslice") ||
		strings.HasPrefix(leaf, "runtime.makeslice"):
		return "runtime.malloc"
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/"):
		return "runtime.other"
	}
	return "stdlib"
}

// parseProfile decodes a gzipped pprof protobuf into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = make(map[uint64]int64)    // function id -> string index
		locations = make(map[uint64][]uint64) // location id -> function ids, leaf first
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachUint(wt, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					if s.count == 0 { // the first value is the sample count
						return eachUint(wt, v, b, func(x uint64) {
							if s.count == 0 {
								s.count = int64(x)
							}
						})
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					st.stack = append(st.stack, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field's values, packed or not.
func eachUint(wt int, v uint64, b []byte, fn func(uint64)) error {
	if wt != 2 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
