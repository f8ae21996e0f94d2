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

// layers are the modules host CPU is attributed to, in print order.
// "other" takes every sample with no frame in one of them.
var layers = []string{"sim", "ctrl", "metatag", "dataram", "dram", "addrcache",
	"dsa", "serve", "hier", "check", "runtime", "other"}

const modulePrefix = "xcache/internal/"

// layerOf maps a profiled function name to its layer. ok is false for a
// frame that belongs to no layer (the benchmark itself, the standard
// library), so the caller moves on to the next frame outward.
func layerOf(fn string) (layer string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime", true
	case strings.HasPrefix(fn, modulePrefix):
		mod := fn[len(modulePrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		switch mod {
		case "sim", "ctrl", "metatag", "dataram", "dram", "addrcache", "dsa", "serve", "hier", "check":
			return mod, true
		case "hashidx", "graph", "sparse", "btree":
			// The DSAs' data structures and input generators.
			return "dsa", true
		}
		return "other", true
	}
	return "", false
}

var errProfile = errors.New("cpu profile: malformed protobuf")

// excludedLabel is the profiler label of work the benchmark excludes from
// a pass (see passCtx.exclude); the traced run drops its samples.
var excludedLabel = [2]string{"perfbench", "excluded"}

// addSamples decodes a gzipped pprof CPU profile and adds each sample's
// CPU time to the layer of its innermost frame that has one. Samples
// carrying excludedLabel are dropped.
func addSamples(into map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs, values []uint64
		labels       [][2]uint64 // string-table indices of key and value
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{}   // function id → string-table index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	// Field numbers are those of profile.proto (github.com/google/pprof).
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1: // Sample.location_id, leaf first
					s.locs, err = varints(s.locs, wire, v, b)
				case 2: // Sample.value: [samples, cpu nanoseconds]
					s.values, err = varints(s.values, wire, v, b)
				case 3: // Sample.label
					var kv [2]uint64
					err = fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 { // Label.key, Label.str
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line; inlined callees come first
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
samples:
	for _, s := range samples {
		if len(s.values) < 2 {
			return errProfile
		}
		for _, kv := range s.labels {
			if [2]string{str(kv[0]), str(kv[1])} == excludedLabel {
				continue samples
			}
		}
		into[sampleLayer(s.locs, locFuncs, funcName, strs)] += float64(s.values[1])
	}
	return nil
}

func sampleLayer(locs []uint64, locFuncs map[uint64][]uint64, funcName map[uint64]uint64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			if i, ok := funcName[fn]; ok && i < uint64(len(strs)) {
				if l, ok := layerOf(strs[i]); ok {
					return l
				}
			}
		}
	}
	return "other"
}

// fields calls f for each field of the protobuf message b: v holds a
// varint or fixed-width value, b the payload of a length-delimited field.
func fields(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed or not.
func varints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
