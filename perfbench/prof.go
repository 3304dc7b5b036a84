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

// profile is a CPU profile held in memory for the traced run.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and charges the CPU time of each sample taken in
// a timed section (see timedLabels) to the innermost ironfs/internal/<pkg>
// frame on its stack, as "cpu.<layer>.s" where layer is the package path
// below internal with "/" turned into "-" (fs/reiser → fs-reiser).
// Samples with no such frame are charged to cpu.runtime.s. The garbage
// collector's background workers carry no label and are not counted; the
// mark assists a timed goroutine performs are.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(bytes.NewReader(p.buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		if !s.timed {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				if l := layerOf(prof.strings[prof.funcName[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		out["cpu."+layer+".s"] += float64(s.ns) / 1e9
	}
	return out, nil
}

// layerOf maps a function name to its ironfs/internal package layer, or ""
// outside the module's internal packages.
func layerOf(fn string) string {
	const pre = "ironfs/internal/"
	if !strings.HasPrefix(fn, pre) {
		return ""
	}
	rest := fn[len(pre):]
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // drop generic type arguments
	}
	// The package path ends at the first "." after the last "/".
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return strings.ReplaceAll(rest[:slash+1+dot], "/", "-")
}

// decodedProfile is the subset of a pprof profile the cpu.* metrics need.
type decodedProfile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64 // innermost first
	ns     int64
	labels [][2]int64 // (key, value) string table indexes
	timed  bool
}

var errProto = errors.New("malformed profile")

// parseProfile decodes the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions and the string table.
func parseProfile(b []byte) (*decodedProfile, error) {
	p := &decodedProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, body []byte) error {
		switch {
		case num == 2 && wire == 2: // sample
			var s sample
			var vals []int64
			err := fields(body, func(num, wire int, v uint64, body []byte) error {
				switch num {
				case 1:
					return varints(wire, v, body, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, body, func(x uint64) { vals = append(vals, int64(x)) })
				case 3: // label
					var kv [2]int64
					err := fields(body, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) < 2 {
				return errProto
			}
			s.ns = vals[1] // [samples/count, cpu/nanoseconds]
			p.samples = append(p.samples, s)
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := fields(body, func(num, wire int, v uint64, body []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // line
					return fields(body, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := fields(body, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case num == 6 && wire == 2: // string table
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(p.strings)) {
			return "", errProto
		}
		return p.strings[i], nil
	}
	for _, idx := range p.funcName {
		if _, err := str(idx); err != nil {
			return nil, err
		}
	}
	for i := range p.samples {
		for _, kv := range p.samples[i].labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			v, err := str(kv[1])
			if err != nil {
				return nil, err
			}
			if k == "phase" && v == "timed" {
				p.samples[i].timed = true
			}
		}
	}
	return p, nil
}

// fields walks the protobuf fields of b, calling f with each field's
// number and wire type and either its varint value or its bytes.
func fields(b []byte, f func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
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
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, body []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errProto
		}
		f(x)
		body = body[n:]
	}
	return nil
}
