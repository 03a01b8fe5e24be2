package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's internal packages, each reported as its
// own per-layer CPU metric. CPU in any other tshmem package (the root
// API, shmemc, this benchmark) is charged to "other", and CPU with no
// tshmem frame at all to "runtime".
var modules = []string{
	"alloc", "arch", "bench", "cache", "cbir", "core", "fault", "fft", "kernels",
	"mesh", "mpipe", "profile", "sanitize", "stats", "tmc", "udn", "vtime",
}

// attribution is CPU time (ns) by module.
type attribution struct {
	byModule map[string]int64
	total    int64
}

// moduleOf names the module a function belongs to, or "" when the
// function is not in a tshmem package.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	if pkg != "tshmem" && !strings.HasPrefix(pkg, "tshmem/") {
		return ""
	}
	if m, ok := strings.CutPrefix(pkg, "tshmem/internal/"); ok && !strings.Contains(m, "/") {
		for _, known := range modules {
			if m == known {
				return m
			}
		}
	}
	return "other"
}

// attribute charges every CPU-profile sample to the innermost frame in
// a tshmem package (inlined frames included), or to "runtime" when the
// stack has none. Every module is present in the result, so a module
// the run never entered reads 0.
func attribute(gz []byte) (attribution, error) {
	a := attribution{byModule: map[string]int64{"runtime": 0, "other": 0}}
	for _, m := range modules {
		a.byModule[m] = 0
	}
	if len(gz) == 0 {
		return a, errors.New("empty profile")
	}
	p, err := parseProfile(gz)
	if err != nil {
		return a, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return a, errors.New("profile has no cpu sample type")
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return a, errors.New("sample without a cpu value")
		}
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost (inlined) first
				if m := moduleOf(p.funcNames[fn]); m != "" {
					mod = m
					break stack
				}
			}
		}
		a.byModule[mod] += s.values[vi]
		a.total += s.values[vi]
	}
	return a, nil
}

// profileData is the part of a pprof profile.proto the attribution
// reads.
type profileData struct {
	sampleTypes []string
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped profile.proto with a minimal protobuf
// reader, so the benchmark needs nothing beyond the standard library.
func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		typeIdx  []uint64
		funcName = map[uint64]uint64{}
		p        = &profileData{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	)
	err = eachField(raw, func(f uint64, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(f, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample{location_id=1, value=2}
			var s sample
			err := eachField(b, func(f, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function{id=1, name=2}
			var id, name uint64
			err := eachField(b, func(f, v uint64, _ []byte) error {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for id, si := range funcName {
		if p.funcNames[id], err = str(si); err != nil {
			return nil, err
		}
	}
	for _, si := range typeIdx {
		s, err := str(si)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

func uvarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField calls f for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes.
func eachField(msg []byte, f func(field, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n, err := uvarint(msg)
		if err != nil {
			return err
		}
		msg = msg[n:]
		field, wire := key>>3, key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n, err = uvarint(msg); err != nil {
				return err
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n, err := uvarint(msg)
			if err != nil {
				return err
			}
			msg = msg[n:]
			if uint64(len(msg)) < l {
				return errTruncated
			}
			b, msg = msg[:l], msg[l:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field given either unpacked (one
// value v, b nil) or packed (b holds the varints).
func eachVarint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n, err := uvarint(b)
		if err != nil {
			return err
		}
		f(x)
		b = b[n:]
	}
	return nil
}
