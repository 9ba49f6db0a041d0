package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The traced run charges each CPU-profile sample to the innermost frame
// on its stack that belongs to a nilicon/internal package (or to this
// benchmark's own code); samples with neither go to "runtime". The
// profile is the gzipped protobuf runtime/pprof writes; this file
// decodes only the fields the attribution needs (profile.proto:
// sample=2, location=4, function=5, string_table=6).

const internalPrefix = "nilicon/internal/"

// modules lists the packages reported as <module>.cpu_pct. Samples in
// any other nilicon/internal package are charged to "other".
var modules = []string{
	"simtime", "simnet", "simkernel", "simdisk", "simfs", "criu", "core",
	"container", "cluster", "chaos", "traffic", "workloads", "metrics",
	"trace", "faultinject", "runtime", "bench", "other",
}

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field returns the next field's number, wire type, and either its
// varint value or its length-delimited bytes.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints decodes a repeated uint64 field occurrence, packed or not.
func uints(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	p := &pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

type sample struct {
	locs  []uint64
	count int64
}

// attributeProfile reads a CPU profile and returns each module's share
// of the samples, in percent.
func attributeProfile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var samples []sample
	locFuncs := map[uint64][]uint64{} // location → function ids, innermost first
	funcName := map[uint64]uint64{}   // function → string index
	var strs []string
	p := &pbuf{body}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2:
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4:
			id, fns, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			locFuncs[id] = fns
		case 5:
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}

	known := map[string]bool{}
	for _, m := range modules {
		known[m] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					continue
				}
				if m := moduleOf(strs[idx]); m != "" {
					mod = m
					if !known[mod] {
						mod = "other"
					}
					break stack
				}
			}
		}
		counts[mod] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m] = 0
		if total > 0 {
			out[m] = 100 * float64(counts[m]) / float64(total)
		}
	}
	return out, nil
}

// moduleOf maps a function name to its module, or "" for frames outside
// the project (standard library, runtime).
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	p := &pbuf{b}
	var values []uint64
	for len(p.b) > 0 {
		num, wire, v, data, err := p.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			xs, err := uints(wire, v, data)
			if err != nil {
				return s, err
			}
			s.locs = append(s.locs, xs...)
		case 2:
			xs, err := uints(wire, v, data)
			if err != nil {
				return s, err
			}
			values = append(values, xs...)
		}
	}
	// A CPU profile's first value is the sample count.
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, nil
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	p := &pbuf{b}
	for len(p.b) > 0 {
		num, _, v, data, err := p.field()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			id = v
		case 4:
			lp := &pbuf{data}
			for len(lp.b) > 0 {
				ln, _, lv, _, err := lp.field()
				if err != nil {
					return 0, nil, err
				}
				if ln == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}

func decodeFunction(b []byte) (uint64, uint64, error) {
	var id, name uint64
	p := &pbuf{b}
	for len(p.b) > 0 {
		num, _, v, _, err := p.field()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			id = v
		case 2:
			name = v
		}
	}
	return id, name, nil
}
