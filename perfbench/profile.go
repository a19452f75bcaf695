package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// The CPU profile is read with the standard library alone: a gzipped
// profile.proto parsed by a small protobuf wire reader that keeps only
// what attribution needs — samples (location IDs and values), locations
// (function IDs, innermost inline frame first), functions (name string
// index) and the string table.

// Profile field numbers (github.com/google/pprof/proto/profile.proto).
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// cpuProfile is a parsed CPU profile: each sample's stack as function
// names, leaf first, with its weight (the last sample value, CPU
// nanoseconds for runtime/pprof profiles).
type cpuProfile struct {
	Stacks  [][]string
	Weights []int64
}

// parseProfile decodes a gzipped (or raw) profile.proto document.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]uint64{}
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return uints(v, b, func(u uint64) { s.locs = append(s.locs, u) })
				case sampleValue:
					return uints(v, b, func(u uint64) { s.values = append(s.values, int64(u)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		var w int64 = 1
		if len(s.values) > 0 {
			w = s.values[len(s.values)-1]
		}
		p.Stacks = append(p.Stacks, stack)
		p.Weights = append(p.Weights, w)
	}
	return p, nil
}

// layerShares attributes every sample to a layer and returns each
// layer's share of the total weight; the shares sum to 1 (all zero for
// an empty profile).
func (p *cpuProfile) layerShares() map[string]float64 {
	shares := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		shares[l] = 0
	}
	var total float64
	for i, st := range p.Stacks {
		w := float64(p.Weights[i])
		shares[attribute(st)] += w
		total += w
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number, its varint value (wire types 0, 1, 5) or its bytes (wire
// type 2).
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = varint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// uints delivers a repeated integer field in either encoding: one
// varint per field (body nil) or a packed run of varints.
func uints(v uint64, body []byte, add func(uint64)) error {
	if body == nil {
		add(v)
		return nil
	}
	for len(body) > 0 {
		u, n := varint(body)
		if n <= 0 {
			return errTruncated
		}
		add(u)
		body = body[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the
// bytes consumed (0 when b is truncated).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
