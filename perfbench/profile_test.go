package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(num int, v uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(v)
}

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(num, q.b)
}

// syntheticProfile encodes a CPU profile whose one location inlines
// crypto/ed25519.Verify into Verifier.Verify (two lines, innermost
// first), with samples in both the packed and the unpacked encoding.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"samples", "count", "cpu", "nanoseconds",
		"crypto/internal/edwards25519.(*Point).ScalarMult",
		"crypto/ed25519.Verify",
		"platoonsec/internal/security.(*Verifier).Verify",
		"platoonsec/internal/platoon.(*Agent).onRx",
		"runtime.gcBgMarkWorker",
	}
	var p pb
	sampleType := func(typ, unit uint64) {
		var v pb
		v.uint(1, typ)
		v.uint(2, unit)
		p.bytes(1, v.b)
	}
	sampleType(1, 2)
	sampleType(3, 4)
	// Sample 1 (packed): leaf location 1, then 2, then 3; 30 ms.
	var s pb
	s.packed(sampleLocationID, 1, 2, 3)
	s.packed(sampleValue, 3, 30e6)
	p.bytes(profSample, s.b)
	// Sample 2 (unpacked): a GC worker alone; 10 ms.
	s = pb{}
	s.uint(sampleLocationID, 4)
	s.uint(sampleValue, 1)
	s.uint(sampleValue, 10e6)
	p.bytes(profSample, s.b)
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(locationID, id)
		for _, fn := range fns {
			var line pb
			line.uint(lineFunction, fn)
			line.uint(2, 42)
			l.bytes(locationLine, line.b)
		}
		p.bytes(profLocation, l.b)
	}
	location(1, 1)    // ScalarMult
	location(2, 2, 3) // ed25519.Verify inlined into Verifier.Verify
	location(3, 4)    // Agent.onRx
	location(4, 5)    // gcBgMarkWorker
	for id := uint64(1); id <= 5; id++ {
		var f pb
		f.uint(functionID, id)
		f.uint(functionName, id+4)
		p.bytes(profFunction, f.b)
	}
	for _, str := range strs {
		p.bytes(profStringTable, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestSyntheticProfileChargesStdlibUnderVerifyToSecurity(t *testing.T) {
	prof, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Stacks) != 2 {
		t.Fatalf("parsed %d samples, want 2", len(prof.Stacks))
	}
	want := []string{"crypto/internal/edwards25519.(*Point).ScalarMult", "crypto/ed25519.Verify",
		"platoonsec/internal/security.(*Verifier).Verify", "platoonsec/internal/platoon.(*Agent).onRx"}
	if got := prof.Stacks[0]; len(got) != len(want) || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("stack 0 = %v, want %v", got, want)
	}
	shares := prof.layerShares()
	if got := shares["security"]; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("security share = %g, want 0.75 (30 of 40 ms)", got)
	}
	if got := shares["runtime"]; math.Abs(got-0.25) > 1e-9 {
		t.Errorf("runtime share = %g, want 0.25", got)
	}
	var sum float64
	for _, l := range Layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

func TestParseTruncatedProfileFails(t *testing.T) {
	var p pb
	p.bytes(profSample, []byte{0x0a, 0x05, 0x01})
	if _, err := parseProfile(p.b[:len(p.b)-1]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

// TestParseRealProfile feeds the parser a profile written by
// runtime/pprof itself.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Stacks) == 0 {
		t.Skip("no samples collected")
	}
	shares := prof.layerShares()
	if shares["benchmark"]+shares["runtime"] < 0.99 {
		t.Errorf("a test binary's samples landed outside benchmark/runtime: %v (x=%g)", shares, x)
	}
}
