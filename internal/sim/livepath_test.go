package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"
	"time"

	"untangle/internal/core"
	"untangle/internal/isa"
	"untangle/internal/partition"
	"untangle/internal/telemetry"
	"untangle/internal/workload"
)

// pairDomain is a mix-style domain: a crypto kernel (every op annotated
// secret) interleaved with a SPEC benchmark, plus the SPEC benchmark's
// endless pressure stream. The secret-annotated ops make both Principle
// gates matter.
func pairDomain(t testing.TB, specName, cryptoName string, total uint64) DomainSpec {
	t.Helper()
	pair := workload.Pair{SPEC: specName, Crypto: cryptoName}
	stream, err := pair.PairStream(20_000, 100_000, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.SPECByName(specName)
	if err != nil {
		t.Fatal(err)
	}
	return DomainSpec{
		Name:     pair.String(),
		Stream:   stream,
		Pressure: benchPressure(t, specName),
		CPU:      p.CPUParams(),
	}
}

// digestValue folds v into h field by field: floats as their IEEE bits,
// integers and durations as 64-bit words, slices with their lengths, and
// unexported fields too, so any change to any bit of a Result shows.
func digestValue(t *testing.T, h hash.Hash, v reflect.Value) {
	var w [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(t, h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(t, h, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		digestValue(t, h, v.Elem())
	default:
		t.Fatalf("digest: unsupported kind %v", v.Kind())
	}
}

// TestLivePathDigest pins the live (Stream/Pressure-fed) simulator's
// outputs bit for bit: every Result field, the telemetry event stream and
// the metrics snapshot of small two-domain runs, across the four schemes
// and the configuration switches that reach the per-domain loop. The
// fusion tests compare two paths within one build; these constants pin
// the live path across builds, so any drift in the front-end gates, the
// L1 resolution, the monitor feed or the back end shows here. Update
// them only for a change meant to alter simulation results.
func TestLivePathDigest(t *testing.T) {
	cases := []struct {
		name       string
		kind       partition.Kind
		mutate     func(*Config)
		noPressure bool
		want       string
	}{
		{name: "static", kind: partition.Static, want: "0a1dd8564d3cc872"},
		{name: "shared", kind: partition.Shared, want: "7b8ea5edd85d2e1c"},
		{name: "time", kind: partition.TimeBased, want: "867d7f1eb6b0bea3"},
		{name: "untangle", kind: partition.Untangle, want: "9d0dff3dff130c78"},
		{name: "untangle-unannotated", kind: partition.Untangle,
			mutate: func(c *Config) { c.Scheme.Annotated = false }, want: "b4969b421d625595"},
		{name: "time-unannotated", kind: partition.TimeBased,
			mutate: func(c *Config) { c.Scheme.Annotated = false }, want: "056871316da4aca0"},
		{name: "untangle-way", kind: partition.Untangle,
			mutate: func(c *Config) { c.WayPartitioned = true; c.Sizes = c.WaySizes() }, want: "cd1231ba69973b9b"},
		{name: "time-bandwidth", kind: partition.TimeBased,
			mutate: func(c *Config) { c.MemBandwidth = 2e9 }, want: "4a48abaa159182d5"},
		{name: "untangle-tiers", kind: partition.Untangle,
			mutate: func(c *Config) { c.Tiers = []core.Tier{0, 1} }, want: "9f5941b847a191e2"},
		{name: "untangle-no-pressure", kind: partition.Untangle, noPressure: true, want: "178c597fc8a92e6f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Scaled(partition.DefaultScheme(tc.kind), testScale)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			buf := telemetry.NewBuffer()
			cfg.Tracer = telemetry.New(buf, nil, tc.kind.String())
			cfg.Metrics = telemetry.NewRegistry()
			specs := []DomainSpec{
				pairDomain(t, "mcf_0", "AES-128", 300_000),
				specDomain(t, "imagick_0", 250_000),
			}
			if tc.noPressure {
				specs[1].Pressure = nil
			}
			s, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			digestValue(t, h, reflect.ValueOf(res))
			var trace bytes.Buffer
			if err := buf.WriteJSONL(&trace); err != nil {
				t.Fatal(err)
			}
			h.Write(trace.Bytes())
			snap, err := cfg.Metrics.Snapshot().MarshalJSONIndent()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(snap)
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestFinitePressureIdlesForward runs a domain whose pressure stream ends
// long before its co-runner finishes: once both its streams are drained
// the domain must idle forward, not spin, so Run returns.
func TestFinitePressureIdlesForward(t *testing.T) {
	cfg := testConfig(partition.Untangle)
	short := specDomain(t, "imagick_0", 50_000)
	short.Pressure = isa.NewLimited(benchPressure(t, "imagick_0"), 10_000)
	s, err := New(cfg, []DomainSpec{short, specDomain(t, "mcf_0", 400_000)})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.Run()
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if got := out.res.Domains[0].Instructions; got == 0 || got > 50_000 {
			t.Errorf("short domain measured %d instructions, want (0, 50000]", got)
		}
		if out.res.Domains[1].Instructions < 390_000 {
			t.Errorf("long domain measured %d instructions, want ~400000", out.res.Domains[1].Instructions)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return within 20s after a finite pressure stream drained")
	}
}
