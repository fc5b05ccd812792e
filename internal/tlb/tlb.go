// Package tlb applies the Untangle framework to a second hardware resource,
// as Section 6.3 prescribes: a shared, set-associative second-level TLB that
// is partitioned by entry count among security domains.
//
// The package demonstrates the two ingredients Section 6.3 requires for a
// new resource:
//
//  1. a timing-independent utilization metric — here, shadow-TLB hits over
//     the last Mw retired public memory instructions, with the same
//     annotations-based exclusion of secret-dependent accesses ("we can
//     trivially extend the LLC utilization metric to the TLB": Monitor is
//     that metric, monitor.Monitor, over one line per page), and
//  2. reuse of the static analyses for caches to annotate secret-dependent
//     usage (the isa flags carry over unchanged).
//
// The hit-maximizing allocator, schedule mechanisms and leakage accounting
// from the partition, sim and core packages apply unchanged because they
// never inspect what resource the utilities describe.
package tlb

import (
	"fmt"

	"untangle/internal/cache"
	"untangle/internal/isa"
	"untangle/internal/monitor"
)

// PageBytes is the translation granularity (4 KiB pages).
const PageBytes = 4096

// DefaultEntrySizes returns the supported per-domain TLB partition sizes in
// entries, mirroring the 9-step geometric ladder of the LLC evaluation.
func DefaultEntrySizes() []int {
	return []int{16, 32, 64, 96, 128, 192, 256, 384, 512}
}

// TLB is a set-associative translation buffer partitioned by entries. It is
// backed by the cache package's set-associative array: one TLB entry is
// represented as one line, with the page number as the line address.
type TLB struct {
	ways  int
	inner *cache.Cache
}

// Config describes a TLB partition.
type Config struct {
	// Entries is the partition's capacity in translations.
	Entries int
	// Ways is the associativity.
	Ways int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("tlb: ways = %d", c.Ways)
	}
	if c.Entries <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: %d entries not divisible into %d ways", c.Entries, c.Ways)
	}
	return nil
}

// New builds a TLB partition.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := cache.New(cache.Config{
		SizeBytes: int64(cfg.Entries) * cache.LineBytes,
		Ways:      cfg.Ways,
	})
	if err != nil {
		return nil, err
	}
	return &TLB{ways: cfg.Ways, inner: inner}, nil
}

// pageKey maps a byte address to the synthetic line address that represents
// its page in the backing array.
func pageKey(addr uint64) uint64 {
	return (addr / PageBytes) * cache.LineBytes
}

// Access translates the page containing addr, returning true on TLB hit.
func (t *TLB) Access(addr uint64) bool {
	return t.inner.Access(pageKey(addr), false)
}

// Contains probes without updating replacement state.
func (t *TLB) Contains(addr uint64) bool {
	return t.inner.Contains(pageKey(addr))
}

// Entries returns the current capacity in translations.
func (t *TLB) Entries() int {
	return int(t.inner.SizeBytes() / cache.LineBytes)
}

// Resize changes the partition to the given entry count, preserving
// translations whose new set has room — the same semantics as the LLC
// partitions.
func (t *TLB) Resize(entries int) error {
	if err := (Config{Entries: entries, Ways: t.ways}).Validate(); err != nil {
		return err
	}
	return t.inner.Resize(int64(entries) * cache.LineBytes)
}

// Stats returns hit/miss counters.
func (t *TLB) Stats() cache.Stats { return t.inner.Stats() }

// Monitor is the timing-independent TLB utilization metric: per candidate
// entry count, the TLB hits the domain would have had over the last Window
// retired public memory instructions. It is the LLC monitor itself
// (monitor.Monitor, unsampled) over page lines: a candidate of n entries is
// a shadow array of n lines, and each access is observed as the line that
// represents its page. Accesses annotated secret-dependent must not be
// passed in (Principle 1), exactly as with the LLC monitor.
type Monitor struct {
	sizes []int
	inner *monitor.Monitor
}

// MonitorConfig configures the metric.
type MonitorConfig struct {
	// Sizes are candidate entry counts, strictly increasing.
	Sizes []int
	// Ways is the associativity of the shadow TLBs.
	Ways int
	// Window is Mw in retired public memory instructions.
	Window uint64
	// Buckets subdivides the window (default 8).
	Buckets int
}

// NewMonitor builds the metric.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	lines := make([]int64, len(cfg.Sizes))
	for i, s := range cfg.Sizes {
		lines[i] = int64(s) * cache.LineBytes
	}
	inner, err := monitor.New(monitor.Config{Sizes: lines, Ways: cfg.Ways, Window: cfg.Window, Buckets: cfg.Buckets})
	if err != nil {
		return nil, fmt.Errorf("tlb: %w", err)
	}
	return &Monitor{sizes: append([]int(nil), cfg.Sizes...), inner: inner}, nil
}

// Observe records one retired public memory access in program order.
func (m *Monitor) Observe(addr uint64) { m.inner.Observe(pageKey(addr), false) }

// ObserveOp records the memory access of an op if it is public and a memory
// op, applying the Principle 1 exclusion in one place.
func (m *Monitor) ObserveOp(op isa.Op) {
	if op.IsMem() && !op.SecretUse() {
		m.Observe(op.Addr)
	}
}

// Utilities returns the per-candidate hit counts over the window, in the
// order of the configured sizes — directly consumable by
// partition.Allocator.GlobalAllocate (utilities are resource-agnostic).
func (m *Monitor) Utilities() []float64 {
	u := m.inner.Utilities()
	out := make([]float64, len(u))
	for i, v := range u {
		out[i] = v.Hits
	}
	return out
}

// Sizes returns the candidate entry counts.
func (m *Monitor) Sizes() []int { return append([]int(nil), m.sizes...) }
