// Package isa defines the retired-instruction-stream representation shared by
// the workload generators, the core timing model, and the partitioning
// schemes.
//
// The Untangle framework only ever consumes the *architectural* instruction
// stream — the sequence of retired dynamic instructions in program order —
// because Principle 1 requires utilization metrics that are independent of
// instruction timing. An Op therefore compresses a run of non-memory
// instructions followed by at most one memory access; cycle-level effects are
// applied later by the cpu package.
//
// Annotations follow Section 5.2 of the paper: instructions whose resource
// usage is data- or control-dependent on secrets carry SecretUse (excluded
// from the utilization metric), and instructions that are control-dependent
// on secrets carry SecretProgress (excluded from execution-progress
// counting). Section 6.1's timing-dependent regions carry TimingDep and are
// excluded from both.
package isa

// Flags annotate one Op.
type Flags uint8

const (
	// FlagMem marks an Op that ends with a memory access.
	FlagMem Flags = 1 << iota
	// FlagWrite marks the access as a store.
	FlagWrite
	// FlagSecretUse marks the access as data- or control-dependent on a
	// secret: the monitor must exclude it from the utilization metric.
	FlagSecretUse
	// FlagSecretProgress marks the whole Op (including its non-memory run)
	// as control-dependent on a secret: it must not count toward execution
	// progress.
	FlagSecretProgress
	// FlagTimingDep marks a Section 6.1 timing-dependent dynamic region
	// (spin loops, time checks); treated like a secret region by Untangle.
	FlagTimingDep
)

// Op is one element of a retired instruction stream: NonMem plain retired
// instructions followed, if FlagMem is set, by one retired memory access to
// Addr (a byte address; the cache model truncates to line granularity).
type Op struct {
	Addr   uint64
	NonMem uint32
	Flags  Flags
}

// Instructions returns the number of retired instructions the Op represents.
func (o Op) Instructions() uint64 {
	n := uint64(o.NonMem)
	if o.Flags&FlagMem != 0 {
		n++
	}
	return n
}

// IsMem reports whether the Op ends with a memory access.
func (o Op) IsMem() bool { return o.Flags&FlagMem != 0 }

// IsWrite reports whether the access is a store.
func (o Op) IsWrite() bool { return o.Flags&FlagWrite != 0 }

// SecretUse reports whether the access must be hidden from the utilization
// metric (Principle 1 annotation).
func (o Op) SecretUse() bool { return o.Flags&(FlagSecretUse|FlagTimingDep) != 0 }

// SecretProgress reports whether the Op is excluded from execution-progress
// counting (Principle 2 annotation).
func (o Op) SecretProgress() bool { return o.Flags&(FlagSecretProgress|FlagTimingDep) != 0 }

// Stream produces a retired instruction stream in program order.
//
// Fill writes up to len(buf) Ops into buf and returns how many were written.
// A return of 0 means the stream is exhausted. Streams are deterministic:
// two streams constructed with identical parameters and seeds produce
// identical Op sequences regardless of how Fill calls are sized, which is
// what makes the action-sequence determinism property of Section 5.2
// testable end to end.
type Stream interface {
	Fill(buf []Op) int
}

// Limited wraps a stream and truncates it after a fixed number of retired
// instructions, mirroring the paper's fixed-length SimPoint slices.
type Limited struct {
	S         Stream
	Remaining uint64
}

// NewLimited returns a stream that yields at most n retired instructions
// from s.
func NewLimited(s Stream, n uint64) *Limited {
	return &Limited{S: s, Remaining: n}
}

// Fill implements Stream.
func (l *Limited) Fill(buf []Op) int {
	if l.Remaining == 0 || len(buf) == 0 {
		return 0
	}
	n := l.S.Fill(buf)
	out := 0
	for i := 0; i < n; i++ {
		op := buf[i]
		in := op.Instructions()
		if in <= l.Remaining {
			buf[out] = op
			out++
			l.Remaining -= in
			continue
		}
		// Truncate the final op to the remaining budget: keep only
		// non-memory instructions (dropping the trailing access keeps the
		// instruction count exact without inventing a partial access).
		op.NonMem = uint32(l.Remaining)
		op.Flags &^= FlagMem | FlagWrite
		if op.NonMem > 0 {
			buf[out] = op
			out++
		}
		l.Remaining = 0
		break
	}
	return out
}

// LimitedPublic truncates a stream after a fixed number of retired PUBLIC
// instructions (ops excluded from progress by their annotations do not
// consume budget). This models "the same program run to completion":
// executions that differ only in secret-dependent extra work retire the
// identical public instruction sequence, which is the input the Untangle
// action-sequence guarantee is stated over.
type LimitedPublic struct {
	S         Stream
	Remaining uint64
}

// NewLimitedPublic returns a stream yielding at most n public retired
// instructions from s.
func NewLimitedPublic(s Stream, n uint64) *LimitedPublic {
	return &LimitedPublic{S: s, Remaining: n}
}

// Fill implements Stream.
func (l *LimitedPublic) Fill(buf []Op) int {
	if l.Remaining == 0 || len(buf) == 0 {
		return 0
	}
	n := l.S.Fill(buf)
	out := 0
	for i := 0; i < n; i++ {
		op := buf[i]
		if op.SecretProgress() {
			buf[out] = op
			out++
			continue
		}
		in := op.Instructions()
		if in <= l.Remaining {
			buf[out] = op
			out++
			l.Remaining -= in
			continue
		}
		op.NonMem = uint32(l.Remaining)
		op.Flags &^= FlagMem | FlagWrite
		if op.NonMem > 0 {
			buf[out] = op
			out++
		}
		l.Remaining = 0
		break
	}
	return out
}

// Concat yields the ops of each stream in turn.
type Concat struct {
	Streams []Stream
	idx     int
}

// Fill implements Stream.
func (c *Concat) Fill(buf []Op) int {
	for c.idx < len(c.Streams) {
		if n := c.Streams[c.idx].Fill(buf); n > 0 {
			return n
		}
		c.idx++
	}
	return 0
}

// Loop alternates fixed-length phases from two streams forever: phase A
// (lenA instructions), then phase B (lenB instructions), repeating. It
// reproduces the paper's workload construction: "repeatedly run in a loop 1M
// instructions from the cryptographic benchmark and then 10M instructions
// from the SPEC17 benchmark", with both benchmarks making forward progress
// (each phase resumes its underlying stream rather than restarting it).
//
// Ops produced by a phase but not consumed before its budget expires are
// buffered and served when the phase resumes, so the emitted instruction
// sequence is independent of how callers size their Fill buffers.
type Loop struct {
	LenA, LenB uint64

	phases [2]loopPhase
	inB    int // 0 while in phase A, 1 in phase B
	budget uint64
}

type loopPhase struct {
	s    Stream
	pend []Op
	off  int
}

func (p *loopPhase) fill(buf []Op) int {
	if p.off < len(p.pend) {
		n := copy(buf, p.pend[p.off:])
		p.off += n
		if p.off == len(p.pend) {
			p.pend = p.pend[:0]
			p.off = 0
		}
		return n
	}
	return p.s.Fill(buf)
}

// stash hands back the unconsumed tail of the batch fill just returned:
// it is served again, in order, before anything the phase has not served
// yet. A batch served out of pend returns to the slots it was copied from;
// a batch read from the stream (which fill reads only once pend is empty)
// becomes pend.
func (p *loopPhase) stash(ops []Op) {
	if len(ops) <= p.off {
		p.off -= len(ops)
		copy(p.pend[p.off:], ops)
		return
	}
	p.pend = append(p.pend[:0], ops...)
	p.off = 0
}

// NewLoop builds the alternating loop, starting in phase A.
func NewLoop(a Stream, lenA uint64, b Stream, lenB uint64) *Loop {
	l := &Loop{LenA: lenA, LenB: lenB, budget: lenA}
	l.phases[0].s = a
	l.phases[1].s = b
	return l
}

// Fill implements Stream. The underlying streams are assumed infinite (the
// workload generators are); if the current phase runs dry, Fill returns 0.
func (l *Loop) Fill(buf []Op) int {
	if len(buf) == 0 {
		return 0
	}
	p := &l.phases[l.inB]
	n := p.fill(buf)
	if n == 0 {
		return 0
	}
	out := 0
	for i := 0; i < n; i++ {
		op := buf[i]
		in := op.Instructions()
		if in <= l.budget {
			buf[out] = op
			out++
			l.budget -= in
			if l.budget == 0 {
				p.stash(buf[i+1 : n])
				l.switchPhase()
				break
			}
			continue
		}
		// Split the op at the budget boundary: emit the prefix of plain
		// instructions now; the remainder (and the access) resumes with
		// the phase, ahead of the ops that followed it.
		keep := op
		keep.NonMem = uint32(l.budget)
		keep.Flags &^= FlagMem | FlagWrite
		buf[i].NonMem = op.NonMem - keep.NonMem
		p.stash(buf[i:n])
		if keep.NonMem > 0 {
			buf[out] = keep
			out++
		}
		l.switchPhase()
		break
	}
	return out
}

func (l *Loop) switchPhase() {
	l.inB = 1 - l.inB
	if l.inB == 0 {
		l.budget = l.LenA
	} else {
		l.budget = l.LenB
	}
}
