// Package untangle is a from-scratch Go reproduction of "Untangle: A
// Principled Framework to Design Low-Leakage, High-Performance Dynamic
// Partitioning Schemes" (Zhao, Morrison, Fletcher, Torrellas — ASPLOS 2023).
//
// The library is organized under internal/:
//
//	info        entropy and mutual information (Section 2.2)
//	covert      the covert-channel model and R'max computation (Section 5.3, Appendix A)
//	core        the Untangle framework: leakage decomposition and runtime accounting (Sections 5, 7)
//	isa         retired-instruction streams and annotations (Section 5.2)
//	workload    synthetic SPEC17-like and crypto benchmarks, the 16 mixes (Section 8, Table 5)
//	cache       set-associative caches and set-partitioned LLC resizing
//	monitor     the timing-independent UMON-style utilization metric (Section 7)
//	cpu         the cycle-accounting core timing model (Table 3)
//	partition   schemes and the hit-maximizing allocator (Tables 1, 2, 4)
//	sim         the multicore simulation driver
//	attacker    passive, active, replay, and covert-channel adversaries (Sections 4, 6.2, 9)
//	experiments the evaluation harness for every table and figure (Section 9, Appendix B)
//	report      paper-layout renderers
//	stats       geomean and quartile helpers
//
// Executables live under cmd/ (untangle-sim, sensitivity, rmax,
// experiments); runnable examples under examples/. cmd/experiments prints
// every table and figure of the evaluation at any -scale, and perfbench/
// times its campaigns end to end; see DESIGN.md for the experiment index
// and EXPERIMENTS.md for paper-versus-measured results.
package untangle
