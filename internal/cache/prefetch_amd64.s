#include "textflag.h"

// func prefetchSets(addrs []uintptr)
TEXT ·prefetchSets(SB), NOSPLIT, $0-24
	MOVQ addrs_base+0(FP), SI
	MOVQ addrs_len+8(FP), CX
	TESTQ CX, CX
	JEQ done
loop:
	MOVQ (SI), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	ADDQ $8, SI
	DECQ CX
	JNE loop
done:
	RET

// func prefetchLines(addrs []uintptr)
TEXT ·prefetchLines(SB), NOSPLIT, $0-24
	MOVQ addrs_base+0(FP), SI
	MOVQ addrs_len+8(FP), CX
	TESTQ CX, CX
	JEQ ldone
lloop:
	MOVQ (SI), AX
	PREFETCHT0 (AX)
	ADDQ $8, SI
	DECQ CX
	JNE lloop
ldone:
	RET
