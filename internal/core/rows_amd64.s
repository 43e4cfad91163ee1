//go:build !race

#include "textflag.h"

// The vector bodies of the row primitives (rows.go has the Go bodies), one
// table per vector width: x4, four lanes in YMM registers (AVX2), and x8,
// eight lanes in ZMM registers (AVX-512F). Each body is written once, in
// rows_body_amd64.h, over the register names V0–V15 and the lane count
// LANES, and this file includes it twice under the names of each width.
// The two widths differ only where a body's shape does, in three macros:
// VZERO (VXORPD on YMM; on ZMM that is AVX512DQ, so VPXORQ), MOMLEFT and
// MOMLINES (the moment pass's last block and its prefetches, below). Every
// lane does its Go body's IEEE operations in the same association and
// nothing is fused, so both tables store the Go bodies' bits.

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func sfence()
TEXT ·sfence(SB), NOSPLIT, $0-0
	SFENCE
	RET

// Four lanes. The moment pass's blocks are 8 cells, two 4-cell halves, and
// its run a multiple of 4: where 4 are left, one step runs both halves on
// them (R12 = AX). A block is one 64-byte line of each row, one prefetch.
#define LANES 4
#define BLOCK 8
#define SYM(a, b) a
#define VZERO(R) VXORPD R, R, R
#define MOMLEFT MOVQ AX, R12
#define MOMLINES(R) PREFETCHT0 (R)(AX*8)
#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define V12 Y12
#define V13 Y13
#define V14 Y14
#define V15 Y15
#include "rows_body_amd64.h"
#undef LANES
#undef BLOCK
#undef SYM
#undef VZERO
#undef MOMLEFT
#undef MOMLINES
#undef V0
#undef V1
#undef V2
#undef V3
#undef V4
#undef V5
#undef V6
#undef V7
#undef V8
#undef V9
#undef V10
#undef V11
#undef V12
#undef V13
#undef V14
#undef V15

// Eight lanes. The moment pass's blocks are 16 cells, two 8-cell halves,
// and its run any length of at least 8: where fewer than 16 are left, the
// high half ends the run (R12 = CX − 8) and, where fewer than 8 are, the
// low half starts there too (AX = R12). The halves then overlap cells
// already summed, which they store again with the same bits — ρ and j are
// no input of the pass. A block is two 64-byte lines of each row, two
// prefetches.
#define LANES 8
#define BLOCK 16
#define SYM(a, b) b
#define VZERO(R) VPXORQ R, R, R
#define MOMLEFT \
	LEAQ -8(CX), R12 \
	CMPQ AX, R12 \
	JLE  momzero \
	MOVQ R12, AX
#define MOMLINES(R) \
	PREFETCHT0 (R)(AX*8) \
	PREFETCHT0 (R)(R12*8)
#define V0 Z0
#define V1 Z1
#define V2 Z2
#define V3 Z3
#define V4 Z4
#define V5 Z5
#define V6 Z6
#define V7 Z7
#define V8 Z8
#define V9 Z9
#define V10 Z10
#define V11 Z11
#define V12 Z12
#define V13 Z13
#define V14 Z14
#define V15 Z15
#include "rows_body_amd64.h"
