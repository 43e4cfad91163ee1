//go:build !race

#include "textflag.h"

// The AVX2 bodies of the row primitives (rows.go has the Go bodies). Each
// processes len(first row) values, a multiple of 4, four per iteration
// (the moment pass eight), with AX the index and CX the length. Every lane does its Go body's IEEE
// operations in the Go body's association — only the operand order of
// the commutative adds and multiplies may differ — and no multiply-add
// is fused. All loads of an iteration precede its stores, so an output
// row may be the input row it replaces. The moment pass's prefetching
// twin (momentsx4pf) adds PREFETCHT0 hints into the next span's rows,
// which load nothing into a register, so its stores carry the same bits.

DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JCS  no                  // no leaf 7
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX     // OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX              // XCR0: SSE and YMM state saved by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX              // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// func sfence()
TEXT ·sfence(SB), NOSPLIT, $0-0
	SFENCE
	RET

// The moment pass over every pair of a run (rows.go: momentRows). Per
// block of 8 cells — AX the first of its low half, R12 of its high half —
// ρ, jx, jy and jz start as +0 in Y0–Y7, each table entry adds its pair's
// sum to ρ and c_a·(vi − vj) to j_a for each axis bit a of its mask (the
// rest velocity, mask 0, adds its one row to ρ), and the four rows are
// stored once. Where 4 cells are left, one step runs both halves on them.
// SI walks the table (momPair: i 0, j 8, mask 16, c 24–40) up to R13; DX
// and BX hold in[j]'s and in[i]'s bases, then BX the mask.
//
// The body is one macro, MOMENTS, expanded twice: momentsx4 without
// prefetches and momentsx4pf with them. momentsx4pf takes the table ahead
// (in R14), per velocity the address of the cells its row is read from
// one span further on, and once an entry's rows are loaded it adds one
// PREFETCHT0 per row at ahead[v] + 8·AX: one line per row per block, so
// a span prefetches the lines of the next span's sources while its own
// arithmetic runs. A prefetch changes no value and never faults, wherever
// its address points.

// ROWBASE loads the base of the row in[FIELD(SI)] into R.
#define ROWBASE(FIELD, R) \
	MOVQ FIELD(SI), R \
	LEAQ (R)(R*2), R \
	MOVQ (R11)(R*8), R

// MOMAHEAD prefetches the line of block AX at ahead[FIELD(SI)], through
// R; MOMNOAHEAD is the body without prefetches.
#define MOMAHEAD(FIELD, R) \
	MOVQ FIELD(SI), R \
	MOVQ (R14)(R*8), R \
	PREFETCHT0 (R)(AX*8)

#define MOMNOAHEAD(FIELD, R)

// MOMAXIS adds c_a·d (d in Y12, Y13) to the accumulators L, H where bit B
// of the mask is set; OFF is c_a's offset in the entry.
#define MOMAXIS(B, OFF, L, H, SKIP) \
	BTQ  $B, BX \
	JCC  SKIP \
	VBROADCASTSD OFF(SI), Y14 \
	VMULPD Y14, Y12, Y15 \
	VADDPD Y15, L, L \
	VMULPD Y14, Y13, Y14 \
	VADDPD Y14, H, H \
SKIP:

// MOMENTS is the pass over the rows set up by the prologue: rho, jx, jy,
// jz in DI, R8, R9, R10, the run's length in CX, in's headers in R11, the
// table in R15 and its end in R13. AHEAD is MOMAHEAD or MOMNOAHEAD.
#define MOMENTS(AHEAD) \
	XORQ AX, AX \
	TESTQ CX, CX \
	JEQ  momdone \
momblock: \
	LEAQ 4(AX), R12 \
	LEAQ 8(AX), BX \
	CMPQ BX, CX \
	JLE  momzero \
	MOVQ AX, R12                /* 4 cells left */ \
momzero: \
	VXORPD Y0, Y0, Y0           /* ρ */ \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2           /* jx */ \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4           /* jy */ \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6           /* jz */ \
	VXORPD Y7, Y7, Y7 \
	MOVQ R15, SI \
	JMP  momtest \
mompair: \
	ROWBASE(8, DX) \
	CMPQ 16(SI), $0 \
	JNE  mommove \
	VADDPD (DX)(AX*8), Y0, Y0   /* the rest velocity: ρ + s */ \
	VADDPD (DX)(R12*8), Y1, Y1 \
	AHEAD(8, DX) \
	JMP  momnext \
mommove: \
	ROWBASE(0, BX) \
	VMOVUPD (BX)(AX*8), Y8      /* vi */ \
	VMOVUPD (BX)(R12*8), Y9 \
	VMOVUPD (DX)(AX*8), Y10     /* vj */ \
	VMOVUPD (DX)(R12*8), Y11 \
	AHEAD(0, BX) \
	AHEAD(8, DX) \
	MOVQ 16(SI), BX \
	VSUBPD  Y10, Y8, Y12        /* d = vi − vj */ \
	VSUBPD  Y11, Y9, Y13 \
	VADDPD  Y10, Y8, Y8         /* vi + vj */ \
	VADDPD  Y11, Y9, Y9 \
	VADDPD  Y8, Y0, Y0          /* ρ + (vi + vj) */ \
	VADDPD  Y9, Y1, Y1 \
	MOMAXIS(0, 24, Y2, Y3, momnox) \
	MOMAXIS(1, 32, Y4, Y5, momnoy) \
	MOMAXIS(2, 40, Y6, Y7, momnoz) \
momnext: \
	ADDQ $48, SI \
momtest: \
	CMPQ SI, R13 \
	JLT  mompair \
	VMOVUPD Y0, (DI)(AX*8) \
	VMOVUPD Y1, (DI)(R12*8) \
	VMOVUPD Y2, (R8)(AX*8) \
	VMOVUPD Y3, (R8)(R12*8) \
	VMOVUPD Y4, (R9)(AX*8) \
	VMOVUPD Y5, (R9)(R12*8) \
	VMOVUPD Y6, (R10)(AX*8) \
	VMOVUPD Y7, (R10)(R12*8) \
	LEAQ 4(R12), AX \
	CMPQ AX, CX \
	JLT  momblock \
	VZEROUPPER \
momdone: \
	RET

// func momentsx4(rho, jx, jy, jz []float64, in [][]float64, tab []momPair)
TEXT ·momentsx4(SB), NOSPLIT, $0-144
	MOVQ rho_base+0(FP), DI
	MOVQ rho_len+8(FP), CX
	MOVQ jx_base+24(FP), R8
	MOVQ jy_base+48(FP), R9
	MOVQ jz_base+72(FP), R10
	MOVQ in_base+96(FP), R11
	MOVQ tab_base+120(FP), R15
	MOVQ tab_len+128(FP), R13
	IMULQ $48, R13
	ADDQ R15, R13
	MOMENTS(MOMNOAHEAD)

// func momentsx4pf(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr)
TEXT ·momentsx4pf(SB), NOSPLIT, $0-168
	MOVQ rho_base+0(FP), DI
	MOVQ rho_len+8(FP), CX
	MOVQ jx_base+24(FP), R8
	MOVQ jy_base+48(FP), R9
	MOVQ jz_base+72(FP), R10
	MOVQ in_base+96(FP), R11
	MOVQ tab_base+120(FP), R15
	MOVQ tab_len+128(FP), R13
	IMULQ $48, R13
	ADDQ R15, R13
	MOVQ ahead_base+144(FP), R14
	MOMENTS(MOMAHEAD)

// func velocityx4(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64)
TEXT ·velocityx4(SB), NOSPLIT, $0-160
	MOVQ rho_base+0(FP), DI
	MOVQ rho_len+8(FP), CX
	MOVQ qx_base+24(FP), SI
	MOVQ qy_base+48(FP), DX
	MOVQ qz_base+72(FP), R8
	MOVQ base_base+96(FP), R9
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  veldone
	VBROADCASTSD sx+120(FP), Y10
	VBROADCASTSD sy+128(FP), Y11
	VBROADCASTSD sz+136(FP), Y12
	VBROADCASTSD invCs2+144(FP), Y13
	VBROADCASTSD invCs2h+152(FP), Y14
	VBROADCASTSD one<>(SB), Y15
velloop:
	VMOVUPD (DI)(AX*8), Y0
	VDIVPD  Y0, Y15, Y0        // inv = 1/ρ
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  Y10, Y1, Y1        // ux = qx·inv + sx
	VMULPD  (DX)(AX*8), Y0, Y2
	VADDPD  Y11, Y2, Y2        // uy
	VMULPD  (R8)(AX*8), Y0, Y3
	VADDPD  Y12, Y3, Y3        // uz
	VMULPD  Y1, Y1, Y4
	VMULPD  Y2, Y2, Y5
	VADDPD  Y5, Y4, Y4         // ux² + uy²
	VMULPD  Y3, Y3, Y5
	VADDPD  Y5, Y4, Y4         // (ux² + uy²) + uz²
	VMULPD  Y14, Y4, Y4
	VSUBPD  Y4, Y15, Y4        // base = 1 − u²·invCs2h
	VMULPD  Y13, Y1, Y1
	VMULPD  Y13, Y2, Y2
	VMULPD  Y13, Y3, Y3
	VMOVUPD Y4, (R9)(AX*8)
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y2, (DX)(AX*8)
	VMOVUPD Y3, (R8)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  velloop
	VZEROUPPER
veldone:
	RET

// func scalex4(dst, src []float64, a float64)
TEXT ·scalex4(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  scaledone
	VBROADCASTSD a+48(FP), Y13
scaleloop:
	VMULPD  (SI)(AX*8), Y13, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  scaleloop
	VZEROUPPER
scaledone:
	RET

// func comb2x4(q, qa, qb []float64, ca, cb float64)
TEXT ·comb2x4(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	MOVQ qa_base+24(FP), SI
	MOVQ qb_base+48(FP), DX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  c2done
	VBROADCASTSD ca+72(FP), Y13
	VBROADCASTSD cb+80(FP), Y14
c2loop:
	VMULPD  (SI)(AX*8), Y13, Y0
	VMULPD  (DX)(AX*8), Y14, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  c2loop
	VZEROUPPER
c2done:
	RET

// func comb3x4(q, qa, qb, qc []float64, ca, cb, cc float64)
TEXT ·comb3x4(SB), NOSPLIT, $0-120
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	MOVQ qa_base+24(FP), SI
	MOVQ qb_base+48(FP), DX
	MOVQ qc_base+72(FP), R8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  c3done
	VBROADCASTSD ca+96(FP), Y13
	VBROADCASTSD cb+104(FP), Y14
	VBROADCASTSD cc+112(FP), Y15
c3loop:
	VMULPD  (SI)(AX*8), Y13, Y0
	VMULPD  (DX)(AX*8), Y14, Y1
	VADDPD  Y1, Y0, Y0         // ca·qa + cb·qb
	VMULPD  (R8)(AX*8), Y15, Y2
	VADDPD  Y2, Y0, Y0         // (…) + cc·qc
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  c3loop
	VZEROUPPER
c3done:
	RET

// The relax primitives write the next field, which the step does not read
// again before the fields swap. Each has two bodies: x4, which stores with
// VMOVUPD, and x4nt, which stores with VMOVNTPD — a streaming store that
// skips the read of each destination line the CPU would otherwise make
// before overwriting it. Streaming stores are weakly ordered: the row
// kernel that calls x4nt bodies ends with one sfence (above), so that every
// streamed line is globally visible before the kernel returns, and so
// before the step's barrier publishes the field. VMOVNTPD faults unless
// its address is 32-byte aligned: the wrappers (rows_amd64.go) call an nt
// body only on rows that are. A loop is one macro, parametrised by the
// store instruction, so the twins' arithmetic is written once.

#define RELAX0(ST) \
r0loop: \
	VMULPD  (SI)(AX*8), Y13, Y0 /* (1−ω)·s */ \
	VMOVUPD (DX)(AX*8), Y1 \
	VMULPD  (R8)(AX*8), Y1, Y1  /* t·base */ \
	VADDPD  Y1, Y0, Y0 \
	ST      Y0, (DI)(AX*8) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  r0loop

// func relax0x4(d, s, t, base []float64, omc float64)
TEXT ·relax0x4(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ t_base+48(FP), DX
	MOVQ base_base+72(FP), R8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  r0done
	VBROADCASTSD omc+96(FP), Y13
	RELAX0(VMOVUPD)
	VZEROUPPER
r0done:
	RET

// func relax0x4nt(d, s, t, base []float64, omc float64)
TEXT ·relax0x4nt(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ t_base+48(FP), DX
	MOVQ base_base+72(FP), R8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  r0done
	VBROADCASTSD omc+96(FP), Y13
	RELAX0(VMOVNTPD)
	VZEROUPPER
r0done:
	RET

#define RELAX2(ST) \
r2loop: \
	VMOVUPD (R11)(AX*8), Y0     /* q = odd */ \
	VMULPD  Y0, Y0, Y1          /* q² */ \
	VMULPD  Y14, Y1, Y1         /* q²·½ */ \
	VADDPD  (R10)(AX*8), Y1, Y1 /* even = base + q²·½ */ \
	VMOVUPD (R9)(AX*8), Y2      /* t */ \
	VADDPD  Y0, Y1, Y3          /* even + odd */ \
	VSUBPD  Y0, Y1, Y4          /* even − odd */ \
	VMULPD  Y2, Y3, Y3 \
	VMULPD  Y2, Y4, Y4 \
	VMULPD  (SI)(AX*8), Y13, Y5 /* (1−ω)·si */ \
	VMULPD  (DX)(AX*8), Y13, Y6 /* (1−ω)·sj */ \
	VADDPD  Y3, Y5, Y5 \
	VADDPD  Y4, Y6, Y6 \
	ST      Y5, (DI)(AX*8) \
	ST      Y6, (R8)(AX*8) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  r2loop

// func relax2x4(di, dj, si, sj, t, base, q []float64, omc, half float64)
TEXT ·relax2x4(SB), NOSPLIT, $0-184
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  r2done
	VBROADCASTSD omc+168(FP), Y13
	VBROADCASTSD half+176(FP), Y14
	RELAX2(VMOVUPD)
	VZEROUPPER
r2done:
	RET

// func relax2x4nt(di, dj, si, sj, t, base, q []float64, omc, half float64)
TEXT ·relax2x4nt(SB), NOSPLIT, $0-184
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  r2done
	VBROADCASTSD omc+168(FP), Y13
	VBROADCASTSD half+176(FP), Y14
	RELAX2(VMOVNTPD)
	VZEROUPPER
r2done:
	RET

#define RELAX3(ST) \
r3loop: \
	VMOVUPD (R11)(AX*8), Y0     /* q */ \
	VMOVUPD (R10)(AX*8), Y7     /* base */ \
	VMULPD  Y0, Y0, Y1          /* q² */ \
	VMULPD  Y15, Y1, Y8         /* q²·⅙ */ \
	VADDPD  Y8, Y7, Y8          /* base + q²·⅙ */ \
	VMULPD  Y8, Y0, Y8          /* odd = q·(base + q²·⅙) */ \
	VMULPD  Y14, Y1, Y1 \
	VADDPD  Y1, Y7, Y1          /* even = base + q²·½ */ \
	VMOVUPD (R9)(AX*8), Y2      /* t */ \
	VADDPD  Y8, Y1, Y3          /* even + odd */ \
	VSUBPD  Y8, Y1, Y4          /* even − odd */ \
	VMULPD  Y2, Y3, Y3 \
	VMULPD  Y2, Y4, Y4 \
	VMULPD  (SI)(AX*8), Y13, Y5 \
	VMULPD  (DX)(AX*8), Y13, Y6 \
	VADDPD  Y3, Y5, Y5 \
	VADDPD  Y4, Y6, Y6 \
	ST      Y5, (DI)(AX*8) \
	ST      Y6, (R8)(AX*8) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  r3loop

// func relax3x4(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
TEXT ·relax3x4(SB), NOSPLIT, $0-192
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  r3done
	VBROADCASTSD omc+168(FP), Y13
	VBROADCASTSD half+176(FP), Y14
	VBROADCASTSD sixth+184(FP), Y15
	RELAX3(VMOVUPD)
	VZEROUPPER
r3done:
	RET

// func relax3x4nt(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
TEXT ·relax3x4nt(SB), NOSPLIT, $0-192
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  r3done
	VBROADCASTSD omc+168(FP), Y13
	VBROADCASTSD half+176(FP), Y14
	VBROADCASTSD sixth+184(FP), Y15
	RELAX3(VMOVNTPD)
	VZEROUPPER
r3done:
	RET

// func eq0x4(f, t, base []float64)
TEXT ·eq0x4(SB), NOSPLIT, $0-72
	MOVQ f_base+0(FP), DI
	MOVQ f_len+8(FP), CX
	MOVQ t_base+24(FP), SI
	MOVQ base_base+48(FP), DX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  e0done
e0loop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  e0loop
	VZEROUPPER
e0done:
	RET

// func eq2x4(fi, fj, t, base, q []float64, half float64)
TEXT ·eq2x4(SB), NOSPLIT, $0-128
	MOVQ fi_base+0(FP), DI
	MOVQ fi_len+8(FP), CX
	MOVQ fj_base+24(FP), R8
	MOVQ t_base+48(FP), R9
	MOVQ base_base+72(FP), R10
	MOVQ q_base+96(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  e2done
	VBROADCASTSD half+120(FP), Y14
e2loop:
	VMOVUPD (R11)(AX*8), Y0
	VMULPD  Y0, Y0, Y1
	VMULPD  Y14, Y1, Y1
	VADDPD  (R10)(AX*8), Y1, Y1 // even
	VMOVUPD (R9)(AX*8), Y2
	VADDPD  Y0, Y1, Y3
	VSUBPD  Y0, Y1, Y4
	VMULPD  Y2, Y3, Y3
	VMULPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, (R8)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  e2loop
	VZEROUPPER
e2done:
	RET

// func eq3x4(fi, fj, t, base, q []float64, half, sixth float64)
TEXT ·eq3x4(SB), NOSPLIT, $0-136
	MOVQ fi_base+0(FP), DI
	MOVQ fi_len+8(FP), CX
	MOVQ fj_base+24(FP), R8
	MOVQ t_base+48(FP), R9
	MOVQ base_base+72(FP), R10
	MOVQ q_base+96(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  e3done
	VBROADCASTSD half+120(FP), Y14
	VBROADCASTSD sixth+128(FP), Y15
e3loop:
	VMOVUPD (R11)(AX*8), Y0
	VMOVUPD (R10)(AX*8), Y7
	VMULPD  Y0, Y0, Y1
	VMULPD  Y15, Y1, Y8
	VADDPD  Y8, Y7, Y8
	VMULPD  Y8, Y0, Y8          // odd
	VMULPD  Y14, Y1, Y1
	VADDPD  Y1, Y7, Y1          // even
	VMOVUPD (R9)(AX*8), Y2
	VADDPD  Y8, Y1, Y3
	VSUBPD  Y8, Y1, Y4
	VMULPD  Y2, Y3, Y3
	VMULPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, (R8)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  e3loop
	VZEROUPPER
e3done:
	RET

// The TRT relax primitives write the next field too: the same two bodies
// each as the relax primitives above.

#define TRT0(ST) \
t0loop: \
	VMOVUPD (SI)(AX*8), Y0     /* v */ \
	VMOVUPD (DX)(AX*8), Y1 \
	VMULPD  (R8)(AX*8), Y1, Y1 /* e = t·base */ \
	VSUBPD  Y1, Y0, Y1         /* v − e */ \
	VMULPD  Y14, Y1, Y1        /* ω⁺·(v − e) */ \
	VSUBPD  Y1, Y0, Y0 \
	ST      Y0, (DI)(AX*8) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  t0loop

// func trt0x4(d, s, t, base []float64, wp float64)
TEXT ·trt0x4(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ t_base+48(FP), DX
	MOVQ base_base+72(FP), R8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  t0done
	VBROADCASTSD wp+96(FP), Y14
	TRT0(VMOVUPD)
	VZEROUPPER
t0done:
	RET

// func trt0x4nt(d, s, t, base []float64, wp float64)
TEXT ·trt0x4nt(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ t_base+48(FP), DX
	MOVQ base_base+72(FP), R8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  t0done
	VBROADCASTSD wp+96(FP), Y14
	TRT0(VMOVNTPD)
	VZEROUPPER
t0done:
	RET

// TRTPAIR is the pair arithmetic trt2 and trt3 share once the equilibria
// ei, ej are in Y3, Y4 (half in Y12, wp in Y14, wm in Y15).
#define TRTPAIR(ST) \
	VMOVUPD (SI)(AX*8), Y5      /* vi */ \
	VMOVUPD (DX)(AX*8), Y6      /* vj */ \
	VADDPD  Y6, Y5, Y7          /* vi + vj */ \
	VADDPD  Y4, Y3, Y8          /* ei + ej */ \
	VSUBPD  Y8, Y7, Y7 \
	VMULPD  Y12, Y7, Y7 \
	VMULPD  Y14, Y7, Y7         /* dP = ω⁺·(½·((vi + vj) − (ei + ej))) */ \
	VSUBPD  Y6, Y5, Y8          /* vi − vj */ \
	VSUBPD  Y4, Y3, Y9          /* ei − ej */ \
	VSUBPD  Y9, Y8, Y8 \
	VMULPD  Y12, Y8, Y8 \
	VMULPD  Y15, Y8, Y8         /* dM = ω⁻·(½·((vi − vj) − (ei − ej))) */ \
	VADDPD  Y8, Y7, Y9          /* dP + dM */ \
	VSUBPD  Y8, Y7, Y10         /* dP − dM */ \
	VSUBPD  Y9, Y5, Y5          /* vi − (dP + dM) */ \
	VSUBPD  Y10, Y6, Y6         /* vj − (dP − dM) */ \
	ST      Y5, (DI)(AX*8) \
	ST      Y6, (R8)(AX*8)

#define TRT2(ST) \
t2loop: \
	VMOVUPD (R11)(AX*8), Y0     /* q = odd */ \
	VMULPD  Y0, Y0, Y1          /* q² */ \
	VMULPD  Y12, Y1, Y1         /* q²·½ */ \
	VADDPD  (R10)(AX*8), Y1, Y1 /* even = base + q²·½ */ \
	VMOVUPD (R9)(AX*8), Y2      /* t */ \
	VADDPD  Y0, Y1, Y3          /* even + odd */ \
	VSUBPD  Y0, Y1, Y4          /* even − odd */ \
	VMULPD  Y2, Y3, Y3          /* ei */ \
	VMULPD  Y2, Y4, Y4          /* ej */ \
	TRTPAIR(ST) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  t2loop

// func trt2x4(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
TEXT ·trt2x4(SB), NOSPLIT, $0-192
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  t2done
	VBROADCASTSD half+168(FP), Y12
	VBROADCASTSD wp+176(FP), Y14
	VBROADCASTSD wm+184(FP), Y15
	TRT2(VMOVUPD)
	VZEROUPPER
t2done:
	RET

// func trt2x4nt(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
TEXT ·trt2x4nt(SB), NOSPLIT, $0-192
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  t2done
	VBROADCASTSD half+168(FP), Y12
	VBROADCASTSD wp+176(FP), Y14
	VBROADCASTSD wm+184(FP), Y15
	TRT2(VMOVNTPD)
	VZEROUPPER
t2done:
	RET

#define TRT3(ST) \
t3loop: \
	VMOVUPD (R11)(AX*8), Y0     /* q */ \
	VMOVUPD (R10)(AX*8), Y9     /* base */ \
	VMULPD  Y0, Y0, Y1          /* q² */ \
	VMULPD  Y13, Y1, Y8         /* q²·⅙ */ \
	VADDPD  Y8, Y9, Y8          /* base + q²·⅙ */ \
	VMULPD  Y8, Y0, Y8          /* odd = q·(base + q²·⅙) */ \
	VMULPD  Y12, Y1, Y1 \
	VADDPD  Y1, Y9, Y1          /* even = base + q²·½ */ \
	VMOVUPD (R9)(AX*8), Y2      /* t */ \
	VADDPD  Y8, Y1, Y3          /* even + odd */ \
	VSUBPD  Y8, Y1, Y4          /* even − odd */ \
	VMULPD  Y2, Y3, Y3          /* ei */ \
	VMULPD  Y2, Y4, Y4          /* ej */ \
	TRTPAIR(ST) \
	ADDQ $4, AX \
	CMPQ AX, CX \
	JLT  t3loop

// func trt3x4(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
TEXT ·trt3x4(SB), NOSPLIT, $0-200
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  t3done
	VBROADCASTSD half+168(FP), Y12
	VBROADCASTSD sixth+176(FP), Y13
	VBROADCASTSD wp+184(FP), Y14
	VBROADCASTSD wm+192(FP), Y15
	TRT3(VMOVUPD)
	VZEROUPPER
t3done:
	RET

// func trt3x4nt(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
TEXT ·trt3x4nt(SB), NOSPLIT, $0-200
	MOVQ di_base+0(FP), DI
	MOVQ di_len+8(FP), CX
	MOVQ dj_base+24(FP), R8
	MOVQ si_base+48(FP), SI
	MOVQ sj_base+72(FP), DX
	MOVQ t_base+96(FP), R9
	MOVQ base_base+120(FP), R10
	MOVQ q_base+144(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  t3done
	VBROADCASTSD half+168(FP), Y12
	VBROADCASTSD sixth+176(FP), Y13
	VBROADCASTSD wp+184(FP), Y14
	VBROADCASTSD wm+192(FP), Y15
	TRT3(VMOVNTPD)
	VZEROUPPER
t3done:
	RET
