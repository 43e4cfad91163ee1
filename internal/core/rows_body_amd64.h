// The row primitives' bodies, written once for every vector width.
// rows_amd64.s includes this file once per width, after defining:
//
//	LANES       the lanes of a vector (4 or 8), the step of a loop
//	BLOCK       2·LANES, the cells of a moment-pass block
//	V0–V15      the vector registers (Y or Z)
//	SYM(a, b)   the symbol of a body: a at 4 lanes, b at 8
//	VZERO(R)    R = +0 in every lane
//	MOMLEFT     the moment pass's last block where fewer than BLOCK cells
//	            are left (rows_amd64.s says what each width does)
//	MOMLINES(R) one PREFETCHT0 per 64-byte line of a block, at R + 8·AX
//
// Each body processes len(first row) values, a multiple of LANES (the moment
// pass: see MOMLEFT), LANES per iteration, with AX the index and CX the
// length. Every lane does its Go body's IEEE operations in the Go body's
// association — only the operand order of the commutative adds and
// multiplies may differ — and no multiply-add is fused. All loads of an
// iteration precede its stores, so an output row may be the input row it
// replaces. The file undefines its own macros at its end, so that the next
// inclusion defines them again.

// The moment pass over every pair of a run (rows.go: momentRows). Per
// block of BLOCK cells — AX the first of its low half, R12 of its high half
// — ρ, jx, jy and jz start as +0 in V0–V7, each table entry adds its pair's
// sum to ρ and c_a·(vi − vj) to j_a for each axis bit a of its mask (the
// rest velocity, mask 0, adds its one row to ρ), and the four rows are
// stored once. Where fewer than BLOCK cells are left, MOMLEFT places the
// halves. SI walks the table (momPair: i 0, j 8, mask 16, c 24–40) up to
// R13; DX and BX hold in[j]'s and in[i]'s bases, then BX the mask.
//
// The body is one macro, MOMENTS, expanded twice: without prefetches and,
// in the pf twin, with them. The twin takes the table ahead (in R14), per
// velocity the address of the cells its row is read from one span further
// on, and once an entry's rows are loaded it adds MOMLINES at ahead[v]:
// one PREFETCHT0 per row per 64-byte line of the block, so a span
// prefetches the lines of the next span's sources while its own arithmetic
// runs. A prefetch changes no value and never faults, wherever its address
// points.

// ROWBASE loads the base of the row in[FIELD(SI)] into R.
#define ROWBASE(FIELD, R) \
	MOVQ FIELD(SI), R \
	LEAQ (R)(R*2), R \
	MOVQ (R11)(R*8), R

// MOMAHEAD prefetches the lines of block AX at ahead[FIELD(SI)], through
// R; MOMNOAHEAD is the body without prefetches.
#define MOMAHEAD(FIELD, R) \
	MOVQ FIELD(SI), R \
	MOVQ (R14)(R*8), R \
	MOMLINES(R)

#define MOMNOAHEAD(FIELD, R)

// MOMAXIS adds c_a·d (d in V12, V13) to the accumulators L, H where bit B
// of the mask is set; OFF is c_a's offset in the entry.
#define MOMAXIS(B, OFF, L, H, SKIP) \
	BTQ  $B, BX \
	JCC  SKIP \
	VBROADCASTSD OFF(SI), V14 \
	VMULPD V14, V12, V15 \
	VADDPD V15, L, L \
	VMULPD V14, V13, V14 \
	VADDPD V14, H, H \
SKIP:

// MOMENTS is the pass over the rows set up by the prologue: rho, jx, jy,
// jz in DI, R8, R9, R10, the run's length in CX, in's headers in R11, the
// table in R15 and its end in R13. AHEAD is MOMAHEAD or MOMNOAHEAD.
#define MOMENTS(AHEAD) \
	XORQ AX, AX \
	TESTQ CX, CX \
	JEQ  momdone \
momblock: \
	LEAQ LANES(AX), R12 \
	LEAQ BLOCK(AX), BX \
	CMPQ BX, CX \
	JLE  momzero \
	MOMLEFT \
momzero: \
	VZERO(V0)                   /* ρ */ \
	VZERO(V1) \
	VZERO(V2)                   /* jx */ \
	VZERO(V3) \
	VZERO(V4)                   /* jy */ \
	VZERO(V5) \
	VZERO(V6)                   /* jz */ \
	VZERO(V7) \
	MOVQ R15, SI \
	JMP  momtest \
mompair: \
	ROWBASE(8, DX) \
	CMPQ 16(SI), $0 \
	JNE  mommove \
	VADDPD (DX)(AX*8), V0, V0   /* the rest velocity: ρ + s */ \
	VADDPD (DX)(R12*8), V1, V1 \
	AHEAD(8, DX) \
	JMP  momnext \
mommove: \
	ROWBASE(0, BX) \
	VMOVUPD (BX)(AX*8), V8      /* vi */ \
	VMOVUPD (BX)(R12*8), V9 \
	VMOVUPD (DX)(AX*8), V10     /* vj */ \
	VMOVUPD (DX)(R12*8), V11 \
	AHEAD(0, BX) \
	AHEAD(8, DX) \
	MOVQ 16(SI), BX \
	VSUBPD  V10, V8, V12        /* d = vi − vj */ \
	VSUBPD  V11, V9, V13 \
	VADDPD  V10, V8, V8         /* vi + vj */ \
	VADDPD  V11, V9, V9 \
	VADDPD  V8, V0, V0          /* ρ + (vi + vj) */ \
	VADDPD  V9, V1, V1 \
	MOMAXIS(0, 24, V2, V3, momnox) \
	MOMAXIS(1, 32, V4, V5, momnoy) \
	MOMAXIS(2, 40, V6, V7, momnoz) \
momnext: \
	ADDQ $48, SI \
momtest: \
	CMPQ SI, R13 \
	JLT  mompair \
	VMOVUPD V0, (DI)(AX*8) \
	VMOVUPD V1, (DI)(R12*8) \
	VMOVUPD V2, (R8)(AX*8) \
	VMOVUPD V3, (R8)(R12*8) \
	VMOVUPD V4, (R9)(AX*8) \
	VMOVUPD V5, (R9)(R12*8) \
	VMOVUPD V6, (R10)(AX*8) \
	VMOVUPD V7, (R10)(R12*8) \
	LEAQ LANES(R12), AX \
	CMPQ AX, CX \
	JLT  momblock \
	VZEROUPPER \
momdone: \
	RET

// MOMARGS loads the moment pass's frame as MOMENTS reads it.
#define MOMARGS \
	MOVQ rho_base+0(FP), DI \
	MOVQ rho_len+8(FP), CX \
	MOVQ jx_base+24(FP), R8 \
	MOVQ jy_base+48(FP), R9 \
	MOVQ jz_base+72(FP), R10 \
	MOVQ in_base+96(FP), R11 \
	MOVQ tab_base+120(FP), R15 \
	MOVQ tab_len+128(FP), R13 \
	IMULQ $48, R13 \
	ADDQ R15, R13

// The relax primitives write the next field, which the step does not read
// again before the fields swap. Each has two bodies: the plain one, which
// stores with VMOVUPD, and the nt one, which stores with VMOVNTPD — a
// streaming store that skips the read of each destination line the CPU
// would otherwise make before overwriting it. Streaming stores are weakly
// ordered: the row kernel that calls nt bodies ends with one sfence, so
// that every streamed line is globally visible before the kernel returns,
// and so before the step's barrier publishes the field. VMOVNTPD faults
// unless its address is aligned to the vector (32 bytes at 4 lanes, 64 at
// 8): the wrappers (rows_amd64.go) call an nt body only on rows that are.
// A body is one macro, parametrised by the store instruction, so the
// twins' arithmetic is written once.

#define RELAX0(ST) \
	MOVQ d_base+0(FP), DI \
	MOVQ d_len+8(FP), CX \
	MOVQ s_base+24(FP), SI \
	MOVQ t_base+48(FP), DX \
	MOVQ base_base+72(FP), R8 \
	XORQ AX, AX \
	TESTQ CX, CX \
	JEQ  r0done \
	VBROADCASTSD omc+96(FP), V13 \
r0loop: \
	VMULPD  (SI)(AX*8), V13, V0 /* (1−ω)·s */ \
	VMOVUPD (DX)(AX*8), V1 \
	VMULPD  (R8)(AX*8), V1, V1  /* t·base */ \
	VADDPD  V1, V0, V0 \
	ST      V0, (DI)(AX*8) \
	ADDQ $LANES, AX \
	CMPQ AX, CX \
	JLT  r0loop \
	VZEROUPPER \
r0done: \
	RET

// PAIRARGS loads the frame the pair primitives share (di, dj, si, sj, t,
// base, q) and tests the run's length, jumping to DONE where it is 0.
#define PAIRARGS(DONE) \
	MOVQ di_base+0(FP), DI \
	MOVQ di_len+8(FP), CX \
	MOVQ dj_base+24(FP), R8 \
	MOVQ si_base+48(FP), SI \
	MOVQ sj_base+72(FP), DX \
	MOVQ t_base+96(FP), R9 \
	MOVQ base_base+120(FP), R10 \
	MOVQ q_base+144(FP), R11 \
	XORQ AX, AX \
	TESTQ CX, CX \
	JEQ  DONE

// EQ2 forms a second-order pair's equilibria t·(even ± odd) in V3, V4 from
// q, base and t (R11, R10, R9), with ½ in HALF; V0 keeps q.
#define EQ2(HALF) \
	VMOVUPD (R11)(AX*8), V0     /* q = odd */ \
	VMULPD  V0, V0, V1          /* q² */ \
	VMULPD  HALF, V1, V1        /* q²·½ */ \
	VADDPD  (R10)(AX*8), V1, V1 /* even = base + q²·½ */ \
	VMOVUPD (R9)(AX*8), V2      /* t */ \
	VADDPD  V0, V1, V3          /* even + odd */ \
	VSUBPD  V0, V1, V4          /* even − odd */ \
	VMULPD  V2, V3, V3 \
	VMULPD  V2, V4, V4

// EQ3 is EQ2 for a third-order pair, odd = q·(base + q²·⅙), with base
// loaded into BASE and ⅙ in SIXTH.
#define EQ3(BASE, HALF, SIXTH) \
	VMOVUPD (R11)(AX*8), V0     /* q */ \
	VMOVUPD (R10)(AX*8), BASE   /* base */ \
	VMULPD  V0, V0, V1          /* q² */ \
	VMULPD  SIXTH, V1, V8       /* q²·⅙ */ \
	VADDPD  V8, BASE, V8        /* base + q²·⅙ */ \
	VMULPD  V8, V0, V8          /* odd = q·(base + q²·⅙) */ \
	VMULPD  HALF, V1, V1 \
	VADDPD  V1, BASE, V1        /* even = base + q²·½ */ \
	VMOVUPD (R9)(AX*8), V2      /* t */ \
	VADDPD  V8, V1, V3          /* even + odd */ \
	VSUBPD  V8, V1, V4          /* even − odd */ \
	VMULPD  V2, V3, V3 \
	VMULPD  V2, V4, V4

// RELAXPAIR stores BGK's relaxed pair, (1−ω)·s + t·(even ± odd), with 1−ω
// in V13 and the equilibria in V3, V4.
#define RELAXPAIR(ST) \
	VMULPD  (SI)(AX*8), V13, V5 /* (1−ω)·si */ \
	VMULPD  (DX)(AX*8), V13, V6 /* (1−ω)·sj */ \
	VADDPD  V3, V5, V5 \
	VADDPD  V4, V6, V6 \
	ST      V5, (DI)(AX*8) \
	ST      V6, (R8)(AX*8)

#define RELAX2(ST) \
	PAIRARGS(r2done) \
	VBROADCASTSD omc+168(FP), V13 \
	VBROADCASTSD half+176(FP), V14 \
r2loop: \
	EQ2(V14) \
	RELAXPAIR(ST) \
	ADDQ $LANES, AX \
	CMPQ AX, CX \
	JLT  r2loop \
	VZEROUPPER \
r2done: \
	RET

#define RELAX3(ST) \
	PAIRARGS(r3done) \
	VBROADCASTSD omc+168(FP), V13 \
	VBROADCASTSD half+176(FP), V14 \
	VBROADCASTSD sixth+184(FP), V15 \
r3loop: \
	EQ3(V7, V14, V15) \
	RELAXPAIR(ST) \
	ADDQ $LANES, AX \
	CMPQ AX, CX \
	JLT  r3loop \
	VZEROUPPER \
r3done: \
	RET

// The TRT relax primitives write the next field too: the same two bodies
// each as the relax primitives above.

#define TRT0(ST) \
	MOVQ d_base+0(FP), DI \
	MOVQ d_len+8(FP), CX \
	MOVQ s_base+24(FP), SI \
	MOVQ t_base+48(FP), DX \
	MOVQ base_base+72(FP), R8 \
	XORQ AX, AX \
	TESTQ CX, CX \
	JEQ  t0done \
	VBROADCASTSD wp+96(FP), V14 \
t0loop: \
	VMOVUPD (SI)(AX*8), V0     /* v */ \
	VMOVUPD (DX)(AX*8), V1 \
	VMULPD  (R8)(AX*8), V1, V1 /* e = t·base */ \
	VSUBPD  V1, V0, V1         /* v − e */ \
	VMULPD  V14, V1, V1        /* ω⁺·(v − e) */ \
	VSUBPD  V1, V0, V0 \
	ST      V0, (DI)(AX*8) \
	ADDQ $LANES, AX \
	CMPQ AX, CX \
	JLT  t0loop \
	VZEROUPPER \
t0done: \
	RET

// TRTPAIR is the pair arithmetic trt2 and trt3 share once the equilibria
// ei, ej are in V3, V4 (half in V12, wp in V14, wm in V15).
#define TRTPAIR(ST) \
	VMOVUPD (SI)(AX*8), V5      /* vi */ \
	VMOVUPD (DX)(AX*8), V6      /* vj */ \
	VADDPD  V6, V5, V7          /* vi + vj */ \
	VADDPD  V4, V3, V8          /* ei + ej */ \
	VSUBPD  V8, V7, V7 \
	VMULPD  V12, V7, V7 \
	VMULPD  V14, V7, V7         /* dP = ω⁺·(½·((vi + vj) − (ei + ej))) */ \
	VSUBPD  V6, V5, V8          /* vi − vj */ \
	VSUBPD  V4, V3, V9          /* ei − ej */ \
	VSUBPD  V9, V8, V8 \
	VMULPD  V12, V8, V8 \
	VMULPD  V15, V8, V8         /* dM = ω⁻·(½·((vi − vj) − (ei − ej))) */ \
	VADDPD  V8, V7, V9          /* dP + dM */ \
	VSUBPD  V8, V7, V10         /* dP − dM */ \
	VSUBPD  V9, V5, V5          /* vi − (dP + dM) */ \
	VSUBPD  V10, V6, V6         /* vj − (dP − dM) */ \
	ST      V5, (DI)(AX*8) \
	ST      V6, (R8)(AX*8)

#define TRT2(ST) \
	PAIRARGS(t2done) \
	VBROADCASTSD half+168(FP), V12 \
	VBROADCASTSD wp+176(FP), V14 \
	VBROADCASTSD wm+184(FP), V15 \
t2loop: \
	EQ2(V12) \
	TRTPAIR(ST) \
	ADDQ $LANES, AX \
	CMPQ AX, CX \
	JLT  t2loop \
	VZEROUPPER \
t2done: \
	RET

#define TRT3(ST) \
	PAIRARGS(t3done) \
	VBROADCASTSD half+168(FP), V12 \
	VBROADCASTSD sixth+176(FP), V13 \
	VBROADCASTSD wp+184(FP), V14 \
	VBROADCASTSD wm+192(FP), V15 \
t3loop: \
	EQ3(V9, V12, V13) \
	TRTPAIR(ST) \
	ADDQ $LANES, AX \
	CMPQ AX, CX \
	JLT  t3loop \
	VZEROUPPER \
t3done: \
	RET


// func momentsx4(rho, jx, jy, jz []float64, in [][]float64, tab []momPair)
// func momentsx8(rho, jx, jy, jz []float64, in [][]float64, tab []momPair)
TEXT SYM(·momentsx4, ·momentsx8)(SB), NOSPLIT, $0-144
	MOMARGS
	MOMENTS(MOMNOAHEAD)

// func momentsx4pf(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr)
// func momentsx8pf(rho, jx, jy, jz []float64, in [][]float64, tab []momPair, ahead []uintptr)
TEXT SYM(·momentsx4pf, ·momentsx8pf)(SB), NOSPLIT, $0-168
	MOMARGS
	MOVQ ahead_base+144(FP), R14
	MOMENTS(MOMAHEAD)

// func velocityx4(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64)
// func velocityx8(rho, qx, qy, qz, base []float64, sx, sy, sz, invCs2, invCs2h float64)
TEXT SYM(·velocityx4, ·velocityx8)(SB), NOSPLIT, $0-160
	MOVQ rho_base+0(FP), DI
	MOVQ rho_len+8(FP), CX
	MOVQ qx_base+24(FP), SI
	MOVQ qy_base+48(FP), DX
	MOVQ qz_base+72(FP), R8
	MOVQ base_base+96(FP), R9
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  veldone
	VBROADCASTSD sx+120(FP), V10
	VBROADCASTSD sy+128(FP), V11
	VBROADCASTSD sz+136(FP), V12
	VBROADCASTSD invCs2+144(FP), V13
	VBROADCASTSD invCs2h+152(FP), V14
	VBROADCASTSD one<>(SB), V15
velloop:
	VMOVUPD (DI)(AX*8), V0
	VDIVPD  V0, V15, V0        // inv = 1/ρ
	VMULPD  (SI)(AX*8), V0, V1
	VADDPD  V10, V1, V1        // ux = qx·inv + sx
	VMULPD  (DX)(AX*8), V0, V2
	VADDPD  V11, V2, V2        // uy
	VMULPD  (R8)(AX*8), V0, V3
	VADDPD  V12, V3, V3        // uz
	VMULPD  V1, V1, V4
	VMULPD  V2, V2, V5
	VADDPD  V5, V4, V4         // ux² + uy²
	VMULPD  V3, V3, V5
	VADDPD  V5, V4, V4         // (ux² + uy²) + uz²
	VMULPD  V14, V4, V4
	VSUBPD  V4, V15, V4        // base = 1 − u²·invCs2h
	VMULPD  V13, V1, V1
	VMULPD  V13, V2, V2
	VMULPD  V13, V3, V3
	VMOVUPD V4, (R9)(AX*8)
	VMOVUPD V1, (SI)(AX*8)
	VMOVUPD V2, (DX)(AX*8)
	VMOVUPD V3, (R8)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  velloop
	VZEROUPPER
veldone:
	RET

// func scalex4(dst, src []float64, a float64)
// func scalex8(dst, src []float64, a float64)
TEXT SYM(·scalex4, ·scalex8)(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  scaledone
	VBROADCASTSD a+48(FP), V13
scaleloop:
	VMULPD  (SI)(AX*8), V13, V0
	VMOVUPD V0, (DI)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  scaleloop
	VZEROUPPER
scaledone:
	RET

// func comb2x4(q, qa, qb []float64, ca, cb float64)
// func comb2x8(q, qa, qb []float64, ca, cb float64)
TEXT SYM(·comb2x4, ·comb2x8)(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	MOVQ qa_base+24(FP), SI
	MOVQ qb_base+48(FP), DX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  c2done
	VBROADCASTSD ca+72(FP), V13
	VBROADCASTSD cb+80(FP), V14
c2loop:
	VMULPD  (SI)(AX*8), V13, V0
	VMULPD  (DX)(AX*8), V14, V1
	VADDPD  V1, V0, V0
	VMOVUPD V0, (DI)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  c2loop
	VZEROUPPER
c2done:
	RET

// func comb3x4(q, qa, qb, qc []float64, ca, cb, cc float64)
// func comb3x8(q, qa, qb, qc []float64, ca, cb, cc float64)
TEXT SYM(·comb3x4, ·comb3x8)(SB), NOSPLIT, $0-120
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	MOVQ qa_base+24(FP), SI
	MOVQ qb_base+48(FP), DX
	MOVQ qc_base+72(FP), R8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  c3done
	VBROADCASTSD ca+96(FP), V13
	VBROADCASTSD cb+104(FP), V14
	VBROADCASTSD cc+112(FP), V15
c3loop:
	VMULPD  (SI)(AX*8), V13, V0
	VMULPD  (DX)(AX*8), V14, V1
	VADDPD  V1, V0, V0         // ca·qa + cb·qb
	VMULPD  (R8)(AX*8), V15, V2
	VADDPD  V2, V0, V0         // (…) + cc·qc
	VMOVUPD V0, (DI)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  c3loop
	VZEROUPPER
c3done:
	RET

// func relax0x4(d, s, t, base []float64, omc float64)
// func relax0x8(d, s, t, base []float64, omc float64)
TEXT SYM(·relax0x4, ·relax0x8)(SB), NOSPLIT, $0-104
	RELAX0(VMOVUPD)

// func relax0x4nt(d, s, t, base []float64, omc float64)
// func relax0x8nt(d, s, t, base []float64, omc float64)
TEXT SYM(·relax0x4nt, ·relax0x8nt)(SB), NOSPLIT, $0-104
	RELAX0(VMOVNTPD)

// func relax2x4(di, dj, si, sj, t, base, q []float64, omc, half float64)
// func relax2x8(di, dj, si, sj, t, base, q []float64, omc, half float64)
TEXT SYM(·relax2x4, ·relax2x8)(SB), NOSPLIT, $0-184
	RELAX2(VMOVUPD)

// func relax2x4nt(di, dj, si, sj, t, base, q []float64, omc, half float64)
// func relax2x8nt(di, dj, si, sj, t, base, q []float64, omc, half float64)
TEXT SYM(·relax2x4nt, ·relax2x8nt)(SB), NOSPLIT, $0-184
	RELAX2(VMOVNTPD)

// func relax3x4(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
// func relax3x8(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
TEXT SYM(·relax3x4, ·relax3x8)(SB), NOSPLIT, $0-192
	RELAX3(VMOVUPD)

// func relax3x4nt(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
// func relax3x8nt(di, dj, si, sj, t, base, q []float64, omc, half, sixth float64)
TEXT SYM(·relax3x4nt, ·relax3x8nt)(SB), NOSPLIT, $0-192
	RELAX3(VMOVNTPD)

// func eq0x4(f, t, base []float64)
// func eq0x8(f, t, base []float64)
TEXT SYM(·eq0x4, ·eq0x8)(SB), NOSPLIT, $0-72
	MOVQ f_base+0(FP), DI
	MOVQ f_len+8(FP), CX
	MOVQ t_base+24(FP), SI
	MOVQ base_base+48(FP), DX
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  e0done
e0loop:
	VMOVUPD (SI)(AX*8), V0
	VMULPD  (DX)(AX*8), V0, V0
	VMOVUPD V0, (DI)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  e0loop
	VZEROUPPER
e0done:
	RET

// func eq2x4(fi, fj, t, base, q []float64, half float64)
// func eq2x8(fi, fj, t, base, q []float64, half float64)
TEXT SYM(·eq2x4, ·eq2x8)(SB), NOSPLIT, $0-128
	MOVQ fi_base+0(FP), DI
	MOVQ fi_len+8(FP), CX
	MOVQ fj_base+24(FP), R8
	MOVQ t_base+48(FP), R9
	MOVQ base_base+72(FP), R10
	MOVQ q_base+96(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  e2done
	VBROADCASTSD half+120(FP), V14
e2loop:
	EQ2(V14)
	VMOVUPD V3, (DI)(AX*8)
	VMOVUPD V4, (R8)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  e2loop
	VZEROUPPER
e2done:
	RET

// func eq3x4(fi, fj, t, base, q []float64, half, sixth float64)
// func eq3x8(fi, fj, t, base, q []float64, half, sixth float64)
TEXT SYM(·eq3x4, ·eq3x8)(SB), NOSPLIT, $0-136
	MOVQ fi_base+0(FP), DI
	MOVQ fi_len+8(FP), CX
	MOVQ fj_base+24(FP), R8
	MOVQ t_base+48(FP), R9
	MOVQ base_base+72(FP), R10
	MOVQ q_base+96(FP), R11
	XORQ AX, AX
	TESTQ CX, CX
	JEQ  e3done
	VBROADCASTSD half+120(FP), V14
	VBROADCASTSD sixth+128(FP), V15
e3loop:
	EQ3(V7, V14, V15)
	VMOVUPD V3, (DI)(AX*8)
	VMOVUPD V4, (R8)(AX*8)
	ADDQ $LANES, AX
	CMPQ AX, CX
	JLT  e3loop
	VZEROUPPER
e3done:
	RET

// func trt0x4(d, s, t, base []float64, wp float64)
// func trt0x8(d, s, t, base []float64, wp float64)
TEXT SYM(·trt0x4, ·trt0x8)(SB), NOSPLIT, $0-104
	TRT0(VMOVUPD)

// func trt0x4nt(d, s, t, base []float64, wp float64)
// func trt0x8nt(d, s, t, base []float64, wp float64)
TEXT SYM(·trt0x4nt, ·trt0x8nt)(SB), NOSPLIT, $0-104
	TRT0(VMOVNTPD)

// func trt2x4(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
// func trt2x8(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
TEXT SYM(·trt2x4, ·trt2x8)(SB), NOSPLIT, $0-192
	TRT2(VMOVUPD)

// func trt2x4nt(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
// func trt2x8nt(di, dj, si, sj, t, base, q []float64, half, wp, wm float64)
TEXT SYM(·trt2x4nt, ·trt2x8nt)(SB), NOSPLIT, $0-192
	TRT2(VMOVNTPD)

// func trt3x4(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
// func trt3x8(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
TEXT SYM(·trt3x4, ·trt3x8)(SB), NOSPLIT, $0-200
	TRT3(VMOVUPD)

// func trt3x4nt(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
// func trt3x8nt(di, dj, si, sj, t, base, q []float64, half, sixth, wp, wm float64)
TEXT SYM(·trt3x4nt, ·trt3x8nt)(SB), NOSPLIT, $0-200
	TRT3(VMOVNTPD)

#undef ROWBASE
#undef MOMAHEAD
#undef MOMNOAHEAD
#undef MOMAXIS
#undef MOMENTS
#undef MOMARGS
#undef RELAX0
#undef PAIRARGS
#undef EQ2
#undef EQ3
#undef RELAXPAIR
#undef RELAX2
#undef RELAX3
#undef TRT0
#undef TRTPAIR
#undef TRT2
#undef TRT3
