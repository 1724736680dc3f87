#include "go_asm.h"
#include "textflag.h"

// rounder.round (format.go) on a vector of lanes at the pipeline's budget:
// bits(v)+half, then &keep.
#define ROUNDPIPE(r) VPADDQ Y4, r, r; VPAND Y5, r, r
#define ROUNDPIPEZ(r) VPADDQ Z4, r, r; VPANDQ Z5, r, r

// func streamJLanes4(b *laneBlock, lane int, jq []vec.V3, mq []float64)
//
// streamJ (system.go) on the block's four i-points from lane on: every
// IEEE operation of its loop body, in its order, one YMM lane per point.
// No FMA; the roundings are the same integer add and mask.
TEXT ·streamJLanes4(SB), NOSPLIT, $0-64
	MOVQ b+0(FP), DI
	MOVQ lane+8(FP), AX
	LEAQ (DI)(AX*8), DI // every field below is a [laneWidth] array
	MOVQ jq_base+16(FP), SI
	MOVQ jq_len+24(FP), CX
	MOVQ mq_base+40(FP), DX

	VXORPD       Y0, Y0, Y0 // ax
	VXORPD       Y1, Y1, Y1 // ay
	VXORPD       Y2, Y2, Y2 // az
	VXORPD       Y3, Y3, Y3 // pp
	VMOVDQU      laneBlock_pipeHalf(DI), Y4
	VMOVDQU      laneBlock_pipeKeep(DI), Y5
	VMOVDQU      laneBlock_distHalf(DI), Y6
	VMOVUPD      laneBlock_eps2(DI), Y7
	MOVQ         $0x3FF0000000000000, AX
	MOVQ         AX, X8
	VBROADCASTSD X8, Y8     // 1
	VXORPD       Y9, Y9, Y9 // +0

	TESTQ CX, CX
	JZ    done4

loop4:
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12
	VSUBPD       laneBlock_x(DI), Y10, Y10 // dx = pj.X - pi.X
	VSUBPD       laneBlock_y(DI), Y11, Y11
	VSUBPD       laneBlock_z(DI), Y12, Y12
	VMULPD       Y10, Y10, Y13
	VMULPD       Y11, Y11, Y14
	VADDPD       Y14, Y13, Y13
	VMULPD       Y12, Y12, Y14
	VADDPD       Y14, Y13, Y13             // r2 = (dx*dx + dy*dy) + dz*dz

	VBROADCASTSD (DX), Y15         // m
	VCMPPD       $0, Y9, Y13, Y14  // r2 == 0 (EQ_OQ: false on NaN)
	VBLENDVPD    Y14, Y9, Y15, Y15 // m = 0 there
	VBLENDVPD    Y14, Y8, Y13, Y13 // r2 = 1 there

	VADDPD  Y7, Y13, Y13                    // r2 + eps2
	VPADDQ  Y6, Y13, Y13
	VPAND   laneBlock_distKeep(DI), Y13, Y13
	VSQRTPD Y13, Y14
	VDIVPD  Y14, Y8, Y14                    // inv = 1 / sqrt(r2)
	VMULPD  Y14, Y15, Y15                   // m * inv
	VDIVPD  Y13, Y15, Y14                   // m * inv / r2
	ROUNDPIPE(Y15)                          // fpot
	ROUNDPIPE(Y14)                          // ff
	VSUBPD  Y15, Y3, Y3                     // pp -= fpot

	VMULPD Y10, Y14, Y10 // ff * dx
	VMULPD Y11, Y14, Y11
	VMULPD Y12, Y14, Y12
	ROUNDPIPE(Y10)
	ROUNDPIPE(Y11)
	ROUNDPIPE(Y12)
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2

	ADDQ $24, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop4

done4:
	VMOVUPD Y0, laneBlock_ax(DI)
	VMOVUPD Y1, laneBlock_ay(DI)
	VMOVUPD Y2, laneBlock_az(DI)
	VMOVUPD Y3, laneBlock_pp(DI)
	VZEROUPPER
	RET

// certEps is the certificate's margin in words (DESIGN.md §13): more
// than the 14 by which the product quotient can miss the divided one.
#define certEps 32

// func streamJLanes8(b *laneBlock, jq []vec.V3, mq []float64)
//
// streamJ on the block's eight i-points, one ZMM lane per point, with
// one operation changed: ff's quotient a/r2 (a = m*inv) is formed as
// q = (a*inv)*inv, and taken only when every lane's q provably rounds as
// a/r2 would — p = a*inv is no NaN, Inf or subnormal, and no rounding
// boundary lies within certEps words of bits(q). Otherwise that j runs
// streamJ's own VDIVPD and b.fallbacks counts it. Everything else is
// streamJLanes4's operations in its order; no FMA.
TEXT ·streamJLanes8(SB), NOSPLIT, $0-56
	MOVQ b+0(FP), DI
	MOVQ jq_base+8(FP), SI
	MOVQ jq_len+16(FP), CX
	MOVQ mq_base+32(FP), DX

	VPXORQ    Z0, Z0, Z0 // ax
	VPXORQ    Z1, Z1, Z1 // ay
	VPXORQ    Z2, Z2, Z2 // az
	VPXORQ    Z3, Z3, Z3 // pp
	VMOVDQU64 laneBlock_pipeHalf(DI), Z4
	VMOVDQU64 laneBlock_pipeKeep(DI), Z5
	VMOVDQU64 laneBlock_distHalf(DI), Z6
	VMOVUPD   laneBlock_eps2(DI), Z7
	MOVQ      $0x3FF0000000000000, AX
	VPBROADCASTQ AX, Z8 // 1
	VPXORQ    Z9, Z9, Z9 // +0
	VMOVDQU64 laneBlock_distKeep(DI), Z20
	VMOVUPD   laneBlock_x(DI), Z21
	VMOVUPD   laneBlock_y(DI), Z22
	VMOVUPD   laneBlock_z(DI), Z23
	MOVQ      $certEps, AX
	VPBROADCASTQ AX, Z24 // EPS
	MOVQ      $(2*certEps), AX
	VPBROADCASTQ AX, Z25 // 2 EPS
	XORQ      R8, R8     // fallbacks

	TESTQ CX, CX
	JZ    done8

loop8:
	VBROADCASTSD 0(SI), Z10
	VBROADCASTSD 8(SI), Z11
	VBROADCASTSD 16(SI), Z12
	VSUBPD       Z21, Z10, Z10 // dx = pj.X - pi.X
	VSUBPD       Z22, Z11, Z11
	VSUBPD       Z23, Z12, Z12
	VMULPD       Z10, Z10, Z13
	VMULPD       Z11, Z11, Z14
	VADDPD       Z14, Z13, Z13
	VMULPD       Z12, Z12, Z14
	VADDPD       Z14, Z13, Z13 // r2 = (dx*dx + dy*dy) + dz*dz

	VBROADCASTSD (DX), Z15       // m
	VCMPPD       $0, Z9, Z13, K1 // r2 == 0 (EQ_OQ: false on NaN)
	VMOVAPD      Z9, K1, Z15     // m = 0 there
	VMOVAPD      Z8, K1, Z13     // r2 = 1 there

	VADDPD  Z7, Z13, Z13 // r2 + eps2
	VPADDQ  Z6, Z13, Z13
	VPANDQ  Z20, Z13, Z13
	VSQRTPD Z13, Z14
	VDIVPD  Z14, Z8, Z14  // inv = 1 / sqrt(r2)
	VMULPD  Z14, Z15, Z15 // a = m * inv

	VMULPD      Z14, Z15, Z16       // p = a * inv
	VMULPD      Z14, Z16, Z17       // q = p * inv
	VFPCLASSPDZ $0xB9, Z16, K2      // p is NaN, ±Inf or subnormal
	VPADDQ      Z4, Z17, Z17        // bits(q) + half
	VPADDQ      Z24, Z17, Z18
	VPANDNQ     Z18, Z5, Z18        // (bits(q) + half + EPS) &^ keep
	VPCMPUQ     $1, Z25, Z18, K3    // < 2 EPS: a boundary within EPS
	KORB        K2, K3, K2
	KORTESTB    K2, K2
	JNZ         divide
	VPANDQ      Z5, Z17, Z14        // ff = round(q)

rounded:
	ROUNDPIPEZ(Z15)      // fpot
	VSUBPD Z15, Z3, Z3   // pp -= fpot

	VMULPD Z10, Z14, Z10 // ff * dx
	VMULPD Z11, Z14, Z11
	VMULPD Z12, Z14, Z12
	ROUNDPIPEZ(Z10)
	ROUNDPIPEZ(Z11)
	ROUNDPIPEZ(Z12)
	VADDPD Z10, Z0, Z0
	VADDPD Z11, Z1, Z1
	VADDPD Z12, Z2, Z2

	ADDQ $24, SI
	ADDQ $8, DX
	DECQ CX
	JNZ  loop8

done8:
	VMOVUPD Z0, laneBlock_ax(DI)
	VMOVUPD Z1, laneBlock_ay(DI)
	VMOVUPD Z2, laneBlock_az(DI)
	VMOVUPD Z3, laneBlock_pp(DI)
	ADDQ    R8, laneBlock_fallbacks(DI)
	VZEROUPPER
	RET

divide: // some lane is uncertified: ff = round(a / r2), streamJ's own
	VDIVPD Z13, Z15, Z14
	ROUNDPIPEZ(Z14)
	INCQ R8
	JMP  rounded

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
