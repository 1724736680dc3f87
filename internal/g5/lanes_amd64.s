#include "go_asm.h"
#include "textflag.h"

// roundInPlace (format.go) on four lanes at the pipeline's budget:
// bits(v)+half, then &keep.
#define ROUNDPIPE(r) VPADDQ Y4, r, r; VPAND Y5, r, r

// func streamJLanes(b *laneBlock, jq []vec.V3, mq []float64)
//
// streamJ (system.go) on the block's four i-points at once: every IEEE
// operation of its loop body, in its order, one YMM lane per point. No
// FMA; the roundings are the same integer add and mask.
TEXT ·streamJLanes(SB), NOSPLIT, $0-56
	MOVQ b+0(FP), DI
	MOVQ jq_base+8(FP), SI
	MOVQ jq_len+16(FP), CX
	MOVQ mq_base+32(FP), DX

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
	JZ    done

loop:
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
	JNZ  loop

done:
	VMOVUPD Y0, laneBlock_ax(DI)
	VMOVUPD Y1, laneBlock_ay(DI)
	VMOVUPD Y2, laneBlock_az(DI)
	VMOVUPD Y3, laneBlock_pp(DI)
	VZEROUPPER
	RET

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
