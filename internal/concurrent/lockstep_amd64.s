#include "textflag.h"

// func lockstepKernel(run, q []uint64, pos []int, n, half int)
//
// One lockstep halving round over lanes [0, n), eight per iteration:
// pos[i] += half where run[pos[i]+half-1] < q[i], unsigned. The caller
// (lockstepRound) has checked n%8 == 0, n <= len(q), n <= len(pos) and
// 1 <= half <= len(run); the search keeps pos[i]+half <= len(run).
TEXT ·lockstepKernel(SB), NOSPLIT, $0-88
	MOVQ run_base+0(FP), SI
	MOVQ q_base+24(FP), DX
	MOVQ pos_base+48(FP), DI
	MOVQ n+72(FP), CX
	MOVQ half+80(FP), AX
	VPBROADCASTQ AX, Z1
	LEAQ -8(SI)(AX*8), SI // &run[half-1]: the gather base
	SHLQ $3, CX           // n lanes as bytes
	XORQ BX, BX
	TESTQ CX, CX
	JZ   done

loop:
	VMOVDQU64 (DI)(BX*1), Z2
	KXNORB K1, K1, K1 // the gather clears its mask as it completes
	VPGATHERQQ (SI)(Z2*8), K1, Z3
	VPCMPUQ $1, (DX)(BX*1), Z3, K2 // LT: run[pos+half-1] < q
	VPADDQ Z1, Z2, K2, Z2
	VMOVDQU64 Z2, (DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, CX
	JB   loop

done:
	VZEROUPPER
	RET

// func kernelSupported() bool
//
// AVX-512F (CPUID leaf 7, EBX bit 16) with the OS saving the opmask and
// ZMM state (OSXSAVE, then XCR0 bits 1, 2, 5, 6 and 7: 0xE6).
TEXT ·kernelSupported(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	BTL  $27, CX // OSXSAVE: XGETBV is usable
	JCC  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVB $1, ret+0(FP)

no:
	RET
