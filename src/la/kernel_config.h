// The ONE place the linear-algebra accumulation schedule is defined.
//
// Every dot-product-shaped reduction in src/la (matvec, matvec_transpose,
// matmul, matmul_nt — and therefore every NN forward/backward pass, GEMM
// batch, and reach interval propagation built on them) follows a single
// fixed accumulation schedule parameterized by the constants below.  Both
// the vectorized kernels and the scalar reference implementations in
// la/kernels.cpp execute this schedule operation-for-operation, so their
// results are bitwise identical — which is what lets batched serving,
// parallel training, and the plain scalar path all agree row-for-row on
// every platform, for any worker count.
//
// THE DOT SCHEDULE (matvec / matmul / matmul_nt), for a reduction of
// length K over index t:
//   1. K is split into consecutive blocks of kDotBlockK elements (the last
//      block may be partial).
//   2. Inside a block starting at t0, kDotLanes independent lane
//      accumulators are used: lane (t - t0) % kDotLanes accumulates the
//      product at t with ONE correctly-rounded fused multiply-add,
//      lane = fma(a_t, b_t, lane), in increasing t.  Lanes start at +0.0.
//   3. At the end of each block the lanes are combined with a fixed
//      pairwise tree of plain additions:
//      ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
//   4. Block sums are added to the running accumulator in block order,
//      starting from +0.0.
//
// THE TRANSPOSE SCHEDULE (matvec_transpose), for y[c] = sum_r M(r,c)*x[r]:
// identical in shape, but the reduction index is the row r, with
// kTransposeLanes lanes and kTransposeBlockR-row blocks; the lane tree is
// (l0+l1)+(l2+l3).
//
// The fma in step 2 is the IEEE-754 fusedMultiplyAdd — a single rounding.
// It is the same bits whether it executes as a vfmadd instruction, as an
// inlined scalar fma, or through libm's software fallback on hardware
// without FMA, which is why the schedule can demand it everywhere.
//
// Changing ANY constant here changes the bits of every trained network and
// cached artifact: bump util::kModelCacheVersion in the same commit.
#pragma once

#include <cstddef>

namespace cocktail::la::kernels {

/// Lane count of the dot schedule.  8 doubles = two 256-bit AVX2 registers
/// (or one AVX-512 register); also deep enough to hide fma latency.
inline constexpr std::size_t kDotLanes = 8;

/// k-block length of the dot schedule.  Must be a multiple of kDotLanes.
/// 256 doubles = 2 KiB per operand panel — the per-block operand slices of
/// a register tile stay L1-resident.
inline constexpr std::size_t kDotBlockK = 256;

/// Lane count of the transpose schedule.  4 keeps the per-column lane
/// accumulators register-resident in the vectorized kernel.
inline constexpr std::size_t kTransposeLanes = 4;

/// Row-block length of the transpose schedule.
inline constexpr std::size_t kTransposeBlockR = 256;

/// Register-tile width of the blocked GEMM's four-lane path: how many output
/// columns (rows of B in the NT kernel) share one pass over a row of A (the
/// eight-lane AVX-512F path runs eight, one zmm per column).  PURE
/// performance knob — it reuses loads, never reorders any accumulation, so
/// it does NOT participate in the schedule and may be retuned freely.
inline constexpr std::size_t kGemmTileCols = 4;

/// Cache-block width of the blocked GEMM: how many output columns (rows of
/// B in the NT kernel) are visited per sweep over the rows of A, keeping
/// the active B panel L2-resident.  PURE performance knob, like
/// kGemmTileCols: it only changes the order output elements are visited,
/// never how any one of them is accumulated.
inline constexpr std::size_t kGemmBlockCols = 64;

static_assert((kDotLanes & (kDotLanes - 1)) == 0, "lane tree needs 2^n");
static_assert(kDotLanes == 8, "the fixed lane tree is written for 8 lanes");
static_assert(kDotBlockK % kDotLanes == 0, "blocks must hold whole lanes");
static_assert((kTransposeLanes & (kTransposeLanes - 1)) == 0,
              "lane tree needs 2^n");
static_assert(kTransposeLanes == 4,
              "the fixed transpose lane tree is written for 4 lanes");
static_assert(kTransposeBlockR % kTransposeLanes == 0,
              "blocks must hold whole lanes");
static_assert(kGemmBlockCols % kGemmTileCols == 0,
              "cache blocks must hold whole register tiles");

}  // namespace cocktail::la::kernels
