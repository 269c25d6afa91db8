// Golden constants for the verify path.  The other suites pin behaviour
// against itself (worker counts, batched against scalar); this one pins it
// against committed numbers.  On the committed perfbench/subjects/
// students it runs:
//
//  * κ* and κD reachability on the 3D system at bench_fig4's config from
//    its corner box.  κD's run re-paves: a 2,048-box frontier merges into
//    a handful of cells.
//  * Both Van der Pol invariant sets at bench_fig3's 80×80 config.
//
// and asserts the exact counters and verdicts, every layer's size, an
// FNV-1a digest over every layer's endpoint bits in order, and an FNV-1a
// digest of the member bits.  Any change to a counter, a verdict or one
// endpoint by one ulp fails here.  A change that alters them on purpose
// updates the constants and says so in CHANGES.md.
//
// The path calls no host libm: the dynamics are polynomial, the network's
// tanh is the library's own kernel (la/kernels.h) and the covering radius
// needs only IEEE sqrt.  So the constants hold in every x86-64 build: SIMD
// on or off, sanitized or not, on any glibc.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sys/registry.h"
#include "verify/invariant.h"
#include "verify/reach.h"
#include "verify_subjects.h"

namespace cocktail {
namespace {

/// 64-bit FNV-1a over bytes; words go in low byte first.
class Fnv1a {
 public:
  void add_byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }
  void add_word(std::uint64_t word) {
    for (int b = 0; b < 8; ++b)
      add_byte(static_cast<unsigned char>(word >> (8 * b)));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Digest of every layer's endpoints in order: layer, box, dimension, then
/// lo before hi.
std::uint64_t layers_digest(const verify::ReachResult& result) {
  Fnv1a fnv;
  for (const auto& layer : result.layers)
    for (const verify::IBox& box : layer)
      for (const verify::Interval& iv : box) {
        fnv.add_word(std::bit_cast<std::uint64_t>(iv.lo()));
        fnv.add_word(std::bit_cast<std::uint64_t>(iv.hi()));
      }
  return fnv.value();
}

/// Digest of the member array, one byte (0 or 1) per cell in index order.
std::uint64_t member_digest(const verify::InvariantResult& result) {
  Fnv1a fnv;
  for (const bool member : result.member) fnv.add_byte(member ? 1 : 0);
  return fnv.value();
}

struct ReachGolden {
  long nn_evaluations;
  long partitions;
  bool completed;
  bool safe;
  std::vector<std::size_t> layer_sizes;
  std::uint64_t layers_digest;
};

void expect_reach(const std::string& tag, const ReachGolden& golden) {
  const auto result =
      verify::ReachabilityAnalyzer(sys::make_system("threed"),
                                   *testutil::load_subject("threed", tag),
                                   testutil::fig4_config())
          .analyze(verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11}));
  EXPECT_EQ(result.nn_evaluations, golden.nn_evaluations);
  EXPECT_EQ(result.partitions, golden.partitions);
  EXPECT_EQ(result.completed, golden.completed) << result.failure;
  EXPECT_EQ(result.safe, golden.safe);
  std::vector<std::size_t> sizes;
  for (const auto& layer : result.layers) sizes.push_back(layer.size());
  EXPECT_EQ(sizes, golden.layer_sizes);
  EXPECT_EQ(layers_digest(result), golden.layers_digest)
      << std::hex << "0x" << layers_digest(result);
}

struct InvariantGolden {
  long nn_evaluations;
  long partitions;
  bool completed;
  int iterations;
  double volume_fraction;
  std::uint64_t member_digest;
};

void expect_invariant(const std::string& tag, const InvariantGolden& golden) {
  const auto result =
      verify::InvariantSetComputer(sys::make_system("vanderpol"),
                                   *testutil::load_subject("vanderpol", tag),
                                   testutil::fig3_config())
          .compute();
  EXPECT_EQ(result.nn_evaluations, golden.nn_evaluations);
  EXPECT_EQ(result.partitions, golden.partitions);
  EXPECT_EQ(result.completed, golden.completed) << result.failure;
  EXPECT_EQ(result.iterations, golden.iterations);
  // Exact: the fraction is one correctly rounded division.
  EXPECT_EQ(result.volume_fraction, golden.volume_fraction);
  EXPECT_EQ(member_digest(result), golden.member_digest)
      << std::hex << "0x" << member_digest(result);
}

TEST(GoldenReach, ThreeDKstar) {
  expect_reach("kstar",
               {116'564, 4'324, true, true,
                {1, 1, 1, 2, 4, 8, 8, 16, 32, 64, 128, 220, 256, 512, 1024,
                 2048},
                0x5d0dbdbfb7ea0d95ULL});
}

TEST(GoldenReach, ThreeDKd) {
  expect_reach("kd",
               {507'634, 8'205, true, true,
                {1, 1, 2, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 12,
                 12},
                0x17f746297eea8cafULL});
}

TEST(GoldenInvariant, VanDerPolKstar) {
  expect_invariant("kstar",
                   {57'600, 6'400, true, 5, 0.95328125, 0x37016835e896bdaaULL});
}

TEST(GoldenInvariant, VanDerPolKd) {
  expect_invariant("kd",
                   {409'600, 6'400, true, 5, 0.80765625, 0x0f40d92cde406c10ULL});
}

}  // namespace
}  // namespace cocktail
