/**
 * @file
 * Statistical sanity tests for the Rng distributions. Tolerances are
 * sized for the fixed sample counts; the generator is deterministic,
 * so these never flake.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>

#include "util/random.h"
#include "util/stats.h"

namespace dcbatt::util {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) {
        double x = rng.uniform(2.0, 6.0);
        ASSERT_GE(x, 2.0);
        ASSERT_LT(x, 6.0);
        s.add(x);
    }
    EXPECT_NEAR(s.mean(), 4.0, 0.05);
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t x = rng.uniformInt(1, 6);
        ASSERT_GE(x, 1);
        ASSERT_LE(x, 6);
        saw_lo |= (x == 1);
        saw_hi |= (x == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.exponential(45.0));
    EXPECT_NEAR(s.mean(), 45.0, 1.0);
    // Exponential: stddev == mean.
    EXPECT_NEAR(s.stddev(), 45.0, 2.0);
    EXPECT_GE(s.min(), 0.0);
}

TEST(RngDeathTest, ExponentialRejectsNonpositiveMean)
{
    Rng rng(1);
    EXPECT_DEATH(rng.exponential(0.0), "nonpositive");
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, TruncatedNormalStaysInRange)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        double x = rng.truncatedNormal(1.0, 5.0, 0.5, 1.5);
        ASSERT_GE(x, 0.5);
        ASSERT_LE(x, 1.5);
    }
}

TEST(Rng, TruncatedNormalDegenerateRangeClamps)
{
    Rng rng(17);
    // Impossible-to-hit narrow band far from the mean: resampling
    // gives up and clamps the mean into range.
    double x = rng.truncatedNormal(100.0, 0.001, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ForkedStreamsIndependent)
{
    Rng parent(23);
    Rng child1 = parent.fork();
    Rng child2 = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (child1.uniform() == child2.uniform())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, SubstreamSeedMatchesSubstream)
{
    for (uint64_t seed : {0ULL, 7ULL, 0xdeadbeefULL}) {
        Rng parent(seed);
        for (uint64_t index : {0ULL, 1ULL, 63ULL, 1000ULL}) {
            EXPECT_EQ(parent.substream(index).seed(),
                      Rng::substreamSeed(seed, index));
        }
    }
}

TEST(Rng, StandardNormalPairFirstVariateIsNormal)
{
    // z0 is exactly normal(0, 1) from the same engine state, and the
    // pair consumes exactly the draws one normal() does.
    for (uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
        Rng paired(seed), single(seed);
        for (int i = 0; i < 10000; ++i) {
            double z0 = 0.0, z1 = 0.0;
            paired.standardNormalPair(z0, z1);
            ASSERT_EQ(std::bit_cast<uint64_t>(z0),
                      std::bit_cast<uint64_t>(single.normal(0.0, 1.0)))
                << "seed " << seed << " pair " << i;
        }
        EXPECT_EQ(paired.uniform(), single.uniform());
    }
}

TEST(Rng, StandardNormalPairMoments)
{
    // 1e5 pairs: each variate's mean within 0.01 (~3 standard errors)
    // and variance within 0.02 (~4.5 SE) of N(0, 1), and the two
    // variates of a pair uncorrelated to within 0.01 (~3 SE).
    Rng rng(31);
    constexpr int kPairs = 100000;
    RunningStats s0, s1;
    double cross = 0.0;
    for (int i = 0; i < kPairs; ++i) {
        double z0 = 0.0, z1 = 0.0;
        rng.standardNormalPair(z0, z1);
        s0.add(z0);
        s1.add(z1);
        cross += z0 * z1;
    }
    EXPECT_NEAR(s0.mean(), 0.0, 0.01);
    EXPECT_NEAR(s1.mean(), 0.0, 0.01);
    EXPECT_NEAR(s0.variance(), 1.0, 0.02);
    EXPECT_NEAR(s1.variance(), 1.0, 0.02);
    double covariance = cross / kPairs - s0.mean() * s1.mean();
    double correlation = covariance / (s0.stddev() * s1.stddev());
    EXPECT_NEAR(correlation, 0.0, 0.01);
}

#if defined(__GLIBCXX__) && _GLIBCXX_RELEASE == 12
// ---------------------------------------------------------------------
// The owned samplers are the expressions libstdc++ 12 evaluates for a
// 64-bit engine, so on that library every draw must equal the
// std::*_distribution draw from the same engine state, bit for bit,
// with the engines kept in lockstep (equal draw counts). This is what
// keeps every artifact's bytes unchanged by owning the samplers.
// Compiled only against libstdc++ 12: another release may change
// generate_canonical or a distribution, and these cases would then test
// that library instead of the samplers. The paper goldens and
// StreamingTrace.BytesPinned pin the bytes on any toolchain.
// ---------------------------------------------------------------------

constexpr int kDifferentialDraws = 100000;

void
expectBitEqual(double owned, double reference, const char *what, int i)
{
    ASSERT_EQ(std::bit_cast<uint64_t>(owned),
              std::bit_cast<uint64_t>(reference))
        << what << " draw " << i << ": " << owned << " vs "
        << reference;
}

TEST(RngDifferential, UniformMatchesLibstdcxx)
{
    Rng rng(101);
    std::mt19937_64 engine(101);
    for (int i = 0; i < kDifferentialDraws; ++i) {
        expectBitEqual(
            rng.uniform(), std::uniform_real_distribution<double>(
                               0.0, 1.0)(engine),
            "uniform()", i);
        expectBitEqual(
            rng.uniform(-3.5, 12.25),
            std::uniform_real_distribution<double>(-3.5, 12.25)(engine),
            "uniform(lo, hi)", i);
    }
}

TEST(RngDifferential, ExponentialMatchesLibstdcxx)
{
    Rng rng(103);
    std::mt19937_64 engine(103);
    for (int i = 0; i < kDifferentialDraws; ++i) {
        double mean = 0.5 + (i % 7) * 40.0;
        expectBitEqual(
            rng.exponential(mean),
            std::exponential_distribution<double>(1.0 / mean)(engine),
            "exponential", i);
    }
}

TEST(RngDifferential, NormalMatchesLibstdcxx)
{
    Rng rng(107);
    std::mt19937_64 engine(107);
    for (int i = 0; i < kDifferentialDraws; ++i) {
        // A fresh distribution per draw, as the replaced code used.
        expectBitEqual(
            rng.normal(10.0, 3.0),
            std::normal_distribution<double>(10.0, 3.0)(engine),
            "normal", i);
    }
}

TEST(RngDifferential, TruncatedNormalMatchesLibstdcxx)
{
    Rng rng(109);
    SeededStream stream(109);
    std::mt19937_64 engine(109);
    auto reference = [&engine](double mean, double stddev, double lo,
                               double hi) {
        for (int attempt = 0; attempt < 64; ++attempt) {
            double x =
                std::normal_distribution<double>(mean, stddev)(engine);
            if (x >= lo && x <= hi)
                return x;
        }
        return std::clamp(mean, lo, hi);
    };
    for (int i = 0; i < kDifferentialDraws; ++i) {
        double expected = reference(1.0, 5.0, 0.5, 1.5);
        expectBitEqual(rng.truncatedNormal(1.0, 5.0, 0.5, 1.5),
                       expected, "truncatedNormal", i);
        expectBitEqual(stream.truncatedNormal(1.0, 5.0, 0.5, 1.5),
                       expected, "SeededStream::truncatedNormal", i);
    }
}

TEST(RngDifferential, UniformIntMatchesLibstdcxx)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    // Small, odd, power-of-two and just-over-half-range spans (the
    // last rejects ~half its draws), the full 64-bit range (raw
    // draws), and a degenerate single value.
    const std::pair<int64_t, int64_t> ranges[] = {
        {1, 6},
        {-1000, 999},
        {0, (int64_t{1} << 40) - 1},
        {0, kMax},
        {kMin / 2 - 7, kMax / 2 + 7},
        {kMin, kMax},
        {5, 5},
    };
    for (auto [lo, hi] : ranges) {
        Rng rng(113);
        std::mt19937_64 engine(113);
        for (int i = 0; i < kDifferentialDraws; ++i) {
            ASSERT_EQ(rng.uniformInt(lo, hi),
                      std::uniform_int_distribution<int64_t>(lo, hi)(
                          engine))
                << "[" << lo << ", " << hi << "] draw " << i;
        }
    }
}
#endif // __GLIBCXX__ && _GLIBCXX_RELEASE == 12

// ---------------------------------------------------------------------
// CachedSeedEngine must be a drop-in for std::mt19937_64: the raw
// uint64 stream and every distribution built on it have to match bit
// for bit, including past the cached first block (312 outputs) and
// across several twist generations.
// ---------------------------------------------------------------------

TEST(CachedSeedEngine, MatchesStdMt19937_64)
{
    for (uint64_t seed :
         {0ULL, 1ULL, 42ULL, 0xdeadbeefULL, 0x9e3779b97f4a7c15ULL}) {
        std::mt19937_64 reference(seed);
        CachedSeedEngine engine(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(engine(), reference())
                << "seed " << seed << " draw " << i;
    }
}

TEST(CachedSeedEngine, SharedBlockStreamsAreIndependent)
{
    // Two engines on the same seed share the cached block but must
    // advance independently.
    CachedSeedEngine a(77), b(77);
    std::mt19937_64 reference(77);
    uint64_t first = reference();
    EXPECT_EQ(a(), first);
    for (int i = 0; i < 500; ++i)
        a();
    EXPECT_EQ(b(), first);
}

TEST(SeededStream, MatchesRngDistributions)
{
    for (uint64_t seed : {3ULL, 0xfeedULL}) {
        Rng rng(seed);
        SeededStream stream(seed);
        for (int i = 0; i < 200; ++i) {
            ASSERT_DOUBLE_EQ(stream.exponential(45.0),
                             rng.exponential(45.0));
            ASSERT_DOUBLE_EQ(stream.normal(10.0, 3.0),
                             rng.normal(10.0, 3.0));
            ASSERT_DOUBLE_EQ(
                stream.truncatedNormal(1.0, 5.0, 0.5, 1.5),
                rng.truncatedNormal(1.0, 5.0, 0.5, 1.5));
            ASSERT_DOUBLE_EQ(stream.uniform(2.0, 6.0),
                             rng.uniform(2.0, 6.0));
        }
    }
}

TEST(SeededStream, NextRawMirrorsFork)
{
    // SeededStream(parent.nextRaw()) must equal parent.fork(): that is
    // the contract the AOR generator's per-process streams rely on.
    Rng rng_parent(91);
    SeededStream stream_parent(91);
    for (int p = 0; p < 20; ++p) {
        Rng rng_child = rng_parent.fork();
        SeededStream stream_child(stream_parent.nextRaw());
        for (int i = 0; i < 50; ++i)
            ASSERT_DOUBLE_EQ(stream_child.exponential(100.0),
                             rng_child.exponential(100.0));
    }
}

} // namespace
} // namespace dcbatt::util
