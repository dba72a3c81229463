#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/logging.h"

namespace dcbatt::util {

namespace {

// ---------------------------------------------------------------------
// Shared distribution bodies. Rng and SeededStream must produce the
// same doubles from the same underlying uint64 stream, so both call
// through these templates — the expressions (and therefore the draw
// counts and rounding) cannot drift apart. Each one is the expression
// libstdc++ 12 evaluates for a 64-bit engine, written out here so no
// library can change it (see the file comment in random.h).
// ---------------------------------------------------------------------

/**
 * Uniform double in [0, 1) from one 64-bit draw: the draw scaled by
 * 2^-64 (generate_canonical<double, 53> with a full-range 64-bit
 * engine). The largest draws round up to 1.0 in the conversion; those
 * return the largest double below 1 instead.
 */
template <typename Engine>
double
drawCanonical(Engine &engine)
{
    double u = static_cast<double>(engine()) * 0x1p-64;
    if (u >= 1.0) [[unlikely]]
        u = std::nextafter(1.0, 0.0);
    return u;
}

template <typename Engine>
double
drawUniform(Engine &engine, double lo, double hi)
{
    return drawCanonical(engine) * (hi - lo) + lo;
}

template <typename Engine>
double
drawExponential(Engine &engine, double mean)
{
    if (mean <= 0.0)
        panic(strf("Rng::exponential: nonpositive mean %g", mean));
    // Inversion with rate 1/mean; dividing by the rate (rather than
    // multiplying by the mean) is part of the pinned expression.
    const double rate = 1.0 / mean;
    return -std::log(1.0 - drawCanonical(engine)) / rate;
}

/**
 * One Marsaglia polar iteration: a point uniform in the unit disc
 * (rejecting r^2 > 1 and the origin), then both standard-normal
 * variates y*mult (@p z0, the one a single draw returns) and x*mult
 * (@p z1).
 */
template <typename Engine>
void
drawStandardNormalPair(Engine &engine, double &z0, double &z1)
{
    double x = 0.0, y = 0.0, r2 = 0.0;
    do {
        x = 2.0 * drawCanonical(engine) - 1.0;
        y = 2.0 * drawCanonical(engine) - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    z0 = y * mult;
    z1 = x * mult;
}

template <typename Engine>
double
drawNormal(Engine &engine, double mean, double stddev)
{
    // One polar iteration per draw and the second variate discarded:
    // no carried state, so the result is a pure function of the
    // engine stream.
    double z0 = 0.0, z1 = 0.0;
    drawStandardNormalPair(engine, z0, z1);
    return z0 * stddev + mean;
}

template <typename Engine>
double
drawTruncatedNormal(Engine &engine, double mean, double stddev,
                    double lo, double hi)
{
    if (lo > hi)
        panic("Rng::truncatedNormal: lo > hi");
    for (int attempt = 0; attempt < 64; ++attempt) {
        double x = drawNormal(engine, mean, stddev);
        if (x >= lo && x <= hi)
            return x;
    }
    return std::clamp(mean, lo, hi);
}

/**
 * Uniform integer in [lo, hi] by Lemire's nearly-divisionless method
 * (ACM TOMACS 29(1), 2019): the high word of draw * range, redrawing
 * while the low word falls below 2^64 mod range. The full 64-bit
 * range takes the raw draw.
 */
template <typename Engine>
int64_t
drawUniformInt(Engine &engine, int64_t lo, int64_t hi)
{
    if (lo > hi)
        panic("Rng::uniformInt: lo > hi");
    using u128 = unsigned __int128;
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    uint64_t offset = 0;
    if (span == ~uint64_t{0}) {
        offset = engine();
    } else {
        const uint64_t range = span + 1;
        u128 product = static_cast<u128>(engine()) * range;
        auto low = static_cast<uint64_t>(product);
        if (low < range) {
            const uint64_t threshold = -range % range;
            while (low < threshold) {
                product = static_cast<u128>(engine()) * range;
                low = static_cast<uint64_t>(product);
            }
        }
        offset = static_cast<uint64_t>(product >> 64);
    }
    return static_cast<int64_t>(offset + static_cast<uint64_t>(lo));
}

// ---------------------------------------------------------------------
// MT19937-64 core (matches std::mt19937_64's parameters; the
// CachedSeedEngine differential test pins equality). Only the seeding
// and twist live here — tempering is inline in the header.
// ---------------------------------------------------------------------

constexpr size_t kMtN = 312;
constexpr size_t kMtM = 156;
constexpr uint64_t kMtMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kMtUpperMask = 0xFFFFFFFF80000000ULL;
constexpr uint64_t kMtLowerMask = 0x7FFFFFFFULL;

void
mtSeedState(uint64_t seed, std::array<uint64_t, kMtN> &mt)
{
    mt[0] = seed;
    for (size_t i = 1; i < kMtN; ++i)
        mt[i] = 6364136223846793005ULL * (mt[i - 1] ^ (mt[i - 1] >> 62))
            + i;
}

void
mtTwistState(std::array<uint64_t, kMtN> &mt)
{
    for (size_t i = 0; i < kMtN; ++i) {
        uint64_t y = (mt[i] & kMtUpperMask)
            | (mt[(i + 1) % kMtN] & kMtLowerMask);
        mt[i] = mt[(i + kMtM) % kMtN] ^ (y >> 1)
            ^ ((y & 1) ? kMtMatrixA : 0);
    }
}

} // namespace

std::shared_ptr<const CachedSeedEngine::Block>
CachedSeedEngine::blockForSeed(uint64_t seed)
{
    // Pure memoization of seed -> first output block. Thread-local so
    // pool workers never contend; shard results stay a function of the
    // seed alone, never of which thread computed them.
    thread_local std::unordered_map<uint64_t,
                                    std::shared_ptr<const Block>>
        cache;
    // detlint note: the map is lookup-only memoization, never
    // iterated, so its ordering cannot leak into results.
    if (auto it = cache.find(seed); it != cache.end())
        return it->second;
    if (cache.size() >= 1024)
        cache.clear(); // engines hold shared_ptrs; eviction is safe
    auto block = std::make_shared<Block>();
    mtSeedState(seed, block->state);
    mtTwistState(block->state);
    for (size_t i = 0; i < kStateWords; ++i)
        block->out[i] = temper(block->state[i]);
    cache.emplace(seed, block);
    return block;
}

void
CachedSeedEngine::advanceBlock()
{
    if (!materialized_) {
        mt_ = block_->state;
        materialized_ = true;
    }
    mtTwistState(mt_);
    idx_ = 0;
}

double
Rng::uniform()
{
    return drawUniform(engine_, 0.0, 1.0);
}

double
Rng::uniform(double lo, double hi)
{
    return drawUniform(engine_, lo, hi);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    return drawUniformInt(engine_, lo, hi);
}

double
Rng::exponential(double mean)
{
    return drawExponential(engine_, mean);
}

double
Rng::normal(double mean, double stddev)
{
    return drawNormal(engine_, mean, stddev);
}

void
Rng::standardNormalPair(double &z0, double &z1)
{
    drawStandardNormalPair(engine_, z0, z1);
}

double
Rng::truncatedNormal(double mean, double stddev, double lo, double hi)
{
    return drawTruncatedNormal(engine_, mean, stddev, lo, hi);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    // Derive a child seed from the parent stream so that forked
    // generators are independent but still fully determined by the
    // original seed.
    return Rng(engine_());
}

namespace {

/** SplitMix64 finalizer (Steele, Lea & Flood; public domain). */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
Rng::substreamSeed(uint64_t seed, uint64_t index)
{
    // Two SplitMix64 rounds keyed on (seed, index); a pure function of
    // the construction seed and the counter.
    return splitmix64(splitmix64(seed) ^ splitmix64(index));
}

Rng
Rng::substream(uint64_t index) const
{
    // Never touches engine_, so the mapping is independent of how many
    // draws the parent has made.
    return Rng(substreamSeed(seed_, index));
}

double
SeededStream::uniform(double lo, double hi)
{
    return drawUniform(engine_, lo, hi);
}

double
SeededStream::exponential(double mean)
{
    return drawExponential(engine_, mean);
}

double
SeededStream::normal(double mean, double stddev)
{
    return drawNormal(engine_, mean, stddev);
}

double
SeededStream::truncatedNormal(double mean, double stddev, double lo,
                              double hi)
{
    return drawTruncatedNormal(engine_, mean, stddev, lo, hi);
}

} // namespace dcbatt::util
