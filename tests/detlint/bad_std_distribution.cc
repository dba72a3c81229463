// detlint fixture: standard-library samplers in deterministic-module
// code. Their algorithms are implementation-defined, so the same seed
// can give different bytes under another standard library; every draw
// goes through util::Rng / util::SeededStream instead.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace fixture {

double jitter(std::mt19937_64 &engine)
{
    std::normal_distribution<double> noise(0.0, 1.0);  // detlint: expect(std-distribution)
    return noise(engine);
}

int64_t pick(std::mt19937_64 &engine, int64_t n)
{
    return std::uniform_int_distribution<int64_t>(0, n - 1)(engine);  // detlint: expect(std-distribution)
}

double unit(std::mt19937_64 &engine)
{
    return std::generate_canonical<double, 53>(engine);  // detlint: expect(std-distribution)
}

void permute(std::vector<int> &v, std::mt19937_64 &engine)
{
    std::shuffle(v.begin(), v.end(), engine);  // detlint: expect(std-distribution)
}

// False-positive guards: the engine itself is fully specified by the
// standard, and names that merely contain the words are not samplers.
uint64_t raw(std::mt19937_64 &engine)
{
    return engine();
}

struct Histogram
{
    std::vector<double> load_distribution;
    void shuffle_free() {}
};

} // namespace fixture
