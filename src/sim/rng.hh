/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * We avoid std::mt19937 + std:: distributions because their output is
 * not guaranteed identical across standard-library implementations;
 * benchmark results must be bit-reproducible anywhere. The generator
 * is xoshiro256++ seeded via splitmix64, with hand-rolled uniform,
 * exponential, normal, and log-normal transforms.
 */

#ifndef HALSIM_SIM_RNG_HH
#define HALSIM_SIM_RNG_HH

#include <array>
#include <cassert>
#include <cstdint>

namespace halsim {

/**
 * xoshiro256++ PRNG with distribution helpers.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion so any 64-bit seed is usable. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); @p n must be > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        assert(n > 0);
        // Rejection sampling to remove modulo bias.
        const std::uint64_t limit =
            ~std::uint64_t{0} - (~std::uint64_t{0} % n);
        std::uint64_t v;
        do {
            v = next();
        } while (v >= limit);
        return v % n;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + uniformInt(hi - lo + 1);
    }

    /** Bernoulli trial with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Exponential variate with mean @p mean. */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller with caching). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double
    normal(double mean, double sigma)
    {
        return mean + sigma * normal();
    }

    /** Log-normal variate: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Fork an independent stream (distinct but reproducible). */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> s_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace halsim

#endif // HALSIM_SIM_RNG_HH
