#include "sim/rng.hh"

#include <cassert>
#include <cmath>

namespace halsim {

namespace {

/** splitmix64 step, used only for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &w : s_)
        w = splitmix64(x);
    // All-zero state is a fixed point of xoshiro; splitmix64 output
    // cannot produce four zeros from any seed, but guard anyway.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 1;
}

double
Rng::exponential(double mean)
{
    assert(mean > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // Box-Muller: two uniforms -> two independent normals.
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xA5A5A5A55A5A5A5Aull);
}

} // namespace halsim
