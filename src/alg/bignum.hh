/**
 * @file
 * Arbitrary-precision unsigned integers and modular arithmetic: the
 * public-key cryptography substrate (RSA / DH / DSA-style modexp).
 * The paper's crypto function drives the BF-2 PKA accelerator or the
 * host's QAT through OpenSSL; our functional equivalent computes the
 * same modular exponentiations with a from-scratch bignum.
 */

#ifndef HALSIM_ALG_BIGNUM_HH
#define HALSIM_ALG_BIGNUM_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace halsim::alg {

struct BigUintDivMod;

/**
 * Unsigned big integer, little-endian 32-bit limbs, always
 * normalized (no leading zero limbs; zero is an empty limb vector).
 */
class BigUint
{
  public:
    BigUint() = default;
    explicit BigUint(std::uint64_t v);

    /** Parse from big-endian hex (no 0x prefix, case-insensitive). */
    static BigUint fromHex(const std::string &hex);

    /** Parse from big-endian bytes. */
    static BigUint fromBytes(std::span<const std::uint8_t> bytes);

    /** Uniform random value with exactly @p bits bits (MSB set). */
    static BigUint randomBits(unsigned bits, halsim::Rng &rng);

    /** Uniform random value in [1, n-1]. @pre n >= 2. */
    static BigUint randomBelow(const BigUint &n, halsim::Rng &rng);

    std::string toHex() const;
    std::vector<std::uint8_t> toBytes() const;

    bool isZero() const { return limbs_.empty(); }
    bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }

    /** Number of significant bits (0 for zero). */
    unsigned bitLength() const;

    /** Value of bit @p i (0 = LSB). */
    bool bit(unsigned i) const;

    /** Low 64 bits. */
    std::uint64_t toUint64() const;

    int compare(const BigUint &o) const;
    bool operator==(const BigUint &o) const { return compare(o) == 0; }
    bool operator!=(const BigUint &o) const { return compare(o) != 0; }
    bool operator<(const BigUint &o) const { return compare(o) < 0; }
    bool operator<=(const BigUint &o) const { return compare(o) <= 0; }
    bool operator>(const BigUint &o) const { return compare(o) > 0; }
    bool operator>=(const BigUint &o) const { return compare(o) >= 0; }

    BigUint operator+(const BigUint &o) const;
    /** @pre *this >= o (unsigned subtraction). */
    BigUint operator-(const BigUint &o) const;
    BigUint operator*(const BigUint &o) const;
    BigUint operator<<(unsigned n) const;
    BigUint operator>>(unsigned n) const;

    /** Quotient and remainder in one pass. @pre !d.isZero(). */
    BigUintDivMod divmod(const BigUint &d) const;

    BigUint operator/(const BigUint &d) const;
    BigUint operator%(const BigUint &d) const;

    /** (this ^ e) mod m via left-to-right square-and-multiply. */
    BigUint modexp(const BigUint &e, const BigUint &m) const;

    /** Miller-Rabin probable-prime test with @p rounds witnesses. */
    bool isProbablePrime(halsim::Rng &rng, int rounds = 16) const;

  private:
    void trim();

    std::vector<std::uint32_t> limbs_;
};

/** Result pair of BigUint::divmod(). */
struct BigUintDivMod
{
    BigUint quotient;
    BigUint remainder;
};

inline BigUint
BigUint::operator/(const BigUint &d) const
{
    return divmod(d).quotient;
}

inline BigUint
BigUint::operator%(const BigUint &d) const
{
    return divmod(d).remainder;
}

/**
 * Fixed prime moduli, so the crypto function need not generate primes
 * per run.
 */
namespace groups {

/** A fixed 512-bit probable prime: the crypto function's modulus. */
BigUint prime512();

} // namespace groups

} // namespace halsim::alg

#endif // HALSIM_ALG_BIGNUM_HH
