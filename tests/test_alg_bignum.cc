/**
 * @file
 * BigUint arithmetic: identities against 64-bit reference math,
 * modular exponentiation (Fermat, RSA round-trip, DH commutativity),
 * and Miller-Rabin on small and published primes.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "alg/bignum.hh"
#include "sim/rng.hh"

using halsim::Rng;
using halsim::alg::BigUint;

namespace {

/** RFC 2409 First Oakley Group: a published 768-bit MODP prime. */
const char *const kOakley768Hex =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";

} // namespace

TEST(BigUint, BasicConstruction)
{
    EXPECT_TRUE(BigUint().isZero());
    EXPECT_TRUE(BigUint(0).isZero());
    EXPECT_EQ(BigUint(1).toUint64(), 1u);
    EXPECT_EQ(BigUint(0xffffffffffffffffull).toUint64(),
              0xffffffffffffffffull);
    EXPECT_EQ(BigUint(0x123456789abcdef0ull).toHex(), "123456789abcdef0");
}

TEST(BigUint, HexRoundTrip)
{
    const std::string h = "deadbeefcafebabe0123456789abcdef55aa";
    EXPECT_EQ(BigUint::fromHex(h).toHex(), h);
}

TEST(BigUint, BytesRoundTrip)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const BigUint a = BigUint::randomBits(
            static_cast<unsigned>(1 + rng.uniformInt(300)), rng);
        EXPECT_EQ(BigUint::fromBytes(a.toBytes()), a);
    }
}

TEST(BigUint, AddSubAgainstUint64)
{
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = rng.next() >> 2;
        const std::uint64_t b = rng.next() >> 2;
        EXPECT_EQ((BigUint(a) + BigUint(b)).toUint64(), a + b);
        const std::uint64_t hi = std::max(a, b), lo = std::min(a, b);
        EXPECT_EQ((BigUint(hi) - BigUint(lo)).toUint64(), hi - lo);
    }
}

TEST(BigUint, MulAgainstUint64)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = rng.next() >> 33;
        const std::uint64_t b = rng.next() >> 33;
        EXPECT_EQ((BigUint(a) * BigUint(b)).toUint64(), a * b);
    }
}

TEST(BigUint, DivModAgainstUint64)
{
    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = rng.next();
        const std::uint64_t b = (rng.next() >> (rng.uniformInt(60))) | 1;
        const auto dm = BigUint(a).divmod(BigUint(b));
        EXPECT_EQ(dm.quotient.toUint64(), a / b);
        EXPECT_EQ(dm.remainder.toUint64(), a % b);
    }
}

TEST(BigUint, DivModIdentityLarge)
{
    // a == q*d + r with r < d, at several hundred bits.
    Rng rng(17);
    for (int i = 0; i < 40; ++i) {
        const BigUint a = BigUint::randomBits(
            static_cast<unsigned>(100 + rng.uniformInt(400)), rng);
        const BigUint d = BigUint::randomBits(
            static_cast<unsigned>(10 + rng.uniformInt(200)), rng);
        const auto dm = a.divmod(d);
        EXPECT_TRUE(dm.remainder < d);
        EXPECT_EQ(dm.quotient * d + dm.remainder, a);
    }
}

TEST(BigUint, ShiftsAreMulDivByPowersOfTwo)
{
    Rng rng(19);
    for (int i = 0; i < 60; ++i) {
        const BigUint a = BigUint::randomBits(200, rng);
        const unsigned s = static_cast<unsigned>(rng.uniformInt(130));
        EXPECT_EQ(a << s, a * (BigUint(1) << s));
        EXPECT_EQ(a >> s, a / (BigUint(1) << s));
    }
}

TEST(BigUint, BitLength)
{
    EXPECT_EQ(BigUint(0).bitLength(), 0u);
    EXPECT_EQ(BigUint(1).bitLength(), 1u);
    EXPECT_EQ(BigUint(0xff).bitLength(), 8u);
    EXPECT_EQ((BigUint(1) << 512).bitLength(), 513u);
}

TEST(BigUint, ModexpSmallNumbers)
{
    // 3^7 mod 11 = 2187 mod 11 = 9
    EXPECT_EQ(BigUint(3).modexp(BigUint(7), BigUint(11)).toUint64(), 9u);
    // Anything^0 = 1.
    EXPECT_EQ(BigUint(5).modexp(BigUint(0), BigUint(7)).toUint64(), 1u);
    // Base larger than modulus reduces first.
    EXPECT_EQ(BigUint(100).modexp(BigUint(3), BigUint(7)).toUint64(),
              (100ull % 7) * (100 % 7) % 7 * (100 % 7) % 7);
}

TEST(BigUint, ModexpAgainstNaive64)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t base = rng.uniformInt(1, 1000);
        const std::uint64_t exp = rng.uniformInt(0, 40);
        const std::uint64_t mod = rng.uniformInt(2, 100000) | 1;
        std::uint64_t expect = 1;
        for (std::uint64_t k = 0; k < exp; ++k)
            expect = expect * base % mod;
        EXPECT_EQ(BigUint(base)
                      .modexp(BigUint(exp), BigUint(mod))
                      .toUint64(),
                  expect)
            << base << "^" << exp << " mod " << mod;
    }
}

TEST(BigUint, ModexpEvenModulus)
{
    // The Montgomery path requires odd moduli; even moduli take the
    // plain path. 3^5 mod 16 = 243 mod 16 = 3.
    EXPECT_EQ(BigUint(3).modexp(BigUint(5), BigUint(16)).toUint64(), 3u);
}

TEST(BigUint, FermatLittleTheorem)
{
    // a^(p-1) = 1 mod p for prime p, gcd(a, p) = 1.
    const BigUint p = halsim::alg::groups::prime512();
    Rng rng(29);
    for (int i = 0; i < 5; ++i) {
        const BigUint a = BigUint::randomBelow(p, rng);
        EXPECT_EQ(a.modexp(p - BigUint(1), p), BigUint(1));
    }
}

TEST(BigUint, RsaStyleRoundTrip)
{
    // Tiny RSA: p = 61, q = 53, n = 3233, e = 17, d = 413.
    const BigUint n(3233), e(17), d(413);
    for (std::uint64_t msg : {1ull, 42ull, 1234ull, 3000ull}) {
        const BigUint c = BigUint(msg).modexp(e, n);
        EXPECT_EQ(BigUint(msg), c.modexp(d, n));
    }
}

TEST(BigUint, DiffieHellmanSharedSecret)
{
    // (g^a)^b = (g^b)^a mod p: modexp commutativity.
    const BigUint p = halsim::alg::groups::prime512();
    const BigUint g(2);
    Rng rng(31);
    const BigUint a = BigUint::randomBits(160, rng);
    const BigUint b = BigUint::randomBits(160, rng);
    const BigUint ga = g.modexp(a, p);
    const BigUint gb = g.modexp(b, p);
    EXPECT_EQ(gb.modexp(a, p), ga.modexp(b, p));
}

TEST(BigUint, MillerRabinKnownPrimesAndComposites)
{
    Rng rng(41);
    for (std::uint64_t p : {2ull, 3ull, 5ull, 104729ull, 1000003ull})
        EXPECT_TRUE(BigUint(p).isProbablePrime(rng, 12)) << p;
    for (std::uint64_t c :
         {1ull, 4ull, 561ull /* Carmichael */, 104730ull, 1000001ull})
        EXPECT_FALSE(BigUint(c).isProbablePrime(rng, 12)) << c;
}

TEST(BigUint, Oakley768IsPrime)
{
    Rng rng(43);
    EXPECT_TRUE(BigUint::fromHex(kOakley768Hex).isProbablePrime(rng, 4));
}
