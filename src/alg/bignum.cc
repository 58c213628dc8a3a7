#include "alg/bignum.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace halsim::alg {

namespace {

using Limb = std::uint32_t;
using DLimb = std::uint64_t;
constexpr unsigned kLimbBits = 32;

/** -m^-1 mod 2^32 for odd m, by Newton iteration. */
Limb
montInverse(Limb m0)
{
    assert(m0 & 1);
    Limb x = 1;
    for (int i = 0; i < 5; ++i)
        x *= 2 - m0 * x;   // doubles correct bits each round
    return static_cast<Limb>(0) - x;
}

/**
 * Montgomery CIOS multiply-reduce: returns a*b*R^-1 mod m where
 * R = 2^(32n). All operands are n limbs, a,b < m, m odd.
 */
void
montMul(const std::vector<Limb> &a, const std::vector<Limb> &b,
        const std::vector<Limb> &m, Limb mprime, std::vector<Limb> &out,
        std::vector<Limb> &t)
{
    const std::size_t n = m.size();
    t.assign(n + 2, 0);

    for (std::size_t i = 0; i < n; ++i) {
        const DLimb ai = i < a.size() ? a[i] : 0;
        // t += ai * b
        DLimb carry = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const DLimb bj = j < b.size() ? b[j] : 0;
            const DLimb cur = t[j] + ai * bj + carry;
            t[j] = static_cast<Limb>(cur);
            carry = cur >> kLimbBits;
        }
        DLimb cur = static_cast<DLimb>(t[n]) + carry;
        t[n] = static_cast<Limb>(cur);
        t[n + 1] = static_cast<Limb>(cur >> kLimbBits);

        // Reduce: add mf * m and shift one limb.
        const Limb mf = static_cast<Limb>(t[0] * mprime);
        carry = (static_cast<DLimb>(t[0]) +
                 static_cast<DLimb>(mf) * m[0]) >> kLimbBits;
        for (std::size_t j = 1; j < n; ++j) {
            const DLimb c2 =
                t[j] + static_cast<DLimb>(mf) * m[j] + carry;
            t[j - 1] = static_cast<Limb>(c2);
            carry = c2 >> kLimbBits;
        }
        cur = static_cast<DLimb>(t[n]) + carry;
        t[n - 1] = static_cast<Limb>(cur);
        t[n] = t[n + 1] + static_cast<Limb>(cur >> kLimbBits);
        t[n + 1] = 0;
    }

    // t[0..n] holds the result; subtract m once if needed.
    bool ge = t[n] != 0;
    if (!ge) {
        ge = true;
        for (std::size_t i = n; i-- > 0;) {
            if (t[i] != m[i]) {
                ge = t[i] > m[i];
                break;
            }
        }
    }
    out.assign(t.begin(), t.begin() + n);
    if (ge) {
        DLimb borrow = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const DLimb diff =
                static_cast<DLimb>(out[i]) - m[i] - borrow;
            out[i] = static_cast<Limb>(diff);
            borrow = (diff >> kLimbBits) & 1;
        }
    }
}

} // namespace

BigUint::BigUint(std::uint64_t v)
{
    if (v != 0)
        limbs_.push_back(static_cast<Limb>(v));
    if (v >> 32)
        limbs_.push_back(static_cast<Limb>(v >> 32));
}

void
BigUint::trim()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
}

BigUint
BigUint::fromHex(const std::string &hex)
{
    BigUint r;
    for (char ch : hex) {
        if (ch == ' ' || ch == '_')
            continue;
        int v;
        if (ch >= '0' && ch <= '9')
            v = ch - '0';
        else if (ch >= 'a' && ch <= 'f')
            v = ch - 'a' + 10;
        else if (ch >= 'A' && ch <= 'F')
            v = ch - 'A' + 10;
        else
            throw std::invalid_argument("bad hex digit");
        r = (r << 4) + BigUint(static_cast<std::uint64_t>(v));
    }
    return r;
}

BigUint
BigUint::fromBytes(std::span<const std::uint8_t> bytes)
{
    BigUint r;
    for (std::uint8_t b : bytes)
        r = (r << 8) + BigUint(b);
    return r;
}

BigUint
BigUint::randomBits(unsigned bits, halsim::Rng &rng)
{
    assert(bits > 0);
    BigUint r;
    const unsigned nlimbs = (bits + kLimbBits - 1) / kLimbBits;
    r.limbs_.resize(nlimbs);
    for (auto &l : r.limbs_)
        l = static_cast<Limb>(rng.next());
    const unsigned top = (bits - 1) % kLimbBits;
    r.limbs_.back() &= (top == 31) ? ~Limb{0} : ((Limb{1} << (top + 1)) - 1);
    r.limbs_.back() |= Limb{1} << top;   // force exact bit length
    r.trim();
    return r;
}

BigUint
BigUint::randomBelow(const BigUint &n, halsim::Rng &rng)
{
    assert(n >= BigUint(2));
    const unsigned bits = n.bitLength();
    for (;;) {
        BigUint c = randomBits(bits, rng);
        // randomBits forces the MSB; also try with it cleared for
        // uniformity over the low range.
        if (rng.chance(0.5) && bits > 1)
            c = c - (BigUint(1) << (bits - 1));
        if (!c.isZero() && c < n)
            return c;
    }
}

std::string
BigUint::toHex() const
{
    if (isZero())
        return "0";
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int shift = 28; shift >= 0; shift -= 4)
            s.push_back(digits[(limbs_[i] >> shift) & 0xf]);
    }
    const std::size_t nz = s.find_first_not_of('0');
    return s.substr(nz);
}

std::vector<std::uint8_t>
BigUint::toBytes() const
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 24));
        out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 16));
        out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 8));
        out.push_back(static_cast<std::uint8_t>(limbs_[i]));
    }
    while (out.size() > 1 && out.front() == 0)
        out.erase(out.begin());
    return out;
}

unsigned
BigUint::bitLength() const
{
    if (limbs_.empty())
        return 0;
    unsigned bits = static_cast<unsigned>(limbs_.size()) * kLimbBits;
    Limb top = limbs_.back();
    for (Limb probe = Limb{1} << 31; probe != 0 && !(top & probe);
         probe >>= 1) {
        --bits;
    }
    return bits;
}

bool
BigUint::bit(unsigned i) const
{
    const std::size_t limb = i / kLimbBits;
    if (limb >= limbs_.size())
        return false;
    return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

std::uint64_t
BigUint::toUint64() const
{
    std::uint64_t v = 0;
    if (!limbs_.empty())
        v = limbs_[0];
    if (limbs_.size() > 1)
        v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    return v;
}

int
BigUint::compare(const BigUint &o) const
{
    if (limbs_.size() != o.limbs_.size())
        return limbs_.size() < o.limbs_.size() ? -1 : 1;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != o.limbs_[i])
            return limbs_[i] < o.limbs_[i] ? -1 : 1;
    }
    return 0;
}

BigUint
BigUint::operator+(const BigUint &o) const
{
    BigUint r;
    const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
    r.limbs_.resize(n + 1, 0);
    DLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const DLimb a = i < limbs_.size() ? limbs_[i] : 0;
        const DLimb b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const DLimb sum = a + b + carry;
        r.limbs_[i] = static_cast<Limb>(sum);
        carry = sum >> kLimbBits;
    }
    r.limbs_[n] = static_cast<Limb>(carry);
    r.trim();
    return r;
}

BigUint
BigUint::operator-(const BigUint &o) const
{
    assert(*this >= o && "unsigned underflow");
    BigUint r;
    r.limbs_.resize(limbs_.size(), 0);
    DLimb borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const DLimb b = i < o.limbs_.size() ? o.limbs_[i] : 0;
        const DLimb diff = static_cast<DLimb>(limbs_[i]) - b - borrow;
        r.limbs_[i] = static_cast<Limb>(diff);
        borrow = (diff >> kLimbBits) & 1;
    }
    r.trim();
    return r;
}

BigUint
BigUint::operator*(const BigUint &o) const
{
    if (isZero() || o.isZero())
        return BigUint();
    BigUint r;
    r.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        DLimb carry = 0;
        for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
            const DLimb cur = r.limbs_[i + j] +
                              static_cast<DLimb>(limbs_[i]) * o.limbs_[j] +
                              carry;
            r.limbs_[i + j] = static_cast<Limb>(cur);
            carry = cur >> kLimbBits;
        }
        r.limbs_[i + o.limbs_.size()] += static_cast<Limb>(carry);
    }
    r.trim();
    return r;
}

BigUint
BigUint::operator<<(unsigned n) const
{
    if (isZero() || n == 0)
        return *this;
    const unsigned limb_shift = n / kLimbBits;
    const unsigned bit_shift = n % kLimbBits;
    BigUint r;
    r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        r.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
        if (bit_shift != 0) {
            r.limbs_[i + limb_shift + 1] |=
                static_cast<Limb>(static_cast<DLimb>(limbs_[i]) >>
                                  (kLimbBits - bit_shift));
        }
    }
    r.trim();
    return r;
}

BigUint
BigUint::operator>>(unsigned n) const
{
    const unsigned limb_shift = n / kLimbBits;
    const unsigned bit_shift = n % kLimbBits;
    if (limb_shift >= limbs_.size())
        return BigUint();
    BigUint r;
    r.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
        r.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
        if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
            r.limbs_[i] |= static_cast<Limb>(
                static_cast<DLimb>(limbs_[i + limb_shift + 1])
                << (kLimbBits - bit_shift));
        }
    }
    r.trim();
    return r;
}

BigUintDivMod
BigUint::divmod(const BigUint &d) const
{
    assert(!d.isZero() && "division by zero");
    BigUintDivMod res;
    if (*this < d) {
        res.remainder = *this;
        return res;
    }

    // Single-limb divisor: simple schoolbook pass.
    if (d.limbs_.size() == 1) {
        const DLimb v = d.limbs_[0];
        res.quotient.limbs_.assign(limbs_.size(), 0);
        DLimb rem = 0;
        for (std::size_t i = limbs_.size(); i-- > 0;) {
            const DLimb cur = (rem << kLimbBits) | limbs_[i];
            res.quotient.limbs_[i] = static_cast<Limb>(cur / v);
            rem = cur % v;
        }
        res.quotient.trim();
        res.remainder = BigUint(static_cast<std::uint64_t>(rem));
        return res;
    }

    // Knuth TAOCP vol. 2, Algorithm D (base 2^32).
    const std::size_t n = d.limbs_.size();
    const std::size_t m = limbs_.size() - n;

    // D1: normalize so the divisor's top limb has its MSB set.
    unsigned shift = 0;
    for (Limb top = d.limbs_.back(); !(top & 0x80000000u); top <<= 1)
        ++shift;
    const BigUint vn = d << shift;
    BigUint un = *this << shift;
    un.limbs_.resize(limbs_.size() + 1, 0);   // u has m+n+1 limbs

    const std::vector<Limb> &v = vn.limbs_;
    std::vector<Limb> &u = un.limbs_;
    res.quotient.limbs_.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        // D3: estimate qhat from the top two dividend limbs.
        const DLimb num =
            (static_cast<DLimb>(u[j + n]) << kLimbBits) | u[j + n - 1];
        DLimb qhat = num / v[n - 1];
        DLimb rhat = num % v[n - 1];
        while (qhat >= (DLimb{1} << kLimbBits) ||
               qhat * v[n - 2] >
                   ((rhat << kLimbBits) | u[j + n - 2])) {
            --qhat;
            rhat += v[n - 1];
            if (rhat >= (DLimb{1} << kLimbBits))
                break;
        }

        // D4: multiply-subtract qhat * v from u[j .. j+n].
        std::int64_t borrow = 0;
        DLimb carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const DLimb prod = qhat * v[i] + carry;
            carry = prod >> kLimbBits;
            const std::int64_t diff =
                static_cast<std::int64_t>(u[i + j]) -
                static_cast<std::int64_t>(prod & 0xffffffffu) + borrow;
            u[i + j] = static_cast<Limb>(diff);
            borrow = diff >> kLimbBits;   // arithmetic shift: 0 or -1
        }
        const std::int64_t diff =
            static_cast<std::int64_t>(u[j + n]) -
            static_cast<std::int64_t>(carry) + borrow;
        u[j + n] = static_cast<Limb>(diff);

        // D5/D6: qhat was (rarely) one too large; add the divisor
        // back and decrement.
        if (diff < 0) {
            --qhat;
            DLimb add_carry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const DLimb sum =
                    static_cast<DLimb>(u[i + j]) + v[i] + add_carry;
                u[i + j] = static_cast<Limb>(sum);
                add_carry = sum >> kLimbBits;
            }
            u[j + n] = static_cast<Limb>(u[j + n] + add_carry);
        }
        res.quotient.limbs_[j] = static_cast<Limb>(qhat);
    }

    // D8: the remainder is u[0..n) shifted back.
    BigUint rem;
    rem.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
    rem.trim();
    res.remainder = rem >> shift;
    res.quotient.trim();
    return res;
}

BigUint
BigUint::modexp(const BigUint &e, const BigUint &m) const
{
    assert(!m.isZero());
    if (m == BigUint(1))
        return BigUint();
    if (e.isZero())
        return BigUint(1);

    const BigUint base = *this % m;

    if (m.isOdd()) {
        // Montgomery ladder over R = 2^(32n).
        const std::size_t n = m.limbs_.size();
        const Limb mp = montInverse(m.limbs_[0]);
        // R mod m and base*R mod m via one divmod each.
        BigUint r1 = (BigUint(1) << (static_cast<unsigned>(n) * kLimbBits))
                     % m;
        BigUint bm = (base << (static_cast<unsigned>(n) * kLimbBits)) % m;
        std::vector<Limb> acc = r1.limbs_;
        acc.resize(n, 0);
        std::vector<Limb> bmont = bm.limbs_;
        bmont.resize(n, 0);
        std::vector<Limb> tmp, scratch;
        tmp.reserve(n);
        scratch.reserve(n + 2);
        for (unsigned i = e.bitLength(); i-- > 0;) {
            montMul(acc, acc, m.limbs_, mp, tmp, scratch);
            acc.swap(tmp);
            if (e.bit(i)) {
                montMul(acc, bmont, m.limbs_, mp, tmp, scratch);
                acc.swap(tmp);
            }
        }
        // Convert out of Montgomery form: multiply by 1.
        std::vector<Limb> one(n, 0);
        one[0] = 1;
        montMul(acc, one, m.limbs_, mp, tmp, scratch);
        BigUint out;
        out.limbs_ = std::move(tmp);
        out.trim();
        return out;
    }

    // Even modulus: plain square-and-multiply with divmod reduction.
    BigUint result(1);
    BigUint b = base;
    for (unsigned i = 0; i < e.bitLength(); ++i) {
        if (e.bit(i))
            result = (result * b) % m;
        b = (b * b) % m;
    }
    return result;
}

bool
BigUint::isProbablePrime(halsim::Rng &rng, int rounds) const
{
    if (*this < BigUint(2))
        return false;
    for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull,
                            19ull, 23ull, 29ull, 31ull, 37ull}) {
        const BigUint bp(p);
        if (*this == bp)
            return true;
        if ((*this % bp).isZero())
            return false;
    }
    // Write n-1 = d * 2^r.
    const BigUint n1 = *this - BigUint(1);
    BigUint d = n1;
    unsigned r = 0;
    while (!d.isOdd()) {
        d = d >> 1;
        ++r;
    }
    for (int i = 0; i < rounds; ++i) {
        const BigUint a = randomBelow(*this, rng);
        BigUint x = a.modexp(d, *this);
        if (x == BigUint(1) || x == n1)
            continue;
        bool witness = true;
        for (unsigned j = 1; j < r; ++j) {
            x = x.modexp(BigUint(2), *this);
            if (x == n1) {
                witness = false;
                break;
            }
        }
        if (witness)
            return false;
    }
    return true;
}

namespace groups {

BigUint
prime512()
{
    // Deterministically generated once: search upward from a fixed
    // random 512-bit odd start until Miller-Rabin accepts.
    static const BigUint p = [] {
        halsim::Rng rng(0x512512);
        BigUint c = BigUint::randomBits(512, rng);
        if (!c.isOdd())
            c = c + BigUint(1);
        while (!c.isProbablePrime(rng, 12))
            c = c + BigUint(2);
        return c;
    }();
    return p;
}

} // namespace groups

} // namespace halsim::alg
