#include "alg/deflate.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace halsim::alg {

namespace {

// RFC 1951 length/distance code tables.
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;

constexpr std::uint16_t kLengthBase[29] = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43,
    51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLengthExtra[29] = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4,
    4, 4, 5, 5, 5, 5, 0};
constexpr std::uint16_t kDistBase[30] = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257,
    385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289,
    16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9,
    10, 10, 11, 11, 12, 12, 13, 13};

/** Order in which code-length-code lengths are transmitted. */
constexpr std::uint8_t kClPermutation[19] = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

/** Length (bytes) -> length code index 0..28. */
int
lengthCode(int len)
{
    assert(len >= kMinMatch && len <= kMaxMatch);
    for (int c = 28; c >= 0; --c)
        if (len >= kLengthBase[c])
            return c;
    return 0;
}

/** Distance -> distance code index 0..29. */
int
distCode(int dist)
{
    assert(dist >= 1 && dist <= kWindowSize);
    for (int c = 29; c >= 0; --c)
        if (dist >= kDistBase[c])
            return c;
    return 0;
}

/** LSB-first bit writer per the DEFLATE bit packing rules. */
class BitWriter
{
  public:
    /** Append @p nbits of @p value, LSB first. */
    void
    writeBits(std::uint32_t value, int nbits)
    {
        acc_ |= static_cast<std::uint64_t>(
                    value & ((nbits < 32 ? (1u << nbits) : 0u) - 1u))
                << filled_;
        filled_ += nbits;
        while (filled_ >= 8) {
            out_.push_back(static_cast<std::uint8_t>(acc_));
            acc_ >>= 8;
            filled_ -= 8;
        }
    }

    /** Append a Huffman code: code bits are emitted MSB-first. */
    void
    writeCode(std::uint32_t code, int nbits)
    {
        std::uint32_t rev = 0;
        for (int i = 0; i < nbits; ++i)
            rev |= ((code >> i) & 1u) << (nbits - 1 - i);
        writeBits(rev, nbits);
    }

    /** Pad to a byte boundary with zero bits. */
    void
    align()
    {
        if (filled_ > 0) {
            out_.push_back(static_cast<std::uint8_t>(acc_));
            acc_ = 0;
            filled_ = 0;
        }
    }

    void
    writeByte(std::uint8_t b)
    {
        assert(filled_ == 0);
        out_.push_back(b);
    }

    std::vector<std::uint8_t>
    take()
    {
        align();
        return std::move(out_);
    }

  private:
    std::vector<std::uint8_t> out_;
    std::uint64_t acc_ = 0;
    int filled_ = 0;
};

/** LSB-first bit reader. */
class BitReader
{
  public:
    explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint32_t
    readBits(int nbits)
    {
        while (filled_ < nbits) {
            if (pos_ >= data_.size())
                throw std::runtime_error("deflate: truncated stream");
            acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << filled_;
            filled_ += 8;
        }
        const std::uint32_t v =
            static_cast<std::uint32_t>(acc_ & ((1u << nbits) - 1));
        acc_ >>= nbits;
        filled_ -= nbits;
        return v;
    }

    /** Read one Huffman-coded bit (same order as readBits(1)). */
    std::uint32_t readBit() { return readBits(1); }

    void
    align()
    {
        acc_ = 0;
        filled_ = 0;
    }

    std::uint8_t
    readByte()
    {
        assert(filled_ == 0);
        if (pos_ >= data_.size())
            throw std::runtime_error("deflate: truncated stream");
        return data_[pos_++];
    }

  private:
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0;
    int filled_ = 0;
};

/** Fixed literal/length code for symbol 0..287: (code, bits). */
std::pair<std::uint32_t, int>
fixedLitCode(int sym)
{
    if (sym <= 143)
        return {0x30 + sym, 8};               // 00110000 ..
    if (sym <= 255)
        return {0x190 + (sym - 144), 9};      // 110010000 ..
    if (sym <= 279)
        return {sym - 256, 7};                // 0000000 ..
    return {0xc0 + (sym - 280), 8};           // 11000000 ..
}

/**
 * Canonical Huffman decoder: per-length first-code tables plus the
 * symbol list sorted by (length, symbol).
 */
class CanonicalDecoder
{
  public:
    explicit CanonicalDecoder(const std::vector<std::uint8_t> &lengths)
    {
        maxLen_ = 0;
        for (std::uint8_t l : lengths)
            maxLen_ = std::max<int>(maxLen_, l);
        if (maxLen_ == 0)
            return;
        count_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
        for (std::uint8_t l : lengths)
            if (l > 0)
                ++count_[l];
        firstCode_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
        firstIndex_.assign(static_cast<std::size_t>(maxLen_) + 1, 0);
        std::uint32_t code = 0, index = 0;
        for (int len = 1; len <= maxLen_; ++len) {
            code = (code + count_[static_cast<std::size_t>(len) - 1])
                   << 1;
            firstCode_[static_cast<std::size_t>(len)] = code;
            firstIndex_[static_cast<std::size_t>(len)] = index;
            index += count_[static_cast<std::size_t>(len)];
        }
        symbols_.resize(index);
        std::uint32_t pos = 0;
        for (int len = 1; len <= maxLen_; ++len)
            for (std::size_t s = 0; s < lengths.size(); ++s)
                if (lengths[s] == len)
                    symbols_[pos++] = static_cast<std::uint16_t>(s);
    }

    bool usable() const { return maxLen_ > 0; }

    int
    decode(BitReader &br) const
    {
        std::uint32_t code = 0;
        for (int len = 1; len <= maxLen_; ++len) {
            code = (code << 1) | br.readBit();
            const std::uint32_t first =
                firstCode_[static_cast<std::size_t>(len)];
            const std::uint32_t cnt =
                count_[static_cast<std::size_t>(len)];
            if (cnt != 0 && code >= first && code - first < cnt) {
                return symbols_[firstIndex_[static_cast<std::size_t>(
                                    len)] +
                                (code - first)];
            }
        }
        throw std::runtime_error("deflate: invalid Huffman code");
    }

  private:
    int maxLen_ = 0;
    std::vector<std::uint32_t> count_, firstCode_, firstIndex_;
    std::vector<std::uint16_t> symbols_;
};

/** Write literal/length symbol 0..287 with its fixed code. */
void
writeFixedLitLen(BitWriter &bw, int sym)
{
    const auto [code, bits] = fixedLitCode(sym);
    bw.writeCode(code, bits);
}

/** Write one (length, distance) match with the fixed codes. */
void
writeFixedMatch(BitWriter &bw, int len, int dist)
{
    const int lc = lengthCode(len);
    writeFixedLitLen(bw, 257 + lc);
    if (kLengthExtra[lc])
        bw.writeBits(static_cast<std::uint32_t>(len - kLengthBase[lc]),
                     kLengthExtra[lc]);
    const int dc = distCode(dist);
    bw.writeCode(static_cast<std::uint32_t>(dc), 5);
    if (kDistExtra[dc])
        bw.writeBits(static_cast<std::uint32_t>(dist - kDistBase[dc]),
                     kDistExtra[dc]);
}

} // namespace

std::vector<std::uint8_t>
deflateCompress(std::span<const std::uint8_t> input, unsigned max_chain)
{
    const std::uint8_t *in = input.data();
    const std::size_t n = input.size();

    // Hash chains over 3-byte prefixes.
    constexpr std::size_t kHashBits = 15;
    constexpr std::size_t kHashSize = 1u << kHashBits;
    std::vector<std::int32_t> head(kHashSize, -1);
    std::vector<std::int32_t> prev(std::max<std::size_t>(n, 1), -1);

    auto hash3 = [&](std::size_t i) {
        const std::uint32_t h = (std::uint32_t{in[i]} << 16) ^
                                (std::uint32_t{in[i + 1]} << 8) ^
                                in[i + 2];
        return (h * 2654435761u) >> (32 - kHashBits);
    };

    auto matchLen = [&](std::size_t a, std::size_t b) {
        // Length of common prefix of in[a..] and in[b..], capped.
        int len = 0;
        const int cap = static_cast<int>(
            std::min<std::size_t>(kMaxMatch, n - b));
        while (len < cap && in[a + len] == in[b + len])
            ++len;
        return len;
    };

    auto findMatch = [&](std::size_t pos, int &best_dist) {
        int best_len = 0;
        best_dist = 0;
        if (pos + kMinMatch > n)
            return 0;
        std::int32_t cand = head[hash3(pos)];
        unsigned chain = max_chain;
        while (cand >= 0 && chain-- > 0) {
            const auto cpos = static_cast<std::size_t>(cand);
            if (pos - cpos > kWindowSize)
                break;
            const int len = matchLen(cpos, pos);
            if (len > best_len) {
                best_len = len;
                best_dist = static_cast<int>(pos - cpos);
                if (len >= kMaxMatch)
                    break;
            }
            cand = prev[cpos];
        }
        return best_len >= kMinMatch ? best_len : 0;
    };

    auto insert = [&](std::size_t pos) {
        if (pos + kMinMatch <= n) {
            const auto h = hash3(pos);
            prev[pos] = head[h];
            head[h] = static_cast<std::int32_t>(pos);
        }
    };

    // Positions [0, inserted) are registered in the hash chains. A
    // position is only registered once we have moved past it, so a
    // position can never match against itself (distance 0).
    std::size_t inserted = 0;
    auto insertThrough = [&](std::size_t end) {
        for (; inserted < end && inserted < n; ++inserted)
            insert(inserted);
    };

    // One fixed-Huffman block (BFINAL set).
    BitWriter bw;
    bw.writeBits(1, 1);   // BFINAL
    bw.writeBits(1, 2);   // BTYPE = 01 fixed
    std::size_t pos = 0;
    while (pos < n) {
        insertThrough(pos);
        int dist = 0;
        int len = findMatch(pos, dist);
        if (len > 0 && pos + 1 < n) {
            // One-step lazy evaluation, as zlib does: if the next
            // position has a strictly longer match, emit a literal
            // and take that one instead.
            insertThrough(pos + 1);
            int dist2 = 0;
            const int len2 = findMatch(pos + 1, dist2);
            if (len2 > len) {
                writeFixedLitLen(bw, in[pos]);
                ++pos;
                len = len2;
                dist = dist2;
            }
        }

        if (len > 0) {
            writeFixedMatch(bw, len, dist);
            insertThrough(pos + static_cast<std::size_t>(len));
            pos += static_cast<std::size_t>(len);
        } else {
            writeFixedLitLen(bw, in[pos]);
            ++pos;
        }
    }
    writeFixedLitLen(bw, 256);   // end of block
    std::vector<std::uint8_t> out = bw.take();

    if (out.size() > n + 5 * (n / 65535 + 1)) {
        // Compression expanded the data; fall back to stored blocks.
        BitWriter sw;
        std::size_t off = 0;
        do {
            const std::size_t chunk = std::min<std::size_t>(n - off, 65535);
            const bool final = off + chunk == n;
            sw.writeBits(final ? 1 : 0, 1);
            sw.writeBits(0, 2);   // BTYPE = 00 stored
            sw.align();
            sw.writeByte(static_cast<std::uint8_t>(chunk));
            sw.writeByte(static_cast<std::uint8_t>(chunk >> 8));
            sw.writeByte(static_cast<std::uint8_t>(~chunk));
            sw.writeByte(static_cast<std::uint8_t>(~(chunk >> 8)));
            for (std::size_t i = 0; i < chunk; ++i)
                sw.writeByte(in[off + i]);
            off += chunk;
        } while (off < n);
        out = sw.take();
    }
    return out;
}

namespace {

/** Shared literal/length + distance decode loop for coded blocks. */
void
inflateCodedBlock(BitReader &br, const CanonicalDecoder &lit,
                  const CanonicalDecoder &dist,
                  std::vector<std::uint8_t> &out)
{
    for (;;) {
        const int sym = lit.decode(br);
        if (sym == 256)
            break;
        if (sym < 256) {
            out.push_back(static_cast<std::uint8_t>(sym));
            continue;
        }
        const int lc = sym - 257;
        if (lc >= 29)
            throw std::runtime_error("deflate: bad length code");
        int len = kLengthBase[lc];
        if (kLengthExtra[lc])
            len += static_cast<int>(br.readBits(kLengthExtra[lc]));
        if (!dist.usable())
            throw std::runtime_error(
                "deflate: match with empty distance code");
        const int dcode = dist.decode(br);
        if (dcode >= 30)
            throw std::runtime_error("deflate: bad distance code");
        int distance = kDistBase[dcode];
        if (kDistExtra[dcode])
            distance += static_cast<int>(br.readBits(kDistExtra[dcode]));
        if (static_cast<std::size_t>(distance) > out.size())
            throw std::runtime_error("deflate: distance too far");
        const std::size_t from =
            out.size() - static_cast<std::size_t>(distance);
        for (int i = 0; i < len; ++i)
            out.push_back(out[from + static_cast<std::size_t>(i)]);
    }
}

} // namespace

std::vector<std::uint8_t>
deflateDecompress(std::span<const std::uint8_t> input)
{
    BitReader br(input);
    std::vector<std::uint8_t> out;
    bool final = false;
    while (!final) {
        final = br.readBits(1) != 0;
        const std::uint32_t btype = br.readBits(2);
        if (btype == 0) {
            br.align();
            const std::uint32_t len =
                br.readByte() | (std::uint32_t{br.readByte()} << 8);
            const std::uint32_t nlen =
                br.readByte() | (std::uint32_t{br.readByte()} << 8);
            if ((len ^ nlen) != 0xffff)
                throw std::runtime_error("deflate: stored LEN mismatch");
            for (std::uint32_t i = 0; i < len; ++i)
                out.push_back(br.readByte());
        } else if (btype == 1) {
            std::vector<std::uint8_t> lit_len(288);
            for (int sym = 0; sym < 288; ++sym)
                lit_len[static_cast<std::size_t>(sym)] =
                    static_cast<std::uint8_t>(fixedLitCode(sym).second);
            const CanonicalDecoder lit(lit_len);
            const CanonicalDecoder dist(std::vector<std::uint8_t>(30, 5));
            inflateCodedBlock(br, lit, dist, out);
        } else if (btype == 2) {
            const std::size_t hlit = br.readBits(5) + 257;
            const std::size_t hdist = br.readBits(5) + 1;
            const std::size_t hclen = br.readBits(4) + 4;
            if (hlit > 286 || hdist > 30)
                throw std::runtime_error("deflate: bad dynamic header");
            std::vector<std::uint8_t> cl_len(19, 0);
            for (std::size_t i = 0; i < hclen; ++i)
                cl_len[kClPermutation[i]] =
                    static_cast<std::uint8_t>(br.readBits(3));
            const CanonicalDecoder cl(cl_len);

            std::vector<std::uint8_t> all;
            all.reserve(hlit + hdist);
            while (all.size() < hlit + hdist) {
                const int sym = cl.decode(br);
                if (sym < 16) {
                    all.push_back(static_cast<std::uint8_t>(sym));
                } else if (sym == 16) {
                    if (all.empty())
                        throw std::runtime_error(
                            "deflate: repeat with no previous length");
                    const std::uint32_t rep = br.readBits(2) + 3;
                    all.insert(all.end(), rep, all.back());
                } else if (sym == 17) {
                    const std::uint32_t rep = br.readBits(3) + 3;
                    all.insert(all.end(), rep, 0);
                } else {
                    const std::uint32_t rep = br.readBits(7) + 11;
                    all.insert(all.end(), rep, 0);
                }
            }
            if (all.size() != hlit + hdist)
                throw std::runtime_error(
                    "deflate: code-length overflow");
            const std::vector<std::uint8_t> lit_len(
                all.begin(), all.begin() + static_cast<long>(hlit));
            const std::vector<std::uint8_t> dist_len(
                all.begin() + static_cast<long>(hlit), all.end());
            const CanonicalDecoder lit(lit_len);
            const CanonicalDecoder dist(dist_len);
            if (!lit.usable())
                throw std::runtime_error(
                    "deflate: empty literal code");
            inflateCodedBlock(br, lit, dist, out);
        } else {
            throw std::runtime_error("deflate: reserved block type");
        }
    }
    return out;
}

} // namespace halsim::alg
