#include "net/checksum.hh"

#include <bit>
#include <cstring>

namespace halsim::net {

std::uint16_t
onesComplementSum(const std::uint8_t *data, std::size_t len)
{
    // Word-at-a-time accumulation (RFC 1071 §2B): one's-complement
    // addition is commutative and byte-order independent, so we add
    // native-endian 32-bit half-words into wide binary accumulators
    // (the deferred carries survive in the upper bits), fold to 16
    // bits, and byte-swap once at the end on little-endian hosts.
    // Two independent accumulators break the loop-carried dependency
    // so the compiler can vectorize; each grows by < 2^33 per step,
    // overflow-safe far beyond any frame size.
    std::uint64_t acc0 = 0, acc1 = 0;
    std::size_t i = 0;
    for (; i + 16 <= len; i += 16) {
        std::uint64_t w0, w1;
        std::memcpy(&w0, data + i, 8);
        std::memcpy(&w1, data + i + 8, 8);
        acc0 += (w0 & 0xffffffffu) + (w0 >> 32);
        acc1 += (w1 & 0xffffffffu) + (w1 >> 32);
    }
    std::uint64_t sum = acc0 + acc1;
    if (i + 8 <= len) {
        std::uint64_t w;
        std::memcpy(&w, data + i, 8);
        sum += (w & 0xffffffffu) + (w >> 32);
        i += 8;
    }
    if (i + 4 <= len) {
        std::uint32_t w;
        std::memcpy(&w, data + i, 4);
        sum += w;
        i += 4;
    }
    // Fold 64 -> 32 -> 16 with end-around carries.
    sum = (sum & 0xffffffffu) + (sum >> 32);
    sum = (sum & 0xffffffffu) + (sum >> 32);
    sum = (sum & 0xffff) + (sum >> 16);
    sum = (sum & 0xffff) + (sum >> 16);
    std::uint32_t folded = static_cast<std::uint32_t>(sum);
    if constexpr (std::endian::native == std::endian::little)
        folded = ((folded & 0xff) << 8) | (folded >> 8);

    // Tail (< 4 bytes) in big-endian convention; the vector loop
    // consumed a multiple of 4 bytes, so 16-bit word parity holds.
    for (; i + 1 < len; i += 2)
        folded += (std::uint32_t{data[i]} << 8) | data[i + 1];
    if (i < len)
        folded += std::uint32_t{data[i]} << 8;   // pad odd byte
    while (folded >> 16)
        folded = (folded & 0xffff) + (folded >> 16);
    return static_cast<std::uint16_t>(folded);
}

std::uint16_t
internetChecksum(const std::uint8_t *data, std::size_t len)
{
    return static_cast<std::uint16_t>(~onesComplementSum(data, len));
}

std::uint16_t
checksumUpdate16(std::uint16_t hc, std::uint16_t old_word,
                 std::uint16_t new_word)
{
    // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m'), all in one's complement.
    std::uint32_t sum = static_cast<std::uint16_t>(~hc);
    sum += static_cast<std::uint16_t>(~old_word);
    sum += new_word;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
}

std::uint16_t
checksumUpdate32(std::uint16_t hc, std::uint32_t old_val,
                 std::uint32_t new_val)
{
    hc = checksumUpdate16(hc, static_cast<std::uint16_t>(old_val >> 16),
                          static_cast<std::uint16_t>(new_val >> 16));
    hc = checksumUpdate16(hc, static_cast<std::uint16_t>(old_val & 0xffff),
                          static_cast<std::uint16_t>(new_val & 0xffff));
    return hc;
}

} // namespace halsim::net
