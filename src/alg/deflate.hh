/**
 * @file
 * DEFLATE (RFC 1951) compressor and decompressor: the substrate for
 * the paper's (de)compression function, which drives the BF-2 Deflate
 * accelerator or the host's QATzip. The encoder runs LZ77 over a
 * 32 KiB window with hash-chain and one-step lazy matching, and emits
 * a single fixed-Huffman block, or stored blocks when that would
 * expand the data: static tables, like the hardware engines' per-packet
 * fast path. The decoder accepts all three block types (stored, fixed
 * and dynamic Huffman).
 */

#ifndef HALSIM_ALG_DEFLATE_HH
#define HALSIM_ALG_DEFLATE_HH

#include <cstdint>
#include <span>
#include <vector>

namespace halsim::alg {

/**
 * Compress @p input into a self-contained DEFLATE stream, probing at
 * most @p max_chain hash-chain candidates per position (the effort
 * knob of deflate levels).
 */
std::vector<std::uint8_t> deflateCompress(
    std::span<const std::uint8_t> input, unsigned max_chain);

/**
 * Decompress any conforming DEFLATE stream (stored, fixed, and
 * dynamic blocks).
 * @throws std::runtime_error on malformed input
 */
std::vector<std::uint8_t> deflateDecompress(
    std::span<const std::uint8_t> input);

} // namespace halsim::alg

#endif // HALSIM_ALG_DEFLATE_HH
