/**
 * @file
 * DEFLATE codec: round-trip property over many data shapes,
 * compression-ratio expectations, pinned compress-function output, a
 * zlib-made dynamic-Huffman stream, and malformed-stream rejection.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "alg/sha256.hh"
#include "sim/rng.hh"

using halsim::Rng;
using halsim::alg::deflateCompress;
using halsim::alg::deflateDecompress;

namespace {

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

void
expectRoundTrip(const std::vector<std::uint8_t> &data)
{
    const auto compressed = deflateCompress(data, 16);
    const auto restored = deflateDecompress(compressed);
    ASSERT_EQ(restored, data);
}

} // namespace

TEST(Deflate, EmptyInput)
{
    expectRoundTrip({});
}

TEST(Deflate, SingleByte)
{
    expectRoundTrip({0x42});
}

TEST(Deflate, ShortText)
{
    expectRoundTrip(bytesOf("hello, deflate world"));
}

TEST(Deflate, HighlyRepetitive)
{
    std::vector<std::uint8_t> data(100000, 'a');
    const auto compressed = deflateCompress(data, 16);
    EXPECT_LT(compressed.size(), data.size() / 50)
        << "runs should compress enormously";
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, AllByteValues)
{
    std::vector<std::uint8_t> data;
    for (int rep = 0; rep < 10; ++rep)
        for (int b = 0; b < 256; ++b)
            data.push_back(static_cast<std::uint8_t>(b));
    expectRoundTrip(data);
}

TEST(Deflate, IncompressibleFallsBackToStored)
{
    Rng rng(5);
    std::vector<std::uint8_t> data(65536 + 1234);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const auto compressed = deflateCompress(data, 16);
    // Stored blocks cost 5 bytes per 64 KiB chunk; allow slack for a
    // near-miss fixed encoding.
    EXPECT_LT(compressed.size(), data.size() + 64);
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, SilesiaLikeCorpusCompresses)
{
    const auto data = halsim::alg::makeSilesiaLike(200000, 3);
    const auto compressed = deflateCompress(data, 16);
    // The paper's Silesia-mozilla compresses around 2.5-3x with
    // deflate; our synthetic stand-in should land in that regime.
    const double ratio = static_cast<double>(data.size()) /
                         static_cast<double>(compressed.size());
    EXPECT_GT(ratio, 2.0) << "ratio " << ratio;
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, OverlappingCopies)
{
    // Distance < length forces the self-overlap copy path.
    std::vector<std::uint8_t> data;
    for (int i = 0; i < 1000; ++i)
        data.push_back(static_cast<std::uint8_t>("ab"[i % 2]));
    expectRoundTrip(data);
}

TEST(Deflate, LongRangeMatchAtWindowEdge)
{
    // Two copies of a block separated by nearly the full window.
    std::vector<std::uint8_t> data;
    const auto block = halsim::alg::makeSilesiaLike(500, 9);
    data.insert(data.end(), block.begin(), block.end());
    std::vector<std::uint8_t> filler = halsim::alg::makeSilesiaLike(32000, 10);
    data.insert(data.end(), filler.begin(), filler.end());
    data.insert(data.end(), block.begin(), block.end());
    expectRoundTrip(data);
}

TEST(Deflate, FixedOnlyModeStillRoundTrips)
{
    // Fixed tables are the only coded block the encoder emits.
    const auto data = halsim::alg::makeSilesiaLike(30000, 14);
    const auto compressed = deflateCompress(data, 16);
    ASSERT_FALSE(compressed.empty());
    EXPECT_EQ(compressed[0] & 0x7, 0x3) << "BFINAL=1, BTYPE=01";
    EXPECT_EQ(deflateDecompress(compressed), data);
}

TEST(Deflate, TruncatedStreamThrows)
{
    const auto compressed =
        deflateCompress(halsim::alg::makeSilesiaLike(5000, 2), 16);
    auto truncated = compressed;
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(deflateDecompress(truncated), std::runtime_error);
}

TEST(Deflate, MalformedDynamicBlockRejected)
{
    // BFINAL=1, BTYPE=10 (dynamic) followed by a truncated header.
    const std::vector<std::uint8_t> stream = {0x05, 0x00, 0x00};
    EXPECT_THROW(deflateDecompress(stream), std::runtime_error);
}

TEST(Deflate, ReservedBlockTypeRejected)
{
    // BFINAL=1, BTYPE=11 (reserved) => first byte 0b00000111.
    const std::vector<std::uint8_t> stream = {0x07, 0x00, 0x00};
    EXPECT_THROW(deflateDecompress(stream), std::runtime_error);
}

TEST(Deflate, CompressFunctionOutputIsPinned)
{
    // CompressFunction's settings (chain 16, fixed tables, stored
    // fallback) over slices of its own 1 MiB corpus plus one
    // incompressible frame. Any change to the bytes a compress
    // function emits fails here.
    const auto corpus = halsim::alg::makeSilesiaLike(1 << 20, 6);
    auto slice = [&](std::size_t off, std::size_t len) {
        return std::vector<std::uint8_t>(
            corpus.begin() + static_cast<long>(off),
            corpus.begin() + static_cast<long>(off + len));
    };
    Rng rng(77);
    std::vector<std::uint8_t> random(1458);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.next());

    const std::vector<std::pair<std::vector<std::uint8_t>, std::string>>
        cases = {
            {slice(1000, 64),
             "6540be7a359a5fcfc68009f69619b5ee"
             "9a655a93bf8c3da524fd4c3f1e1a8b17"},
            {slice(70001, 1458),
             "156dff2a3e1d242408f5f125e5b0725a"
             "c4ae7baee55069e5e5a1856ba03b4d4b"},
            {random,
             "06276d043a820179379c908353240de4"
             "a2cda2c3cf1efb4add782e6aa4ac151f"},
            {slice(300000, 65536),
             "e86a22dbddd6204c20da227e70270479"
             "4118b683bc04134a91fd6585d00cfa0a"},
        };
    for (const auto &[data, golden] : cases) {
        const auto out = deflateCompress(data, 16);
        EXPECT_EQ(halsim::alg::Sha256::toHex(halsim::alg::Sha256::hash(out)),
                  golden)
            << data.size() << " bytes -> " << out.size();
        EXPECT_EQ(deflateDecompress(out), data);
    }
}

TEST(Deflate, DecodesZlibDynamicBlock)
{
    // External conformance vector: the encoder emits only fixed and
    // stored blocks, so this is the inflater's dynamic-Huffman
    // (BTYPE=10) test input. Produced with zlib (Python 3.11):
    //   python3 -c 'import random, zlib; random.seed(16);
    //     p = "".join(random.choice("eeeeeeettaoinshr")
    //                 for _ in range(600)).encode();
    //     c = zlib.compressobj(9, zlib.DEFLATED, -15);
    //     print(p.decode()); print((c.compress(p) + c.flush()).hex())'
    const std::string plain =
        "irrasthesttteaaoeaetteeehhataitseirseaeaeeitreaaohheerehrere"
        "hereetnieenoretoeeeteneeenetteetteeetnsenhhhteeeestneeeseaeh"
        "senteenstneireseseraaeeartrehereeoehereoeeinaneteheeetoneete"
        "neeteteerrieheeeeeiaeeeeetieseeeheeeeeeseiensteneihiseieeens"
        "eesoenieestoenenenheeeeeaseeeeeoeahesaseeeatahoetnareeeontha"
        "etereeesetoseteoeisaieeeeeteeeteeerrieeetseosrnteaeteenieeee"
        "esetasooneotheeiehsseetteeeettireretorsiotaseseeseeeeeeetnte"
        "heoaootteaetoietereattneaeineeieooisateeeeseeeeehteesaeetiat"
        "eeeeeeeensiateeoinstaseiesnrientsseesenseethoiheeaeeioteeset"
        "stoeshtitiohetoetehaieienoreeeinaeeoateiaaessnetaahiraooaehe";
    const std::vector<std::uint8_t> stream = {
        0x2d, 0x51, 0x49, 0x0a, 0xc0, 0x40, 0x08, 0x7b, 0xab, 0x87,
        0x80, 0x5e, 0x14, 0xd4, 0xff, 0xd3, 0xc4, 0x29, 0x65, 0xb6,
        0x54, 0x63, 0x8c, 0xd1, 0x6d, 0xb3, 0x8e, 0xd9, 0x5d, 0x98,
        0x15, 0x0c, 0xbc, 0x00, 0xee, 0xb6, 0x16, 0x3b, 0x88, 0x1e,
        0x62, 0x06, 0xc4, 0xb6, 0x02, 0xdc, 0x81, 0x86, 0xb7, 0x36,
        0x2e, 0x6c, 0x06, 0x90, 0xd5, 0xd8, 0x62, 0xda, 0x22, 0xb9,
        0xe7, 0x71, 0x1c, 0xcf, 0xe6, 0x20, 0xdd, 0x5d, 0x77, 0x16,
        0xd1, 0x5f, 0xf1, 0x39, 0x51, 0x42, 0x29, 0x24, 0x9a, 0xd0,
        0xa0, 0x8d, 0x45, 0xac, 0xf7, 0xe7, 0xad, 0x3b, 0xc8, 0x19,
        0x69, 0xe4, 0xe3, 0x8b, 0x64, 0x95, 0x7f, 0x89, 0xe5, 0x87,
        0xee, 0x38, 0x98, 0x31, 0x76, 0xc7, 0x06, 0x79, 0xf0, 0x63,
        0xbc, 0x86, 0x0a, 0x30, 0x3c, 0x3c, 0xf4, 0x50, 0x3d, 0xc2,
        0x05, 0x49, 0x1e, 0xea, 0x4d, 0x7d, 0x2f, 0xda, 0xe6, 0x0e,
        0xf6, 0x4f, 0x2f, 0xee, 0xc1, 0xfe, 0xbd, 0xa8, 0xdf, 0x5a,
        0x78, 0xae, 0xd3, 0x19, 0x09, 0x23, 0xef, 0x16, 0x17, 0x63,
        0x63, 0x2c, 0x5e, 0xe1, 0x7f, 0x49, 0x11, 0x6f, 0x83, 0x9a,
        0x66, 0x7f, 0xca, 0xb8, 0x62, 0x2f, 0xcb, 0xa6, 0xd8, 0x40,
        0xd1, 0x6d, 0x8a, 0xf1, 0x99, 0xdf, 0x22, 0xee, 0x21, 0x3b,
        0xb7, 0x7a, 0xa2, 0x18, 0xa5, 0x26, 0x9e, 0x1c, 0xf9, 0xa7,
        0xd6, 0xcb, 0xaa, 0xf6, 0xf8, 0x2a, 0x4e, 0x85, 0x2d, 0x8d,
        0x33, 0x7a, 0x23, 0xaa, 0x2a, 0x0a, 0x79, 0x06, 0x5f, 0x8e,
        0xcc, 0x1e, 0x93, 0x1d, 0x0f, 0xc5, 0x75, 0x7e, 0x8f, 0x0a,
        0x3a, 0x62, 0x32, 0x63, 0x92, 0x5a, 0x73, 0xe7, 0x6a, 0xc9,
        0x97, 0xf5, 0x0a, 0x2a, 0xd3, 0xa4, 0x6b, 0x4f, 0xaf, 0x2c,
        0x1a, 0xdf, 0xd8, 0x28, 0xd7, 0x78, 0xa9, 0x84, 0xfd, 0xc6,
        0x4d, 0xfb, 0xe6, 0x42, 0x3e, 0x92, 0x06, 0x07, 0x37, 0xc3,
        0x19, 0x99, 0x79, 0x34, 0x95, 0x72, 0xbc, 0xf8, 0x00,
    };
    ASSERT_EQ(plain.size(), 600u);
    ASSERT_EQ(stream[0] & 0x7, 0x5) << "BFINAL=1, BTYPE=10";
    EXPECT_EQ(deflateDecompress(stream), bytesOf(plain));
}

TEST(Deflate, DecodesZlibHuffmanOnlyBlock)
{
    // Second zlib vector: a dynamic block with no back-references.
    // HLIT=257 (literals and end-of-block only) and the distance
    // alphabet is transmitted but never used. Produced with zlib
    // (Python 3.11):
    //   python3 -c 'import random, zlib; random.seed(17);
    //     p = "".join(random.choice("eeeeeeettaoinshr")
    //                 for _ in range(300)).encode();
    //     c = zlib.compressobj(9, zlib.DEFLATED, -15, 9,
    //                          zlib.Z_HUFFMAN_ONLY);
    //     print(p.decode()); print((c.compress(p) + c.flush()).hex())'
    const std::string plain =
        "saiaeteetnstoneeeeeeoeeaseresoesieierienteetieteteetaioeoeto"
        "eeiehtreeatereenrneeteeeeaooeeseatnreettteaernrtshehetroeies"
        "eoetoieeasiheeeeehhherheateehooeeteeeeraeeehteneseeettiisneo"
        "eeaooeoetrahettesaerieeeaeshneeeoraseteetsoheatrteieeoresent"
        "eeaeaohoeetanoesetteeisnteaneoeeeirnstaheseeeietneheierheets";
    const std::vector<std::uint8_t> stream = {
        0x05, 0xc1, 0xc1, 0x09, 0x00, 0x41, 0x08, 0x04, 0xb0, 0x5a,
        0x7d, 0x04, 0xd6, 0xcf, 0x09, 0x3a, 0xfd, 0x73, 0xc9, 0x55,
        0x97, 0x90, 0xef, 0x32, 0x1f, 0x30, 0xd4, 0x59, 0x37, 0xae,
        0xb5, 0x6d, 0x5f, 0x48, 0x8b, 0x90, 0xea, 0x31, 0x32, 0xb4,
        0x97, 0xa5, 0x62, 0xf9, 0xf6, 0x23, 0x50, 0x33, 0x9c, 0xca,
        0xb7, 0x24, 0x51, 0xf6, 0xdb, 0xdc, 0xf3, 0x64, 0x47, 0x3b,
        0x23, 0xd3, 0xd4, 0xf5, 0x03, 0xef, 0x3d, 0xfb, 0x54, 0x78,
        0x33, 0x04, 0xb6, 0xf0, 0xe2, 0x73, 0x48, 0xba, 0xef, 0x33,
        0xd4, 0x8c, 0x91, 0xad, 0x27, 0x71, 0x65, 0x1b, 0xe5, 0xde,
        0x87, 0xd9, 0x3a, 0x21, 0x37, 0x4f, 0x65, 0xa3, 0x99, 0x75,
        0xbe, 0x50, 0x6a, 0xde, 0x90, 0xfa, 0xc6, 0x49, 0xe8, 0xfb,
        0xa2, 0x3e, 0x83, 0xde, 0xef, 0x52, 0xcf, 0xa1, 0xe5, 0xf3,
        0xb4, 0x7d, 0xe4, 0x7e,
    };
    ASSERT_EQ(plain.size(), 300u);
    ASSERT_EQ(stream[0] & 0x7, 0x5) << "BFINAL=1, BTYPE=10";
    ASSERT_EQ(stream[0] >> 3, 0) << "HLIT=257: no length codes";
    EXPECT_EQ(deflateDecompress(stream), bytesOf(plain));
}

TEST(Deflate, StoredLenMismatchRejected)
{
    // BFINAL=1 BTYPE=00, then LEN=1 but NLEN not its complement.
    const std::vector<std::uint8_t> stream = {0x01, 0x01, 0x00, 0x00,
                                              0x00, 0xaa};
    EXPECT_THROW(deflateDecompress(stream), std::runtime_error);
}

/** Round-trip sweep across sizes and chain depths. */
class DeflateSweep
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(DeflateSweep, RoundTrip)
{
    const auto [size, chain] = GetParam();
    const auto data =
        halsim::alg::makeSilesiaLike(static_cast<std::size_t>(size),
                                     static_cast<std::uint64_t>(size));
    const auto compressed = deflateCompress(data, chain);
    EXPECT_EQ(deflateDecompress(compressed), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEffort, DeflateSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 100, 1000, 40000,
                                         100000),
                       ::testing::Values(1u, 8u, 128u)));
