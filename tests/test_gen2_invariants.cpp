// Gen2 air-interface invariants checked as properties, not goldens:
//
//   - Line codes: every 16-bit word (an RN16 reply's whole payload space)
//     round-trips through FM0 and Miller-2/4/8 — encoder to the library's
//     coherent decoder — in the exhaustive two-byte style of a
//     floppy-format FM/MFM codec check: all 65536 words, one frame each,
//     over a rotated channel with a DC offset.
//   - CRC-16: on seeded random frames of random length, the appended CRC
//     checks, every single-bit and every two-bit corruption is caught, and
//     the CRC is affine over XOR. A catalog check value pins the parameters
//     (CRC-16/GENIBUS: poly 0x1021, preset 0xFFFF, complemented output).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen2/crc.h"
#include "gen2/fm0.h"
#include "gen2/miller.h"

namespace rfly::gen2 {
namespace {

Bits word_bits(std::uint32_t word) {
  Bits bits;
  append_bits(bits, word, 16);
  return bits;
}

/// One sample per half-bit (FM0) or chip (Miller): level * h + dc, with no
/// lead-in, so the decoder's clock search has exactly one alignment.
std::vector<cdouble> capture(const std::vector<int>& levels) {
  const cdouble h{0.6, -0.8};
  const cdouble dc{0.3, 0.1};
  std::vector<cdouble> x(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    x[i] = dc + h * static_cast<double>(levels[i]);
  }
  return x;
}

TEST(LineCodeRoundTrip, Fm0EverySixteenBitWord) {
  std::size_t failures = 0;
  for (std::uint32_t word = 0; word <= 0xFFFF; ++word) {
    const Bits bits = word_bits(word);
    const auto decoded = fm0_decode(capture(fm0_levels(bits)), 1.0, 16);
    if (!decoded || decoded->bits != bits) {
      if (++failures <= 5) ADD_FAILURE() << "FM0 word 0x" << std::hex << word;
    }
  }
  EXPECT_EQ(failures, 0u);
}

class MillerEveryWord : public ::testing::TestWithParam<Miller> {};

TEST_P(MillerEveryWord, RoundTripsEverySixteenBitWord) {
  const Miller m = GetParam();
  std::size_t failures = 0;
  for (std::uint32_t word = 0; word <= 0xFFFF; ++word) {
    const Bits bits = word_bits(word);
    const auto decoded = miller_decode(capture(miller_chips(bits, m)), 1.0, 16, m);
    if (!decoded || decoded->bits != bits) {
      if (++failures <= 5) ADD_FAILURE() << "Miller word 0x" << std::hex << word;
    }
  }
  EXPECT_EQ(failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, MillerEveryWord,
                         ::testing::Values(Miller::kM2, Miller::kM4, Miller::kM8),
                         [](const ::testing::TestParamInfo<Miller>& info) {
                           return "M" + std::to_string(
                                            miller_chips_per_symbol(info.param) / 2);
                         });

Bits random_frame(Rng& rng) {
  Bits bits(static_cast<std::size_t>(rng.uniform_int(1, 256)));
  for (auto& b : bits) b = rng.chance(0.5) ? 1 : 0;
  return bits;
}

Bits with_crc16(const Bits& payload) {
  Bits frame = payload;
  append_bits(frame, crc16(payload), 16);
  return frame;
}

TEST(Crc16, CatalogCheckValue) {
  Bits ascii;
  for (char c : std::string("123456789")) {
    append_bits(ascii, static_cast<std::uint8_t>(c), 8);
  }
  EXPECT_EQ(crc16(ascii), 0xD64Eu);
}

TEST(Crc16, RandomFramesCheckAndCatchOneAndTwoBitErrors) {
  Rng rng(1607);
  for (int trial = 0; trial < 200; ++trial) {
    const Bits frame = with_crc16(random_frame(rng));
    ASSERT_TRUE(crc16_check(frame)) << "trial " << trial;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      Bits one = frame;
      one[i] ^= 1u;
      EXPECT_FALSE(crc16_check(one)) << "trial " << trial << " bit " << i;
      // Two-bit errors: the partner bit is drawn, not swept, to keep the
      // suite fast (every pair is caught for frames this short).
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
      if (j == i) continue;
      one[j] ^= 1u;
      EXPECT_FALSE(crc16_check(one)) << "trial " << trial << " bits " << i << "," << j;
    }
  }
}

TEST(Crc16, AffineOverXor) {
  // With a preset and a complemented output the CRC is affine:
  // crc(a ^ b) = crc(a) ^ crc(b) ^ crc(0) for equal-length a and b.
  Rng rng(1608);
  for (int trial = 0; trial < 500; ++trial) {
    const Bits a = random_frame(rng);
    Bits b(a.size()), x(a.size()), zero(a.size(), 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      b[i] = rng.chance(0.5) ? 1 : 0;
      x[i] = a[i] ^ b[i];
    }
    EXPECT_EQ(crc16(x), crc16(a) ^ crc16(b) ^ crc16(zero)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rfly::gen2
