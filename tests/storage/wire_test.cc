// CRC-32 of the shared wire primitives (storage/wire.h): the slice-by-8
// Crc32 must equal a bit-at-a-time reference on every length and start
// alignment that exercises its 8-byte loop and bytewise tail, and the
// committed .homets fixtures must keep verifying under it.
#include "storage/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"

namespace homets::storage {
namespace {

/// The CRC-32 definition, one bit at a time (reflected 0xEDB88320).
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string FixtureBytes(const std::string& name) {
  std::ifstream in(std::string(HOMETS_IO_FIXTURES_DIR) + "/" + name,
                   std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

uint32_t LoadU32(const std::string& bytes, size_t at) {
  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()) + at, 4);
  uint32_t v = 0;
  EXPECT_TRUE(reader.ReadU32(&v));
  return v;
}

TEST(Crc32Test, CheckValueOfTheIeeePolynomial) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceOnEveryLengthAndOffset) {
  Rng rng(20260419);
  std::vector<uint8_t> buffer(4097 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformInt(256));
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (size_t n = 4095; n <= 4097; ++n) lengths.push_back(n);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (const size_t n : lengths) {
      const uint8_t* at = buffer.data() + offset;
      ASSERT_EQ(Crc32(at, n), BitwiseCrc32(at, n))
          << "offset " << offset << " length " << n;
    }
  }
}

// The footer CRC in each committed fixture's trailer (u64 footer offset,
// u32 footer CRC, "HTSF") still verifies; the fixtures are not regenerated.
TEST(Crc32Test, CommittedHometsFootersStillVerify) {
  for (const char* name : {"single_gateway.homets", "corrupt_chunk.homets"}) {
    const std::string bytes = FixtureBytes(name);
    ASSERT_GT(bytes.size(), 16u) << name;
    ByteReader trailer(
        reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size() - 16, 8);
    uint64_t footer_offset = 0;
    ASSERT_TRUE(trailer.ReadU64(&footer_offset)) << name;
    ASSERT_LE(footer_offset, bytes.size() - 16) << name;
    const auto* footer =
        reinterpret_cast<const uint8_t*>(bytes.data()) + footer_offset;
    const size_t footer_size = bytes.size() - 16 - footer_offset;
    EXPECT_EQ(Crc32(footer, footer_size), LoadU32(bytes, bytes.size() - 8))
        << name;
    EXPECT_EQ(Crc32(footer, footer_size), BitwiseCrc32(footer, footer_size))
        << name;
  }
}

}  // namespace
}  // namespace homets::storage
