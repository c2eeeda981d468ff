#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

namespace lsmio::crc32c {
namespace {

// Bit-at-a-time CRC32C, straight from the definition.
uint32_t ReferenceExtend(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = ~init_crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1)));
    }
  }
  return ~crc;
}

TEST(Crc32cTest, StandardVectors) {
  // Known CRC32C test vectors (RFC 3720 / iSCSI).
  char buf[32];

  std::memset(buf, 0, sizeof buf);
  EXPECT_EQ(Value(buf, sizeof buf), 0x8a9136aa);

  std::memset(buf, 0xff, sizeof buf);
  EXPECT_EQ(Value(buf, sizeof buf), 0x62a8ab43);

  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(i);
  EXPECT_EQ(Value(buf, sizeof buf), 0x46dd794e);

  for (int i = 0; i < 32; ++i) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(Value(buf, sizeof buf), 0x113fdb5c);
}

TEST(Crc32cTest, ValuesDiffer) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("a", 1), Value("b", 1));
}

TEST(Crc32cTest, ExtendEqualsConcatenation) {
  const std::string hello = "hello ";
  const std::string world = "world";
  const std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(), world.size()));
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32cTest, UnalignedInputsConsistent) {
  // CRC of a window must not depend on the buffer alignment.
  std::string data(1024, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i * 7);
  const uint32_t reference = Value(data.data() + 1, 333);
  std::string copy = data.substr(1, 333);
  EXPECT_EQ(Value(copy.data(), copy.size()), reference);
}

TEST(Crc32cTest, KernelsAgreeWithDefinition) {
  // Every length up to 64, then each side of the 3 x 256 B and 3 x 8 KiB
  // stripe groups, and a 64 KiB block with its 5-byte trailer.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {767, 768, 769, 24575, 24576, 24577, 65541});
  Rng rng(301);
  std::vector<uint64_t> words(65541 / 8 + 2);  // 8-byte aligned backing
  char* const base = reinterpret_cast<char*>(words.data());
  rng.Fill(base, words.size() * sizeof(uint64_t));
  for (const size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const char* data = base + offset;
      const auto init = static_cast<uint32_t>(rng.Next());
      const uint32_t expected = ReferenceExtend(init, data, n);
      EXPECT_EQ(Extend(init, data, n), expected) << "n=" << n << " offset=" << offset;
      EXPECT_EQ(internal::ExtendPortable(init, data, n), expected)
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(Crc32cTest, HardwareKernelChosenWhenCpuHasIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) EXPECT_TRUE(HardwareAccelerated());
#else
  EXPECT_FALSE(HardwareAccelerated());
#endif
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Value("", 0), 0u);
  EXPECT_EQ(Extend(0x12345678u, "", 0), 0x12345678u);
}

}  // namespace
}  // namespace lsmio::crc32c
