#include "net/hash.h"

#include <gtest/gtest.h>

#include <set>

#include "core/rng.h"

namespace astral::net {
namespace {

TEST(Crc16, DeterministicAndSpread) {
  std::uint8_t a[] = {1, 2, 3, 4};
  std::uint8_t b[] = {1, 2, 3, 5};
  EXPECT_EQ(crc16(a, 4), crc16(a, 4));
  EXPECT_NE(crc16(a, 4), crc16(b, 4));
}

TEST(Crc16, IsLinearOverGf2) {
  // crc(x ^ y) == crc(x) ^ crc(y) for equal-length inputs — the hashing
  // linearity property [Zhang et al. ATC'21] that makes source-port
  // based path control predictable.
  std::uint8_t x[] = {0x12, 0x34, 0x56, 0x78, 0x9a};
  std::uint8_t y[] = {0xff, 0x00, 0xaa, 0x55, 0x0f};
  std::uint8_t xy[5];
  for (int i = 0; i < 5; ++i) xy[i] = x[i] ^ y[i];
  EXPECT_EQ(crc16(xy, 5), static_cast<std::uint16_t>(crc16(x, 5) ^ crc16(y, 5)));
}

// The MSB-first, bit-at-a-time CRC-16/CCITT (poly 0x1021) the table is
// derived from.
std::uint16_t bitwise_crc16(const std::uint8_t* data, std::size_t len) {
  std::uint16_t crc = 0;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= static_cast<std::uint16_t>(data[i]) << 8;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

TEST(Crc16, TableMatchesBitwiseReference) {
  for (unsigned a = 0; a < 256; ++a) {
    const std::uint8_t one[] = {static_cast<std::uint8_t>(a)};
    ASSERT_EQ(crc16(one, 1), bitwise_crc16(one, 1)) << a;
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t two[] = {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)};
      ASSERT_EQ(crc16(two, 2), bitwise_crc16(two, 2)) << a << ',' << b;
    }
  }
  // The router hashes 13-byte tuples.
  core::Rng rng(2024);
  std::uint8_t buf[13];
  for (int i = 0; i < 10000; ++i) {
    for (std::uint8_t& byte : buf) byte = static_cast<std::uint8_t>(rng.uniform_int(256));
    ASSERT_EQ(crc16(buf, sizeof buf), bitwise_crc16(buf, sizeof buf)) << i;
  }
}

// The switch hash written out from scratch: the bitwise CRC of the
// tuple's big-endian 13-byte encoding, then the salt fold.
std::uint16_t reference_hash(const FiveTuple& t, std::uint32_t salt) {
  const std::uint8_t buf[13] = {
      static_cast<std::uint8_t>(t.src_ip >> 24), static_cast<std::uint8_t>(t.src_ip >> 16),
      static_cast<std::uint8_t>(t.src_ip >> 8),  static_cast<std::uint8_t>(t.src_ip),
      static_cast<std::uint8_t>(t.dst_ip >> 24), static_cast<std::uint8_t>(t.dst_ip >> 16),
      static_cast<std::uint8_t>(t.dst_ip >> 8),  static_cast<std::uint8_t>(t.dst_ip),
      static_cast<std::uint8_t>(t.src_port >> 8), static_cast<std::uint8_t>(t.src_port),
      static_cast<std::uint8_t>(t.dst_port >> 8), static_cast<std::uint8_t>(t.dst_port),
      t.proto};
  const auto s = static_cast<std::uint16_t>(salt ^ (salt >> 16));
  return static_cast<std::uint16_t>(bitwise_crc16(buf, sizeof buf) ^ s ^
                                    static_cast<std::uint16_t>(s << 5));
}

TEST(EcmpHash, FoldOfTupleCrcEqualsHash) {
  EcmpHash h;
  core::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    FiveTuple t;
    t.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    t.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    t.src_port = static_cast<std::uint16_t>(rng.uniform_int(65536));
    const std::uint16_t crc = EcmpHash::crc(t);
    for (std::uint32_t salt : {0u, 1u, static_cast<std::uint32_t>(rng.next_u64()),
                               t.src_ip * 2654435761u, t.dst_ip * 0x85ebca6bu}) {
      ASSERT_EQ(EcmpHash::fold(crc, salt), h.hash(t, salt)) << i << ' ' << salt;
      ASSERT_EQ(h.hash(t, salt), reference_hash(t, salt)) << i << ' ' << salt;
    }
  }
}

TEST(EcmpHash, PortChangesMoveTheHash) {
  EcmpHash h;
  FiveTuple t{.src_ip = 10, .dst_ip = 20, .src_port = 1000};
  std::set<std::uint16_t> seen;
  for (std::uint16_t p = 1000; p < 1064; ++p) {
    t.src_port = p;
    seen.insert(h.hash(t, 0));
  }
  // 64 ports should produce many distinct hashes.
  EXPECT_GT(seen.size(), 32u);
}

TEST(EcmpHash, SaltDecorrelatesSwitches) {
  EcmpHash h;
  FiveTuple t{.src_ip = 10, .dst_ip = 20, .src_port = 4242};
  int diffs = 0;
  for (std::uint32_t salt = 1; salt <= 64; ++salt) {
    if (h.hash(t, salt) != h.hash(t, 0)) ++diffs;
  }
  EXPECT_GT(diffs, 48);
}

TEST(EcmpHash, TupleLinearityHoldsPerSwitch) {
  // Flipping the same source-port bits shifts the hash by the same XOR
  // delta irrespective of base port: H(p ^ d) = H(p) ^ (H(d) ^ H(0)).
  EcmpHash h;
  FiveTuple base{.src_ip = 7, .dst_ip = 9, .src_port = 0};
  auto hash_with_port = [&](std::uint16_t port) {
    FiveTuple t = base;
    t.src_port = port;
    return h.hash(t, 123);
  };
  std::uint16_t delta = 0x0204;
  std::uint16_t shift =
      static_cast<std::uint16_t>(hash_with_port(delta) ^ hash_with_port(0));
  for (std::uint16_t p : {std::uint16_t{1024}, std::uint16_t{4791}, std::uint16_t{60000}}) {
    EXPECT_EQ(hash_with_port(static_cast<std::uint16_t>(p ^ delta)),
              static_cast<std::uint16_t>(hash_with_port(p) ^ shift));
  }
}

TEST(EcmpHash, SelectCoversAllCandidates) {
  EcmpHash h;
  std::set<int> picks;
  FiveTuple t{.src_ip = 1, .dst_ip = 2};
  for (std::uint16_t p = 0; p < 512; ++p) {
    t.src_port = p;
    int pick = h.select(t, 99, 8);
    ASSERT_GE(pick, 0);
    ASSERT_LT(pick, 8);
    picks.insert(pick);
  }
  EXPECT_EQ(picks.size(), 8u);
}

}  // namespace
}  // namespace astral::net
