#include "net/hash.h"

#include <array>

namespace astral::net {

namespace {
// CRC-16/CCITT polynomial 0x1021, MSB-first: entry b is the register after
// shifting byte b through eight steps of the bitwise algorithm.
constexpr std::array<std::uint16_t, 256> make_crc_table() {
  std::array<std::uint16_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    auto crc = static_cast<std::uint16_t>(b << 8);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kCrcTable = make_crc_table();
}  // namespace

std::uint16_t crc16(const std::uint8_t* data, std::size_t len, std::uint16_t init) {
  // One table step per byte. No final XOR and zero init keep the map
  // linear over GF(2).
  std::uint16_t crc = init;
  for (std::size_t i = 0; i < len; ++i) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ kCrcTable[((crc >> 8) ^ data[i]) & 0xff]);
  }
  return crc;
}

std::uint16_t EcmpHash::crc(const FiveTuple& t) {
  std::uint8_t buf[13];
  auto put32 = [&](std::size_t at, std::uint32_t v) {
    buf[at] = static_cast<std::uint8_t>(v >> 24);
    buf[at + 1] = static_cast<std::uint8_t>(v >> 16);
    buf[at + 2] = static_cast<std::uint8_t>(v >> 8);
    buf[at + 3] = static_cast<std::uint8_t>(v);
  };
  put32(0, t.src_ip);
  put32(4, t.dst_ip);
  buf[8] = static_cast<std::uint8_t>(t.src_port >> 8);
  buf[9] = static_cast<std::uint8_t>(t.src_port);
  buf[10] = static_cast<std::uint8_t>(t.dst_port >> 8);
  buf[11] = static_cast<std::uint8_t>(t.dst_port);
  buf[12] = t.proto;
  return crc16(buf, sizeof(buf));
}

}  // namespace astral::net
