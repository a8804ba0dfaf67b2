// ECMP hashing. Commodity switching ASICs hash the 5-tuple with a
// GF(2)-linear function (CRC family), a property exploited by the
// controller footnote in §2.1 and by Zhang et al. (ATC'21) for relative
// path control: because crc(a XOR b) = crc(a) XOR crc(b), flipping bits
// of the UDP source port moves the hash by a predictable offset. We model
// the ASIC with a CRC-16 (init 0, no final XOR) so linearity holds
// exactly, and the controller runs this very same "hash simulator".
#pragma once

#include <cstddef>
#include <cstdint>

namespace astral::net {

/// The 5-tuple ECMP hashes on. IPs are node ids in the simulator.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 4791;  ///< RoCEv2 UDP destination port.
  std::uint8_t proto = 17;        ///< UDP.

  bool operator==(const FiveTuple&) const = default;
};

/// GF(2)-linear CRC-16/CCITT over a byte stream; init 0, no final XOR so
/// crc(a ^ b) == crc(a) ^ crc(b) for equal-length inputs.
std::uint16_t crc16(const std::uint8_t* data, std::size_t len, std::uint16_t init = 0);

/// Switch-ASIC ECMP hash model shared by the data plane and the central
/// controller's hash simulator. The hash is two stages: the linear CRC of
/// the tuple, then a per-switch salt folded in. A router computes the CRC
/// once per flow and folds in each hop's salt.
class EcmpHash {
 public:
  /// The salt-independent stage: CRC-16 of the tuple's 13-byte wire
  /// encoding (IPs and ports big-endian, then the protocol).
  static std::uint16_t crc(const FiveTuple& t);

  /// Folds a switch salt into a tuple CRC. The salt enters after the
  /// linear stage, so per-switch decisions differ while tuple-linearity
  /// within one switch is preserved.
  static std::uint16_t fold(std::uint16_t crc, std::uint32_t salt) {
    const auto s = static_cast<std::uint16_t>(salt ^ (salt >> 16));
    return static_cast<std::uint16_t>(crc ^ s ^ static_cast<std::uint16_t>(s << 5));
  }

  /// Hash of the tuple as seen by the switch with the given salt (salts
  /// decorrelate hop-level decisions; many real ASICs use a per-switch
  /// seed for the same reason). Equals fold(crc(t), salt).
  std::uint16_t hash(const FiveTuple& t, std::uint32_t salt) const { return fold(crc(t), salt); }

  /// Picks one of n equal-cost candidates given the tuple's CRC. n must
  /// be > 0.
  static int pick(std::uint16_t crc, std::uint32_t salt, int n) {
    return static_cast<int>(fold(crc, salt) % static_cast<std::uint16_t>(n));
  }

  /// Picks one of n equal-cost candidates. n must be > 0.
  int select(const FiveTuple& t, std::uint32_t salt, int n) const {
    return pick(crc(t), salt, n);
  }
};

}  // namespace astral::net
