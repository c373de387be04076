// HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on the local SHA-256.
// Used for keyed commitments (configuration privacy, Remark 3) and as the
// PRF inside the simulated signature and VRF schemes.
#pragma once

#include <span>
#include <string_view>

#include "crypto/sha256.h"

namespace findep::crypto {

/// A key's HMAC schedule: the inner and outer SHA-256 states after
/// absorbing the key XOR ipad / opad block. Built once per key, so each
/// MAC costs only the message blocks plus one outer block instead of
/// re-absorbing both pads every time.
class HmacKey {
 public:
  /// Keys longer than the 64-byte block are pre-hashed per the RFC.
  explicit HmacKey(std::span<const std::uint8_t> key) noexcept;

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const;
  [[nodiscard]] Digest mac(std::string_view message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA256 over `message` with `key`: HmacKey(key).mac(message).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::string_view message);

}  // namespace findep::crypto
