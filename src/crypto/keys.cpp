#include "crypto/keys.h"

#include "support/assert.h"
#include "support/rng.h"

namespace findep::crypto {

namespace {
constexpr std::string_view kPublicKeyDomain = "findep/pubkey/v1";
constexpr std::string_view kSignatureDomain = "findep/sig/v1";

PublicKey public_from_secret(const Digest& secret) {
  return PublicKey{
      Sha256{}.update(kPublicKeyDomain).update(secret.bytes).finish()};
}

/// The HMAC schedule a secret signs and verifies under, built once per
/// key pair (the registry enrolls a copy).
HmacKey signing_schedule(const Digest& secret) {
  // Domain-separate signing from other HMAC uses of the same secret.
  const Digest keyed =
      Sha256{}.update(kSignatureDomain).update(secret.bytes).finish();
  return HmacKey(keyed.bytes);
}
}  // namespace

KeyPair::KeyPair(Digest secret, PublicKey pub)
    : secret_(secret), pub_(pub), schedule_(signing_schedule(secret)) {}

KeyPair KeyPair::generate(support::Rng& rng) {
  Digest secret;
  for (std::size_t i = 0; i < secret.bytes.size(); i += 8) {
    const std::uint64_t word = rng();
    for (std::size_t j = 0; j < 8; ++j) {
      secret.bytes[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  return KeyPair{secret, public_from_secret(secret)};
}

KeyPair KeyPair::derive(std::uint64_t seed) {
  const Digest secret =
      Sha256{}.update("findep/keyseed/v1").update_u64(seed).finish();
  return KeyPair{secret, public_from_secret(secret)};
}

Signature KeyPair::sign(std::span<const std::uint8_t> message) const {
  return Signature{schedule_.mac(message)};
}

Signature KeyPair::sign(std::string_view message) const {
  return sign(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.data()),
      message.size()));
}

Signature KeyPair::sign(const Digest& message) const {
  return sign(std::span<const std::uint8_t>(message.bytes));
}

bool KeyRegistry::enroll(const KeyPair& keys) {
  const Digest& secret = keys.secret_for_oracle();
  const auto it = keys_.find(keys.public_key().id);
  if (it != keys_.end()) return it->second.secret == secret;
  keys_.emplace(keys.public_key().id, Entry{secret, keys.schedule_});
  return true;
}

bool KeyRegistry::is_enrolled(const PublicKey& pub) const {
  return keys_.contains(pub.id);
}

std::optional<Digest> KeyRegistry::secret_of(const PublicKey& pub) const {
  const auto it = keys_.find(pub.id);
  if (it == keys_.end()) return std::nullopt;
  return it->second.secret;
}

bool KeyRegistry::verify(const PublicKey& pub,
                         std::span<const std::uint8_t> message,
                         const Signature& sig) const {
  const auto it = keys_.find(pub.id);
  if (it == keys_.end()) return false;
  return it->second.schedule.mac(message) == sig.tag;
}

bool KeyRegistry::verify(const PublicKey& pub, std::string_view message,
                         const Signature& sig) const {
  return verify(pub,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(message.data()),
                    message.size()),
                sig);
}

bool KeyRegistry::verify(const PublicKey& pub, const Digest& message,
                         const Signature& sig) const {
  return verify(pub, std::span<const std::uint8_t>(message.bytes), sig);
}

}  // namespace findep::crypto
