// SHA-256 / HMAC against official vectors; simulated signatures and VRF.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/cost.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/vrf.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

/// `n` bytes of (i * mul + add) mod 256 — the message and key patterns
/// the offline-generated boundary vectors below were computed over.
std::vector<std::uint8_t> pattern(std::size_t n, unsigned mul, unsigned add) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * mul + add);
  }
  return out;
}

// --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exercises the padding path that adds a full extra block.
  const std::string block(64, 'a');
  EXPECT_EQ(sha256(block).to_hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split=" << split;
  }
}

TEST(Sha256, PaddingBoundariesOneShotAndSplit) {
  // Lengths straddling the 55/56-byte point where the length field no
  // longer fits the final block, and the block edges around it. Vectors:
  // python3 -c "import hashlib; print(hashlib.sha256(bytes((i*31+7)&255
  //   for i in range(n))).hexdigest())"
  const std::vector<std::pair<std::size_t, std::string>> vectors = {
      {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
      {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
      {57, "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d"},
      {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
      {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
      {65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"},
      {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
      {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
      {121, "614571410beab3df68d50132a341d338575653da8374c630441bbe380b9b3136"},
      {128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356"},
  };
  for (const auto& [n, hex] : vectors) {
    const std::vector<std::uint8_t> msg = pattern(n, 31, 7);
    EXPECT_EQ(sha256(msg).to_hex(), hex) << "one-shot n=" << n;
    const std::span<const std::uint8_t> all(msg);
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(all.first(split)).update(all.subspan(split));
      EXPECT_EQ(h.finish().to_hex(), hex) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Sha256, BlockCounterCountsCompressions) {
  // 55 bytes pad into one block, 56 spill into a second; a copied context
  // compresses only what it absorbs after the copy.
  std::uint64_t before = sha256_blocks();
  (void)sha256(pattern(55, 31, 7));
  EXPECT_EQ(sha256_blocks() - before, 1u);
  before = sha256_blocks();
  (void)sha256(pattern(56, 31, 7));
  EXPECT_EQ(sha256_blocks() - before, 2u);
  Sha256 prefix;
  prefix.update(pattern(64, 31, 7));
  before = sha256_blocks();
  Sha256 copy = prefix;
  (void)copy.finish();
  EXPECT_EQ(sha256_blocks() - before, 1u);
}

TEST(Sha256, ContextReuseRejected) {
  Sha256 h;
  (void)h.update("x").finish();
  EXPECT_THROW((void)h.finish(), support::ContractViolation);
}

TEST(Sha256, UpdateU64LittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::array<std::uint8_t, 8> le = {0x08, 0x07, 0x06, 0x05,
                                          0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(a.finish(), sha256(std::span<const std::uint8_t>(le)));
}

TEST(Sha256, DoubleHash) {
  const auto data = bytes_of("hello");
  const Digest once = sha256(std::span<const std::uint8_t>(data));
  EXPECT_EQ(sha256d(data), sha256(once.bytes));
}

TEST(Digest, HexRoundTrip) {
  const Digest d = sha256("roundtrip");
  EXPECT_EQ(Digest::from_hex(d.to_hex()), d);
}

TEST(Digest, FromHexRejectsMalformed) {
  EXPECT_THROW((void)Digest::from_hex("abc"), support::ContractViolation);
  std::string bad(64, 'g');
  EXPECT_THROW((void)Digest::from_hex(bad), support::ContractViolation);
}

TEST(Digest, Prefix64BigEndian) {
  Digest d{};
  d.bytes[0] = 0x01;
  d.bytes[7] = 0xff;
  EXPECT_EQ(d.prefix64(), 0x01000000000000ffULL);
}

TEST(Digest, OrderingAndHash) {
  const Digest a = sha256("a");
  const Digest b = sha256("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(std::hash<Digest>{}(a), std::hash<Digest>{}(b));
}

// --- HMAC-SHA256 (RFC 4231 vectors) --------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hmac_sha256(key, "Hi There").to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto key = bytes_of("Jefe");
  EXPECT_EQ(hmac_sha256(key, "what do ya want for nothing?").to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsPreHashed) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(
      hmac_sha256(key, "Test Using Larger Than Block-Size Key - Hash Key First")
          .to_hex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeyScheduleRunsRfc4231Cases) {
  // The same RFC 4231 cases 1-3, through one HmacKey reused for two
  // messages (the schedule must not be consumed by the first MAC).
  const HmacKey case1(std::vector<std::uint8_t>(20, 0x0b));
  EXPECT_EQ(case1.mac("Hi There").to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(case1.mac("Hi There").to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  const HmacKey case2(bytes_of("Jefe"));
  EXPECT_EQ(case2.mac("what do ya want for nothing?").to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  const HmacKey case3(std::vector<std::uint8_t>(20, 0xaa));
  EXPECT_EQ(case3.mac(std::vector<std::uint8_t>(50, 0xdd)).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, KeyScheduleMatchesReferenceVectors) {
  // Key lengths around the 64-byte block (65 and 131 are pre-hashed)
  // against message lengths around the padding boundary. Vectors:
  // python3 -c "import hashlib, hmac; p=lambda n,m,a: bytes((i*m+a)&255
  //   for i in range(n)); print(hmac.new(p(k,13,1), p(m,17,5),
  //   hashlib.sha256).hexdigest())"
  struct Vector {
    std::size_t key_len;
    std::size_t msg_len;
    std::string hex;
  };
  const std::vector<Vector> vectors = {
      {0, 0,
       "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"},
      {0, 32,
       "9c98f0e69d58fd604aaf9fc07e9a8425b0efe8a9e5aca6e2921e8850584e4b1d"},
      {0, 55,
       "62fd348be0e70703e25283b2ced41bd81464d50d89d95cb77680f3b59ae9593d"},
      {0, 56,
       "2e3234dd6e17f34e8448a304c2d58647298fc0a7e532c35b488d02b1d2ec9395"},
      {0, 64,
       "9069ad2f20c6d6697edf008cf3c22b8f5052055f7725d4103fccebb74161139d"},
      {20, 0,
       "758f010fedfb3115e9fc9874376a84d2934c45c3063f4c3fab08d314d01928f7"},
      {20, 32,
       "fc05588879e13c96deb873ee22e101096140d1558e9ae85beba34c2f5227868a"},
      {20, 55,
       "01a2845fa488f0f283b358e6e24e328887914afa904eaf0e6a314c497062f52d"},
      {20, 56,
       "d3f8d7065712822949aa88611e74af9a6710a4ddcf8037d481e248ed9df88538"},
      {20, 64,
       "422719e164a36c15c7ae115d8ef0091916f3f35a8fdf222d6271c0886a842473"},
      {32, 0,
       "cdb708c9bfa0038fba5a6852bbadf0371841c2671f7099d522774b649e2b76b5"},
      {32, 32,
       "3036176398b8f369801d1fc04be550e551783465af64f2241a6f66b9d637e32f"},
      {32, 55,
       "784375358cad70ec3053a35450f5242e5025955930428b60bca08f63788fef3a"},
      {32, 56,
       "b08753dbe5e0ded0df5e8d0a85b7498ca2a1aa4def1d0b6c5db448412344d32f"},
      {32, 64,
       "2eb9ba590864782dc861865cd32f040044a73f1b38f11986aad556f16319f514"},
      {64, 0,
       "0efe5d996e675745a5070d8bb99b04f6746651c3a5e576e8d208ef599ea07c8a"},
      {64, 32,
       "906d957007cf69b9a90e8650898c92259faeaf5478e15ad394a8379e5877772d"},
      {64, 55,
       "393eca1c7a00e9591bc875e77321abb48684bcba3e7213857f811a77d87f12f7"},
      {64, 56,
       "f3cae11eb7633c7ab7427b756e424f7a5af1c4a56f9a252cd9b2c2a6599c793a"},
      {64, 64,
       "630b6ca7268e257ddbc519419b9d7657a6ad083aa40251ac0fc54514b0a63b39"},
      {65, 0,
       "0dc2b3e7b71039add7054f550b7815587ce8097d308e7922c4cbdb90d8d9ab8e"},
      {65, 32,
       "322dc7980e6e3706131a6abae304c84409d3c0464b09234002e6ec6b5d7321e7"},
      {65, 55,
       "81aa6c4d2dfd01acc41da571f8c85b9bfc233254df389251b1d6df73b52e28e9"},
      {65, 56,
       "88fd42cd47bf7c5bc1963e2273787829a202bef416b8cfe0dda28ef57dc19d19"},
      {65, 64,
       "0ef65a790ae3ff0a3c2c239dae30ca5ec343aec47d7931596a69a16cff2a19b9"},
      {131, 0,
       "66382efb3e4e2275d30239770268cff75aa1d9dc6ac2ba77912d2cb51eece9fe"},
      {131, 32,
       "121781a718735dc03168b7bf9f0d3c4dfe79cc67ad5a5fbb8a784c6a14f2298d"},
      {131, 55,
       "fc9cf50de678e3a97020a7e626cf9a189e70067aa9bb2f553fe7bfc8b774dba1"},
      {131, 56,
       "fc200c5908ec1372f1a8a4b17e6f9de3484afbfe86f00039c03d4aa51677da02"},
      {131, 64,
       "60e0534f678db1a48e117b2c653d55e0e13139754374d82bd928e473d87f52b4"},
  };
  for (const Vector& v : vectors) {
    const HmacKey key(pattern(v.key_len, 13, 1));
    EXPECT_EQ(key.mac(pattern(v.msg_len, 17, 5)).to_hex(), v.hex)
        << "key=" << v.key_len << " msg=" << v.msg_len;
  }
}

TEST(Hmac, DifferentKeysDiffer) {
  const auto k1 = bytes_of("key1");
  const auto k2 = bytes_of("key2");
  EXPECT_NE(hmac_sha256(k1, "msg"), hmac_sha256(k2, "msg"));
}

// --- Signatures --------------------------------------------------------

TEST(Keys, SignVerifyRoundTrip) {
  support::Rng rng(1);
  const KeyPair keys = KeyPair::generate(rng);
  KeyRegistry registry;
  EXPECT_TRUE(registry.enroll(keys));
  const Signature sig = keys.sign("hello world");
  EXPECT_TRUE(registry.verify(keys.public_key(), "hello world", sig));
}

TEST(Keys, VerifyRejectsWrongMessage) {
  support::Rng rng(2);
  const KeyPair keys = KeyPair::generate(rng);
  KeyRegistry registry;
  registry.enroll(keys);
  const Signature sig = keys.sign("msg-a");
  EXPECT_FALSE(registry.verify(keys.public_key(), "msg-b", sig));
}

TEST(Keys, VerifyRejectsWrongSigner) {
  support::Rng rng(3);
  const KeyPair alice = KeyPair::generate(rng);
  const KeyPair mallory = KeyPair::generate(rng);
  KeyRegistry registry;
  registry.enroll(alice);
  registry.enroll(mallory);
  const Signature forged = mallory.sign("pay mallory");
  EXPECT_FALSE(registry.verify(alice.public_key(), "pay mallory", forged));
}

TEST(Keys, UnenrolledKeyNeverVerifies) {
  support::Rng rng(4);
  const KeyPair keys = KeyPair::generate(rng);
  KeyRegistry registry;
  EXPECT_FALSE(registry.is_enrolled(keys.public_key()));
  EXPECT_FALSE(
      registry.verify(keys.public_key(), "msg", keys.sign("msg")));
}

TEST(Keys, VerifyCounterCountsComputedMacs) {
  // One MAC per check against an enrolled key, pass or fail; none for an
  // unenrolled key (nothing to compute under).
  const KeyPair keys = KeyPair::derive(6);
  const KeyPair outsider = KeyPair::derive(66);
  KeyRegistry registry;
  registry.enroll(keys);
  const Signature sig = keys.sign("m");
  std::uint64_t before = hmac_verifies();
  EXPECT_TRUE(registry.verify(keys.public_key(), "m", sig));
  EXPECT_TRUE(registry.verify(keys.public_key(), "m", sig));
  EXPECT_FALSE(registry.verify(keys.public_key(), "other", sig));
  EXPECT_EQ(hmac_verifies() - before, 3u);
  before = hmac_verifies();
  EXPECT_FALSE(registry.verify(outsider.public_key(), "m",
                               outsider.sign("m")));
  EXPECT_EQ(hmac_verifies() - before, 0u);
}

TEST(Keys, SignatureTagIsPinned) {
  // Computed before signing moved onto a per-key HMAC schedule: caching
  // the schedule must not change a single signature.
  const KeyPair keys = KeyPair::derive(5);
  EXPECT_EQ(keys.sign("findep").tag.to_hex(),
            "466b62a4c41faefb4a25b6cae7059a4704f17d32f93b364dd46556f08e9c4bf0");
  KeyRegistry registry;
  registry.enroll(keys);
  EXPECT_TRUE(registry.verify(keys.public_key(), "findep",
                              keys.sign("findep")));
  // A copied key pair signs identically (the schedule copies with it).
  const KeyPair copy = keys;
  EXPECT_EQ(copy.sign("findep"), keys.sign("findep"));
}

TEST(Keys, DeriveIsDeterministic) {
  const KeyPair a = KeyPair::derive(42);
  const KeyPair b = KeyPair::derive(42);
  const KeyPair c = KeyPair::derive(43);
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(Keys, SignatureBindsToSigner) {
  // Same message, different keys -> different tags (no cross-key replay).
  const KeyPair a = KeyPair::derive(1);
  const KeyPair b = KeyPair::derive(2);
  EXPECT_NE(a.sign("m"), b.sign("m"));
}

TEST(Keys, EnrollIdempotentAndCollisionSafe) {
  const KeyPair a = KeyPair::derive(7);
  KeyRegistry registry;
  EXPECT_TRUE(registry.enroll(a));
  EXPECT_TRUE(registry.enroll(a));
  EXPECT_EQ(registry.size(), 1u);
}

// --- VRF ----------------------------------------------------------------

TEST(Vrf, DeterministicPerKeyAndInput) {
  const KeyPair keys = KeyPair::derive(11);
  const Digest input = sha256("round-1");
  const VrfOutput a = vrf_evaluate(keys, input);
  const VrfOutput b = vrf_evaluate(keys, input);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.proof, b.proof);
}

TEST(Vrf, VerifiesAgainstRegistry) {
  const KeyPair keys = KeyPair::derive(12);
  KeyRegistry registry;
  registry.enroll(keys);
  const Digest input = sha256("round-2");
  const VrfOutput out = vrf_evaluate(keys, input);
  EXPECT_TRUE(vrf_verify(registry, keys.public_key(), input, out));
}

TEST(Vrf, RejectsWrongInput) {
  const KeyPair keys = KeyPair::derive(13);
  KeyRegistry registry;
  registry.enroll(keys);
  const VrfOutput out = vrf_evaluate(keys, sha256("x"));
  EXPECT_FALSE(vrf_verify(registry, keys.public_key(), sha256("y"), out));
}

TEST(Vrf, UniquenessSelfChosenValueRejected) {
  // A malicious key holder signs a value it likes; verification must
  // reject because the oracle recomputes the true VRF value.
  const KeyPair keys = KeyPair::derive(14);
  KeyRegistry registry;
  registry.enroll(keys);
  const Digest input = sha256("round-3");
  VrfOutput forged = vrf_evaluate(keys, input);
  forged.value = sha256("a value I prefer");
  // Re-sign so the proof matches the forged value.
  forged.proof = keys.sign(Sha256{}
                               .update("findep/vrf-proof/v1")
                               .update(input.bytes)
                               .update(forged.value.bytes)
                               .finish());
  EXPECT_FALSE(vrf_verify(registry, keys.public_key(), input, forged));
}

TEST(Vrf, OutputsAreUniformish) {
  // Smoke check: mean of unit outputs over many keys near 0.5.
  double sum = 0.0;
  constexpr int kN = 2000;
  const Digest input = sha256("round-4");
  for (int i = 0; i < kN; ++i) {
    sum += vrf_evaluate(KeyPair::derive(static_cast<std::uint64_t>(i)),
                        input)
               .as_unit_double();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.03);
}

// --- crypto cost model (crypto/cost.h) --------------------------------------

TEST(CostModel, FreeIsTheAllZeroDefault) {
  const CostModel model;
  EXPECT_TRUE(model.is_free());
  EXPECT_TRUE(CostModel::free().is_free());
  EXPECT_EQ(CostModel::free().sign_seconds(), 0.0);
  EXPECT_EQ(CostModel::free().batch_verify_seconds(1000), 0.0);
}

TEST(CostModel, ModeledChargesSimulatedSeconds) {
  const CostModel model = CostModel::modeled();
  EXPECT_FALSE(model.is_free());
  EXPECT_DOUBLE_EQ(model.sign_seconds(), 50e-6);
  EXPECT_DOUBLE_EQ(model.verify_seconds(), 130e-6);
  // Batch verification beats k independent verifies for any quorum the
  // protocol batches (the entire point of the base + per-item split).
  EXPECT_LT(model.batch_verify_seconds(32), 32 * model.verify_seconds());
  EXPECT_DOUBLE_EQ(model.batch_verify_seconds(0), 20e-6);
}

TEST(CostModel, ParsesTheScenarioAxisValues) {
  EXPECT_TRUE(CostModel::parse("free").is_free());
  EXPECT_FALSE(CostModel::parse("modeled").is_free());
  EXPECT_THROW((void)CostModel::parse("ed25519"), std::invalid_argument);
  EXPECT_THROW((void)CostModel::parse(""), std::invalid_argument);
}

}  // namespace
}  // namespace findep::crypto
