#include "crypto/rsa.h"

#include <string>

#include <gtest/gtest.h>

#include "trust/trust_runtime.h"
#include "util/strings.h"

namespace lbtrust::crypto {
namespace {

// A 512-bit key keeps the unit suite fast; 1024-bit generation is covered
// once below and used throughout the benchmarks.
RsaKeyPair TestKeyPair(uint64_t seed = 42, size_t bits = 512) {
  SecureRandom rng(seed);
  auto kp = RsaGenerateKeyPair(bits, &rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  return kp.value();
}

TEST(RsaTest, KeyGenerationProducesValidKey) {
  RsaKeyPair kp = TestKeyPair();
  EXPECT_EQ(kp.public_key.n.BitLength(), 512u);
  EXPECT_EQ(kp.public_key.e, BigInt(65537));
  EXPECT_EQ(kp.private_key.p * kp.private_key.q, kp.private_key.n);
  // e*d = 1 mod phi
  BigInt phi = (kp.private_key.p - BigInt(1)) * (kp.private_key.q - BigInt(1));
  auto prod = BigInt::Mod(kp.private_key.e * kp.private_key.d, phi);
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(*prod, BigInt(1));
}

TEST(RsaTest, KeyGenerationIsDeterministicPerSeed) {
  RsaKeyPair a = TestKeyPair(7);
  RsaKeyPair b = TestKeyPair(7);
  RsaKeyPair c = TestKeyPair(8);
  EXPECT_EQ(a.public_key.n, b.public_key.n);
  EXPECT_NE(a.public_key.n, c.public_key.n);
}

TEST(RsaTest, SignVerifyRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  std::string msg = "says(alice,bob,[|access(carol,file1,read).|])";
  auto sig = RsaSign(kp.private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 64u);  // 512-bit modulus
  EXPECT_TRUE(RsaVerify(kp.public_key, msg, *sig));
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  RsaKeyPair kp = TestKeyPair();
  auto sig = RsaSign(kp.private_key, "access(alice,f,read)");
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(RsaVerify(kp.public_key, "access(mallory,f,read)", *sig));
}

TEST(RsaTest, VerifyRejectsTamperedSignature) {
  RsaKeyPair kp = TestKeyPair();
  std::string msg = "m";
  auto sig = RsaSign(kp.private_key, msg);
  ASSERT_TRUE(sig.ok());
  std::string bad = *sig;
  bad[10] = static_cast<char>(bad[10] ^ 0x40);
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, bad));
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, sig->substr(1)));  // bad length
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  RsaKeyPair kp1 = TestKeyPair(1);
  RsaKeyPair kp2 = TestKeyPair(2);
  auto sig = RsaSign(kp1.private_key, "m");
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(RsaVerify(kp2.public_key, "m", *sig));
}

TEST(RsaTest, CrtMatchesPlainExponentiation) {
  RsaKeyPair kp = TestKeyPair();
  // Strip CRT components; PrivateOp falls back to plain d.
  RsaPrivateKey plain = kp.private_key;
  plain.p = BigInt();
  plain.q = BigInt();
  auto s1 = RsaSign(kp.private_key, "hello");
  auto s2 = RsaSign(plain, "hello");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(RsaTest, SerializeRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  auto pub = RsaPublicKey::Deserialize(kp.public_key.Serialize());
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub->n, kp.public_key.n);
  EXPECT_EQ(pub->e, kp.public_key.e);
  auto priv = RsaPrivateKey::Deserialize(kp.private_key.Serialize());
  ASSERT_TRUE(priv.ok());
  auto sig = RsaSign(*priv, "x");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(RsaVerify(kp.public_key, "x", *sig));
}

TEST(RsaTest, DeserializeRejectsJunk) {
  EXPECT_FALSE(RsaPublicKey::Deserialize("onlyonefield").ok());
  EXPECT_FALSE(RsaPublicKey::Deserialize("xx:yy").ok());
  EXPECT_FALSE(RsaPrivateKey::Deserialize("a:b:c").ok());
}

TEST(RsaTest, EncryptDecryptRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  SecureRandom rng(uint64_t{11});
  std::string secret = "sharedsecret(alice,bob,k123)";
  auto ct = RsaEncrypt(kp.public_key, secret, &rng);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(kp.private_key, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, secret);
}

TEST(RsaTest, DecryptRejectsCorruptedCiphertext) {
  RsaKeyPair kp = TestKeyPair();
  SecureRandom rng(uint64_t{12});
  auto ct = RsaEncrypt(kp.public_key, "msg", &rng);
  ASSERT_TRUE(ct.ok());
  std::string bad = *ct;
  bad[5] = static_cast<char>(bad[5] ^ 0x01);
  auto pt = RsaDecrypt(kp.private_key, bad);
  // Either padding failure or wrong plaintext; must not equal original.
  if (pt.ok()) {
    EXPECT_NE(*pt, "msg");
  }
}

TEST(RsaTest, EncryptRejectsOversizedPlaintext) {
  RsaKeyPair kp = TestKeyPair();
  SecureRandom rng(uint64_t{13});
  std::string big(100, 'x');  // > 64 - 11
  EXPECT_FALSE(RsaEncrypt(kp.public_key, big, &rng).ok());
}

// The 1024-bit key the benchmarks use, generated once for the suite.
const RsaKeyPair& Key2009() {
  static const RsaKeyPair* kp = new RsaKeyPair(TestKeyPair(2009, 1024));
  return *kp;
}

TEST(RsaTest, Generate1024BitKey) {
  const RsaKeyPair& kp = Key2009();
  EXPECT_EQ(kp.public_key.n.BitLength(), 1024u);
  auto sig = RsaSign(kp.private_key, "paper-figure-2");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->size(), 128u);
  EXPECT_TRUE(RsaVerify(kp.public_key, "paper-figure-2", *sig));
}

// Known answers: mesh nodes derive each other's public keys from a seed
// (TrustRuntime::DeriveKeyPair), so key generation and signing must stay
// byte-identical across builds or a mixed-version mesh stops verifying.
TEST(RsaTest, KnownAnswerKeyGeneration) {
  EXPECT_EQ(KeyFingerprint(Key2009().public_key), "9b1ce9d78f181549");
  auto alice = trust::TrustRuntime::DeriveKeyPair("alice", 1, 1024);
  ASSERT_TRUE(alice.ok()) << alice.status().ToString();
  EXPECT_EQ(KeyFingerprint(alice->public_key), "6881df31a62aadf6");
}

TEST(RsaTest, KnownAnswerSignature) {
  auto sig = RsaSign(Key2009().private_key, "paper-figure-2");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(util::HexEncode(*sig),
            "686686c4ccfd26ba61e7cfd1e764b976ea96a575ce641dec70dd88950527cf44"
            "f381595f9ee9682b56d55380aa89734a8cd63579d4df9bc3d065ac2b435191fe"
            "a3de22cd825bf235281213b4f3b37c577b8a2a87481314ffe66faa67c3f66383"
            "72046822bcec0972fe7ac8cee14866d57c81d295188b3ceeae778eb57e955d14");
}

TEST(RsaTest, Verify1024RejectsForgeries) {
  const RsaKeyPair& kp = Key2009();
  const std::string msg = "paper-figure-2";
  auto sig = RsaSign(kp.private_key, msg);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(RsaVerify(kp.public_key, msg, *sig));

  std::string flipped = *sig;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, flipped));

  const BigInt& n = kp.public_key.n;
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, (n - BigInt(1)).ToBytes(128)));
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, n.ToBytes(128)));
  EXPECT_FALSE(RsaVerify(kp.public_key, msg, sig->substr(0, 127)));

  auto other = trust::TrustRuntime::DeriveKeyPair("alice", 1, 1024);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(RsaVerify(other->public_key, msg, *sig));
}

TEST(RsaTest, RejectsBadKeySize) {
  SecureRandom rng(uint64_t{1});
  EXPECT_FALSE(RsaGenerateKeyPair(100, &rng).ok());  // not even/too small
  EXPECT_FALSE(RsaGenerateKeyPair(129, &rng).ok());
}

}  // namespace
}  // namespace lbtrust::crypto
