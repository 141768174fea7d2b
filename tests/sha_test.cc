#include <string>

#include <gtest/gtest.h>

#include "crypto/crc32.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace lbtrust::crypto {
namespace {

// FIPS 180 test vectors.
TEST(Sha1Test, KnownVectors) {
  EXPECT_EQ(Sha1::HexDigest(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::HexDigest("abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionA) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  uint8_t out[Sha1::kDigestSize];
  h.Final(out);
  std::string hex;
  static constexpr char kDigits[] = "0123456789abcdef";
  for (uint8_t b : out) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  EXPECT_EQ(hex, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    uint8_t out[Sha1::kDigestSize];
    h.Final(out);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(out), sizeof(out)),
              Sha1::Digest(msg));
  }
}

TEST(Sha1Test, BlockBoundaryLengths) {
  // Exercise padding at 55/56/63/64/65 bytes (single vs double pad block).
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
    std::string msg(len, 'x');
    std::string d1 = Sha1::Digest(msg);
    Sha1 h;
    for (char c : msg) h.Update(&c, 1);
    uint8_t out[Sha1::kDigestSize];
    h.Final(out);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(out), sizeof(out)), d1)
        << len;
  }
}

// 'a' repeated n times, for n around the one/two-block padding boundary
// (55 bytes fit one block with the length, 56 do not). Digests computed
// with Python's hashlib.
struct PaddingVector {
  size_t n;
  const char* sha1;
  const char* sha256;
};

const PaddingVector kPaddingVectors[] = {
    {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8",
     "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
    {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a",
     "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699",
     "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {57, "f08f24908d682555111be7ff6f004e78283d989a",
     "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
    {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5",
     "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
    {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d",
     "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
    {65, "11655326c708d70319be2610e8a57d9a5b959d3b",
     "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
    {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
     "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
    {120, "f34c1488385346a55709ba056ddd08280dd4c6d6",
     "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
    {128, "ad5b3fdbcb526778c2839d2f151ea753995e26a0",
     "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
};

TEST(Sha1Test, PaddingBoundaryVectors) {
  for (const PaddingVector& v : kPaddingVectors) {
    EXPECT_EQ(Sha1::HexDigest(std::string(v.n, 'a')), v.sha1) << v.n;
  }
}

TEST(Sha256Test, PaddingBoundaryVectors) {
  for (const PaddingVector& v : kPaddingVectors) {
    EXPECT_EQ(Sha256::HexDigest(std::string(v.n, 'a')), v.sha256) << v.n;
  }
}

TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg(300, '\0');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<char>(i * 7);
  Sha256 h;
  h.Update(msg.substr(0, 100));
  h.Update(msg.substr(100, 100));
  h.Update(msg.substr(200));
  uint8_t out[Sha256::kDigestSize];
  h.Final(out);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(out), sizeof(out)),
            Sha256::Digest(msg));
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(Sha256::Digest("a"), Sha256::Digest("b"));
  EXPECT_NE(Sha256::Digest("says(alice,bob,x)"),
            Sha256::Digest("says(alice,bob,y)"));
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string msg = "reachable(alice,bob)";
  uint32_t base = Crc32(msg);
  for (size_t i = 0; i < msg.size(); ++i) {
    std::string flipped = msg;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    EXPECT_NE(Crc32(flipped), base) << i;
  }
}

}  // namespace
}  // namespace lbtrust::crypto
