#include "crypto/hmac.h"

#include <string>

#include <gtest/gtest.h>

#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "util/strings.h"

namespace lbtrust::crypto {
namespace {

// The key of case 4 in both RFC 2202 and RFC 4231: the bytes 0x01..0x19.
std::string CountingKey() {
  std::string key;
  for (int i = 1; i <= 25; ++i) key.push_back(static_cast<char>(i));
  return key;
}

// RFC 2202 HMAC-SHA1 test vectors.
TEST(HmacSha1Test, Rfc2202Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(util::HexEncode(HmacSha1(key, "Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1Test, Rfc2202Case2) {
  EXPECT_EQ(util::HexEncode(HmacSha1("Jefe", "what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1Test, Rfc2202Case3) {
  std::string key(20, '\xaa');
  std::string msg(50, '\xdd');
  EXPECT_EQ(util::HexEncode(HmacSha1(key, msg)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1Test, Rfc2202Case4) {
  EXPECT_EQ(util::HexEncode(HmacSha1(CountingKey(), std::string(50, '\xcd'))),
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
}

TEST(HmacSha1Test, Rfc2202Case5) {
  std::string key(20, '\x0c');
  EXPECT_EQ(util::HexEncode(HmacSha1(key, "Test With Truncation")),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
}

// RFC 2202 case 6.
TEST(HmacSha1Test, Rfc2202LongKey) {
  std::string key(80, '\xaa');
  EXPECT_EQ(util::HexEncode(HmacSha1(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1Test, Rfc2202Case7) {
  std::string key(80, '\xaa');
  EXPECT_EQ(util::HexEncode(HmacSha1(key,
                                     "Test Using Larger Than Block-Size Key "
                                     "and Larger Than One Block-Size Data")),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256Test, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(util::HexEncode(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  EXPECT_EQ(
      util::HexEncode(HmacSha256("Jefe", "what do ya want for nothing?")),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3) {
  std::string key(20, '\xaa');
  std::string msg(50, '\xdd');
  EXPECT_EQ(util::HexEncode(HmacSha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, Rfc4231Case4) {
  EXPECT_EQ(
      util::HexEncode(HmacSha256(CountingKey(), std::string(50, '\xcd'))),
      "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// Case 5 publishes only the tag truncated to 128 bits.
TEST(HmacSha256Test, Rfc4231Case5Truncated) {
  std::string key(20, '\x0c');
  std::string tag = util::HexEncode(HmacSha256(key, "Test With Truncation"));
  EXPECT_EQ(tag.substr(0, 32), "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacSha256Test, Rfc4231Case6) {
  std::string key(131, '\xaa');
  EXPECT_EQ(util::HexEncode(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, Rfc4231Case7) {
  std::string key(131, '\xaa');
  EXPECT_EQ(
      util::HexEncode(HmacSha256(
          key,
          "This is a test using a larger than block-size key and a larger "
          "than block-size data. The key needs to be hashed before being "
          "used by the HMAC algorithm.")),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// RFC 2104 spelled out with the plain hash and explicit pads, independent
// of HmacKey's saved midstates.
template <typename Hash>
std::string ReferenceHmac(std::string key, const std::string& message) {
  if (key.size() > Hash::kBlockSize) key = Hash::Digest(key);
  key.resize(Hash::kBlockSize, '\0');
  std::string ipad(key), opad(key);
  for (size_t i = 0; i < Hash::kBlockSize; ++i) {
    ipad[i] = static_cast<char>(ipad[i] ^ 0x36);
    opad[i] = static_cast<char>(opad[i] ^ 0x5c);
  }
  return Hash::Digest(opad + Hash::Digest(ipad + message));
}

// One keyed state tags every length across the one-, two- and
// three-block inner hashes; each tag must match the reference, so reuse
// never leaks state from one tag into the next.
template <typename Hash>
void CheckKeyReuse(const std::string& key) {
  HmacKey<Hash> keyed(key);
  std::string message;
  for (size_t len = 0; len <= 200; ++len) {
    EXPECT_EQ(util::HexEncode(keyed.Tag(message)),
              util::HexEncode(ReferenceHmac<Hash>(key, message)))
        << "key " << key.size() << " bytes, message " << len << " bytes";
    message.push_back(static_cast<char>(len * 31 + 7));
  }
}

TEST(HmacKeyTest, ReuseMatchesReferenceAtEveryLength) {
  for (const std::string& key :
       {std::string(), std::string("sharedsecret-alice-bob"),
        std::string(64, 'k'), std::string(100, '\xaa')}) {
    CheckKeyReuse<Sha1>(key);
    CheckKeyReuse<Sha256>(key);
  }
}

TEST(HmacTest, KeySensitivity) {
  EXPECT_NE(HmacSha1("k1", "msg"), HmacSha1("k2", "msg"));
  EXPECT_NE(HmacSha1("k", "msg1"), HmacSha1("k", "msg2"));
}

TEST(ConstantTimeEqualsTest, Behaviour) {
  EXPECT_TRUE(ConstantTimeEquals("abc", "abc"));
  EXPECT_FALSE(ConstantTimeEquals("abc", "abd"));
  EXPECT_FALSE(ConstantTimeEquals("abc", "ab"));
  EXPECT_TRUE(ConstantTimeEquals("", ""));
}

}  // namespace
}  // namespace lbtrust::crypto
