#ifndef LBTRUST_CRYPTO_HMAC_H_
#define LBTRUST_CRYPTO_HMAC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace lbtrust::crypto {

/// HMAC (RFC 2104) under one key. Construction absorbs the key's 0x36 and
/// 0x5c pad blocks into two saved hash midstates; every tag then starts
/// from copies of them, so a message of at most 55 bytes costs two
/// compressions and no heap allocation. Immutable after construction, so
/// one key may tag from several threads at once.
template <typename Hash>
class HmacKey {
 public:
  static constexpr size_t kTagSize = Hash::kDigestSize;

  explicit HmacKey(std::string_view key);

  /// Writes the kTagSize-byte tag of `message` to `out`.
  void Tag(std::string_view message, uint8_t out[kTagSize]) const;
  /// Raw tag bytes.
  std::string Tag(std::string_view message) const;

 private:
  Hash inner_;  // midstate after key ^ 0x36..
  Hash outer_;  // midstate after key ^ 0x5c..
};

extern template class HmacKey<Sha1>;
extern template class HmacKey<Sha256>;

/// HMAC-SHA1 is the paper's MAC-based `says` authentication scheme
/// (§4.1.2): a 160-bit tag over the message and a shared secret.
using HmacSha1Key = HmacKey<Sha1>;

/// One-shot HMAC: raw tag bytes (20 for SHA-1, 32 for SHA-256). Callers
/// that tag many messages under one key keep an HmacKey instead.
std::string HmacSha1(std::string_view key, std::string_view message);
std::string HmacSha256(std::string_view key, std::string_view message);

/// Constant-time comparison of two byte strings (length leaks only).
bool ConstantTimeEquals(std::string_view a, std::string_view b);

}  // namespace lbtrust::crypto

#endif  // LBTRUST_CRYPTO_HMAC_H_
