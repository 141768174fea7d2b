#include "crypto/hmac.h"

#include <algorithm>

namespace lbtrust::crypto {

template <typename Hash>
HmacKey<Hash>::HmacKey(std::string_view key) {
  uint8_t block[Hash::kBlockSize] = {};
  if (key.size() > Hash::kBlockSize) {
    Hash h;
    h.Update(key);
    h.Final(block);
  } else {
    std::copy(key.begin(), key.end(), block);
  }
  uint8_t pad[Hash::kBlockSize];
  for (size_t i = 0; i < Hash::kBlockSize; ++i) pad[i] = block[i] ^ 0x36;
  inner_.Update(pad, Hash::kBlockSize);
  for (size_t i = 0; i < Hash::kBlockSize; ++i) pad[i] = block[i] ^ 0x5c;
  outer_.Update(pad, Hash::kBlockSize);
}

template <typename Hash>
void HmacKey<Hash>::Tag(std::string_view message,
                        uint8_t out[kTagSize]) const {
  Hash h = inner_;
  h.Update(message);
  h.Final(out);  // the inner digest, absorbed below before `out` is rewritten
  h = outer_;
  h.Update(out, kTagSize);
  h.Final(out);
}

template <typename Hash>
std::string HmacKey<Hash>::Tag(std::string_view message) const {
  uint8_t out[kTagSize];
  Tag(message, out);
  return std::string(reinterpret_cast<const char*>(out), kTagSize);
}

template class HmacKey<Sha1>;
template class HmacKey<Sha256>;

std::string HmacSha1(std::string_view key, std::string_view message) {
  return HmacSha1Key(key).Tag(message);
}

std::string HmacSha256(std::string_view key, std::string_view message) {
  return HmacKey<Sha256>(key).Tag(message);
}

bool ConstantTimeEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned char>(a[i]) ^ static_cast<unsigned char>(b[i]);
  }
  return diff == 0;
}

}  // namespace lbtrust::crypto
