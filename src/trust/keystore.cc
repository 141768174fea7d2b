#include "trust/keystore.h"

#include "crypto/sha1.h"
#include "util/strings.h"

namespace lbtrust::trust {

namespace {
std::string MaterialFingerprint(const std::string& material) {
  return util::HexEncode(crypto::Sha1::Digest(material)).substr(0, 16);
}
}  // namespace

std::string KeyStore::AddRsaPrivateKey(const crypto::RsaPrivateKey& key) {
  std::string handle =
      util::StrCat("rsa:priv:", crypto::KeyFingerprint(key.PublicKey()));
  private_keys_.emplace(handle, key);
  return handle;
}

std::string KeyStore::AddRsaPublicKey(const crypto::RsaPublicKey& key) {
  std::string handle =
      util::StrCat("rsa:pub:", crypto::KeyFingerprint(key));
  public_keys_.emplace(handle, key);
  return handle;
}

std::string KeyStore::AddSharedSecret(const std::string& secret) {
  std::string handle = util::StrCat("hmac:", MaterialFingerprint(secret));
  secrets_.emplace(handle, SharedSecret{secret, crypto::HmacSha1Key(secret)});
  return handle;
}

const crypto::RsaPrivateKey* KeyStore::FindPrivate(
    std::string_view handle) const {
  auto it = private_keys_.find(handle);
  return it == private_keys_.end() ? nullptr : &it->second;
}

const crypto::RsaPublicKey* KeyStore::FindPublic(
    std::string_view handle) const {
  auto it = public_keys_.find(handle);
  return it == public_keys_.end() ? nullptr : &it->second;
}

const std::string* KeyStore::FindSecret(std::string_view handle) const {
  auto it = secrets_.find(handle);
  return it == secrets_.end() ? nullptr : &it->second.secret;
}

const crypto::HmacSha1Key* KeyStore::FindHmacKey(
    std::string_view handle) const {
  auto it = secrets_.find(handle);
  return it == secrets_.end() ? nullptr : &it->second.hmac;
}

util::Result<std::string> KeyStore::Fingerprint(
    const std::string& handle) const {
  if (private_keys_.count(handle) == 0 && public_keys_.count(handle) == 0 &&
      secrets_.count(handle) == 0) {
    return util::NotFound(util::StrCat("unknown key handle '", handle, "'"));
  }
  // Handles are "<scheme>:[priv|pub:]<fp>"; the fingerprint is the part
  // after the last colon (handles are minted by this class, see Add*).
  size_t sep = handle.rfind(':');
  return handle.substr(sep + 1);
}

std::vector<std::string> KeyStore::PublicKeyHandles() const {
  std::vector<std::string> out;
  out.reserve(public_keys_.size());
  for (const auto& [handle, key] : public_keys_) out.push_back(handle);
  return out;  // std::map iteration order: already sorted
}

const crypto::RsaPublicKey* KeyStore::FindPublicByFingerprint(
    const std::string& fingerprint) const {
  return FindPublic(util::StrCat("rsa:pub:", fingerprint));
}

}  // namespace lbtrust::trust
