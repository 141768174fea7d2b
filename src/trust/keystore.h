#ifndef LBTRUST_TRUST_KEYSTORE_H_
#define LBTRUST_TRUST_KEYSTORE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "util/status.h"

namespace lbtrust::trust {

/// Maps opaque key *handles* (short strings that appear as values inside
/// policies, e.g. in `rsaprivkey(me,K)`) to key material. Policies only ever
/// see handles — private keys never enter the fact base, mirroring the
/// paper's "application-defined libraries of custom predicates" (§3).
class KeyStore {
 public:
  /// Stores a key and returns its handle ("rsa:priv:<fp>", "rsa:pub:<fp>",
  /// "hmac:<fp>"). Re-adding identical material returns the same handle.
  /// A shared secret is stored with its HMAC-SHA1 keyed state, built once
  /// here and immutable afterwards.
  std::string AddRsaPrivateKey(const crypto::RsaPrivateKey& key);
  std::string AddRsaPublicKey(const crypto::RsaPublicKey& key);
  std::string AddSharedSecret(const std::string& secret);

  const crypto::RsaPrivateKey* FindPrivate(std::string_view handle) const;
  const crypto::RsaPublicKey* FindPublic(std::string_view handle) const;
  const std::string* FindSecret(std::string_view handle) const;
  /// The HMAC-SHA1 keyed state of a shared secret (see AddSharedSecret).
  const crypto::HmacSha1Key* FindHmacKey(std::string_view handle) const;

  /// Fingerprint of the key material behind a stored handle (the "<fp>"
  /// component: crypto::KeyFingerprint for RSA keys — identical for a key
  /// pair's private and public handle — SHA-1 prefix for HMAC secrets).
  /// kNotFound for handles this store has never issued.
  util::Result<std::string> Fingerprint(const std::string& handle) const;

  /// All public-key handles, in deterministic (sorted) order. Credential
  /// issuance enumerates these to pick signing identities.
  std::vector<std::string> PublicKeyHandles() const;

  /// Public key whose crypto::KeyFingerprint equals `fingerprint`, or
  /// nullptr. This is how credential verification turns the fingerprint
  /// named inside a credential back into key material.
  const crypto::RsaPublicKey* FindPublicByFingerprint(
      const std::string& fingerprint) const;

  size_t size() const {
    return private_keys_.size() + public_keys_.size() + secrets_.size();
  }

 private:
  std::map<std::string, crypto::RsaPrivateKey, std::less<>> private_keys_;
  std::map<std::string, crypto::RsaPublicKey, std::less<>> public_keys_;
  struct SharedSecret {
    std::string secret;
    crypto::HmacSha1Key hmac;
  };
  std::map<std::string, SharedSecret, std::less<>> secrets_;
};

}  // namespace lbtrust::trust

#endif  // LBTRUST_TRUST_KEYSTORE_H_
