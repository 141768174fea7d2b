#include "trust/trust_builtins.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/stream_cipher.h"
#include "util/strings.h"

namespace lbtrust::trust {

using datalog::Tuple;
using datalog::Value;
using datalog::ValueKind;
using util::Status;

namespace {

// Bytes a value contributes to signatures/MACs: canonical code form for
// rules, raw text for strings/symbols, printed form otherwise. Views the
// value's own text where it has one; only the printed form is built.
class MessageBytes {
 public:
  explicit MessageBytes(const Value& v) {
    switch (v.kind()) {
      case ValueKind::kCode:
        bytes_ = v.AsCode().canon;
        break;
      case ValueKind::kString:
      case ValueKind::kSymbol:
        bytes_ = v.AsText();
        break;
      default:
        printed_ = v.ToString();
        bytes_ = printed_;
    }
  }
  MessageBytes(const MessageBytes&) = delete;
  MessageBytes& operator=(const MessageBytes&) = delete;

  std::string_view view() const { return bytes_; }

 private:
  std::string printed_;
  std::string_view bytes_;
};

// RSA results are cached (CryptoBuiltinsTest.SigningIsCachedAcrossFixpoints);
// an HMAC tag costs less than a lookup here, so it is always recomputed.
struct Caches {
  std::map<std::pair<std::string, std::string>, std::string> rsa_sign;
  std::map<std::string, bool> rsa_verify;  // key: msg|sig|handle
};

}  // namespace

void RegisterCryptoBuiltins(datalog::Workspace* ws, const KeyStore* keystore,
                            std::shared_ptr<CryptoStats> stats) {
  auto caches = std::make_shared<Caches>();
  if (!stats) stats = std::make_shared<CryptoStats>();

  ws->RegisterBuiltin(
      "rsasign", 3, {"bfb", "bbb"},
      [keystore, caches, stats](const std::vector<std::optional<Value>>& args,
                                const datalog::EmitFn& emit) -> Status {
        MessageBytes msg(*args[0]);
        MessageBytes handle(*args[2]);
        auto key =
            std::make_pair(std::string(msg.view()), std::string(handle.view()));
        auto it = caches->rsa_sign.find(key);
        std::string sig_hex;
        if (it != caches->rsa_sign.end()) {
          ++stats->cache_hits;
          sig_hex = it->second;
        } else {
          const crypto::RsaPrivateKey* priv =
              keystore->FindPrivate(handle.view());
          if (priv == nullptr) {
            return util::CryptoError(util::StrCat(
                "unknown private key handle '", handle.view(), "'"));
          }
          LB_ASSIGN_OR_RETURN(std::string sig,
                              crypto::RsaSign(*priv, msg.view()));
          ++stats->rsa_signs;
          sig_hex = util::HexEncode(sig);
          caches->rsa_sign.emplace(key, sig_hex);
        }
        emit({*args[0], Value::Str(sig_hex), *args[2]});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "rsaverify", 3, {"bbb"},
      [keystore, caches, stats](const std::vector<std::optional<Value>>& args,
                                const datalog::EmitFn& emit) -> Status {
        MessageBytes msg(*args[0]);
        MessageBytes sig_hex(*args[1]);
        MessageBytes handle(*args[2]);
        std::string cache_key = util::StrCat(msg.view(), "|", sig_hex.view(),
                                             "|", handle.view());
        bool ok;
        auto it = caches->rsa_verify.find(cache_key);
        if (it != caches->rsa_verify.end()) {
          ++stats->cache_hits;
          ok = it->second;
        } else {
          const crypto::RsaPublicKey* pub = keystore->FindPublic(handle.view());
          if (pub == nullptr) return util::OkStatus();  // no key: no match
          std::string sig;
          if (!util::HexDecode(sig_hex.view(), &sig)) return util::OkStatus();
          ok = crypto::RsaVerify(*pub, msg.view(), sig);
          ++stats->rsa_verifies;
          caches->rsa_verify.emplace(cache_key, ok);
        }
        if (ok) emit({*args[0], *args[1], *args[2]});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "hmacsign", 3, {"bbf", "bbb"},
      [keystore, stats](const std::vector<std::optional<Value>>& args,
                        const datalog::EmitFn& emit) -> Status {
        MessageBytes handle(*args[1]);
        const crypto::HmacSha1Key* key = keystore->FindHmacKey(handle.view());
        if (key == nullptr) {
          return util::CryptoError(util::StrCat(
              "unknown shared secret handle '", handle.view(), "'"));
        }
        uint8_t tag[crypto::HmacSha1Key::kTagSize];
        key->Tag(MessageBytes(*args[0]).view(), tag);
        ++stats->hmac_signs;
        emit({*args[0], *args[1],
              Value::Str(util::HexEncode(tag, sizeof(tag)))});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "hmacverify", 3, {"bbb"},
      [keystore, stats](const std::vector<std::optional<Value>>& args,
                        const datalog::EmitFn& emit) -> Status {
        const crypto::HmacSha1Key* key =
            keystore->FindHmacKey(MessageBytes(*args[2]).view());
        if (key == nullptr) return util::OkStatus();
        ++stats->hmac_verifies;
        uint8_t tag[crypto::HmacSha1Key::kTagSize];
        key->Tag(MessageBytes(*args[0]).view(), tag);
        if (crypto::ConstantTimeEquals(util::HexEncode(tag, sizeof(tag)),
                                       MessageBytes(*args[1]).view())) {
          emit({*args[0], *args[1], *args[2]});
        }
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "sha1hash", 2, {"bf", "bb"},
      [](const std::vector<std::optional<Value>>& args,
         const datalog::EmitFn& emit) -> Status {
        std::string digest =
            crypto::Sha1::HexDigest(MessageBytes(*args[0]).view());
        emit({*args[0], Value::Str(digest)});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "checksum", 2, {"bf", "bb"},
      [](const std::vector<std::optional<Value>>& args,
         const datalog::EmitFn& emit) -> Status {
        uint32_t crc = crypto::Crc32(MessageBytes(*args[0]).view());
        emit({*args[0], Value::Int(static_cast<int64_t>(crc))});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "encrypt", 3, {"bbf", "bbb"},
      [keystore](const std::vector<std::optional<Value>>& args,
                 const datalog::EmitFn& emit) -> Status {
        MessageBytes msg(*args[0]);
        MessageBytes handle(*args[1]);
        const std::string* secret = keystore->FindSecret(handle.view());
        if (secret == nullptr) {
          return util::CryptoError(util::StrCat(
              "unknown shared secret handle '", handle.view(), "'"));
        }
        // Deterministic nonce (hash of key and message) keeps bottom-up
        // recomputation stable: re-deriving the same fact re-produces the
        // same ciphertext.
        std::string nonce =
            crypto::Sha256::Digest(util::StrCat(*secret, "|", msg.view()))
                .substr(0, 16);
        std::string sealed = crypto::SealedBox(*secret, nonce, msg.view());
        emit({*args[0], *args[1], Value::Str(util::HexEncode(sealed))});
        return util::OkStatus();
      });

  ws->RegisterBuiltin(
      "decrypt", 3, {"bbf", "bbb"},
      [keystore](const std::vector<std::optional<Value>>& args,
                 const datalog::EmitFn& emit) -> Status {
        const std::string* secret =
            keystore->FindSecret(MessageBytes(*args[1]).view());
        if (secret == nullptr) return util::OkStatus();
        std::string sealed;
        if (!util::HexDecode(MessageBytes(*args[0]).view(), &sealed)) {
          return util::OkStatus();
        }
        std::string plaintext;
        if (crypto::SealedOpen(*secret, sealed, &plaintext)) {
          emit({*args[0], *args[1], Value::Str(plaintext)});
        }
        return util::OkStatus();
      });
}

}  // namespace lbtrust::trust
