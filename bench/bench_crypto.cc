// Crypto ablation bench: per-operation cost of the primitives behind the
// paper's three `says` authentication schemes. Explains the gaps between the
// RSA / HMAC / Plaintext curves in Figure 2.
#include <string>

#include <benchmark/benchmark.h>

#include "crypto/bigint.h"
#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/secure_random.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/stream_cipher.h"

namespace {

using namespace lbtrust::crypto;  // NOLINT: bench file

const char kMessage[] =
    "says(alice,bob,[|reachable(alice,carol).|]) #4242";

RsaKeyPair& Key1024() {
  static RsaKeyPair* kp = [] {
    SecureRandom rng(uint64_t{2009});
    auto r = RsaGenerateKeyPair(1024, &rng);
    return new RsaKeyPair(r.value());
  }();
  return *kp;
}

void BM_Sha1(benchmark::State& state) {
  std::string msg(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Digest(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
// 55 bytes is the longest message padded within one block; 56 spills the
// length into a second block.
BENCHMARK(BM_Sha1)->Arg(55)->Arg(56)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  std::string msg(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha1Sign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha1("sharedsecret-alice-bob", kMessage));
  }
}
BENCHMARK(BM_HmacSha1Sign);

// What an `hmacsign`/`hmacverify` call costs: the key store keeps the
// keyed state, so a tag starts from the saved pad midstates.
void BM_HmacSha1Keyed(benchmark::State& state) {
  HmacSha1Key key("sharedsecret-alice-bob");
  uint8_t tag[HmacSha1Key::kTagSize];
  for (auto _ : state) {
    key.Tag(kMessage, tag);
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_HmacSha1Keyed);

void BM_RsaSign1024(benchmark::State& state) {
  RsaKeyPair& kp = Key1024();
  for (auto _ : state) {
    auto sig = RsaSign(kp.private_key, kMessage);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_RsaSign1024);

void BM_RsaVerify1024(benchmark::State& state) {
  RsaKeyPair& kp = Key1024();
  std::string sig = RsaSign(kp.private_key, kMessage).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerify(kp.public_key, kMessage, sig));
  }
}
BENCHMARK(BM_RsaVerify1024);

// The pieces of one RsaVerify: a Montgomery context per call, then a public
// exponentiation (e = 65537: 16 squarings and 1 multiply).
void BM_MontgomeryCreate1024(benchmark::State& state) {
  const BigInt& n = Key1024().public_key.n;
  for (auto _ : state) {
    auto ctx = MontgomeryContext::Create(n);
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_MontgomeryCreate1024);

void BM_ModExpPublic1024(benchmark::State& state) {
  RsaKeyPair& kp = Key1024();
  BigInt s = BigInt::FromBytes(RsaSign(kp.private_key, kMessage).value());
  for (auto _ : state) {
    auto m = BigInt::ModExp(s, kp.public_key.e, kp.public_key.n);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_ModExpPublic1024);

void BM_RsaKeygen512(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    SecureRandom rng(seed++);
    auto kp = RsaGenerateKeyPair(512, &rng);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_RsaKeygen512)->Unit(benchmark::kMillisecond);

// Every TrustRuntime derives its own 1024-bit key pair at creation, so this
// is a fixed cost of bringing up a node.
void BM_RsaKeygen1024(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    SecureRandom rng(seed++);
    auto kp = RsaGenerateKeyPair(1024, &rng);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_RsaKeygen1024)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  std::string msg(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Crc32);

void BM_SealedBoxRoundTrip(benchmark::State& state) {
  std::string pt(256, 'p');
  for (auto _ : state) {
    std::string sealed = SealedBox("key", "nonce", pt);
    std::string out;
    bool ok = SealedOpen("key", sealed, &out);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SealedBoxRoundTrip);

}  // namespace
