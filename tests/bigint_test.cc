#include "crypto/bigint.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/secure_random.h"

namespace lbtrust::crypto {
namespace {

BigInt FromHexOrDie(std::string_view hex) {
  auto r = BigInt::FromHex(hex);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

BigInt ModOrDie(const BigInt& a, const BigInt& m) {
  auto r = BigInt::Mod(a, m);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

// Oracle: left-to-right square-and-multiply with an explicit Mod after every
// product; shares nothing with the Montgomery kernel but Mod itself.
BigInt NaiveModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt acc(1);
  BigInt b = ModOrDie(base, m);
  for (size_t bit = exp.BitLength(); bit-- > 0;) {
    acc = ModOrDie(acc * acc, m);
    if (exp.Bit(bit)) acc = ModOrDie(acc * b, m);
  }
  return ModOrDie(acc, m);
}

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToHex(), "0");
  EXPECT_EQ(z.Uint64(), 0u);
}

TEST(BigIntTest, Int64Construction) {
  EXPECT_EQ(BigInt(5).ToHex(), "5");
  EXPECT_EQ(BigInt(-5).ToHex(), "-5");
  EXPECT_EQ(BigInt(0).ToHex(), "0");
  EXPECT_EQ(BigInt(INT64_MIN).ToHex(), "-8000000000000000");
  EXPECT_EQ(BigInt(INT64_MAX).ToHex(), "7fffffffffffffff");
}

TEST(BigIntTest, HexRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "ff",
                         "100",
                         "123456789abcdef0",
                         "fedcba98765432100123456789abcdef",
                         "-deadbeefcafebabe1234"};
  for (const char* hex : cases) {
    EXPECT_EQ(FromHexOrDie(hex).ToHex(), hex);
  }
}

TEST(BigIntTest, FromHexRejectsJunk) {
  EXPECT_FALSE(BigInt::FromHex("12g4").ok());
  EXPECT_FALSE(BigInt::FromHex("0x12").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  BigInt v = FromHexOrDie("0102030405060708090a0b");
  std::string bytes = v.ToBytes();
  EXPECT_EQ(bytes.size(), 11u);
  EXPECT_EQ(BigInt::FromBytes(bytes), v);
  // Padding.
  std::string padded = v.ToBytes(16);
  EXPECT_EQ(padded.size(), 16u);
  EXPECT_EQ(BigInt::FromBytes(padded), v);
}

TEST(BigIntTest, ComparisonRespectSign) {
  EXPECT_LT(BigInt(-3), BigInt(2));
  EXPECT_LT(BigInt(-3), BigInt(-2));
  EXPECT_GT(BigInt(7), BigInt(-7));
  EXPECT_EQ(BigInt(0), BigInt(-0));
  EXPECT_LE(BigInt(4), BigInt(4));
}

TEST(BigIntTest, AddSubSmallMatchesInt64) {
  const int64_t vals[] = {0, 1, -1, 5, -5, 123456789, -987654321, 1L << 40};
  for (int64_t a : vals) {
    for (int64_t b : vals) {
      EXPECT_EQ(BigInt(a) + BigInt(b), BigInt(a + b)) << a << "+" << b;
      EXPECT_EQ(BigInt(a) - BigInt(b), BigInt(a - b)) << a << "-" << b;
      // Guard the reference computation against int64 overflow.
      if (a > -(1L << 31) && a < (1L << 31) && b > -(1L << 31) &&
          b < (1L << 31)) {
        EXPECT_EQ(BigInt(a) * BigInt(b), BigInt(a * b)) << a << "*" << b;
      }
    }
  }
}

TEST(BigIntTest, CarryPropagation) {
  BigInt max64 = FromHexOrDie("ffffffffffffffff");
  EXPECT_EQ((max64 + BigInt(1)).ToHex(), "10000000000000000");
  EXPECT_EQ((FromHexOrDie("10000000000000000") - BigInt(1)).ToHex(),
            "ffffffffffffffff");
}

TEST(BigIntTest, MulWide) {
  BigInt a = FromHexOrDie("ffffffffffffffff");
  EXPECT_EQ((a * a).ToHex(), "fffffffffffffffe0000000000000001");
}

TEST(BigIntTest, Shifts) {
  BigInt one(1);
  EXPECT_EQ((one << 0).ToHex(), "1");
  EXPECT_EQ((one << 4).ToHex(), "10");
  EXPECT_EQ((one << 64).ToHex(), "10000000000000000");
  EXPECT_EQ((one << 127).ToHex(), "80000000000000000000000000000000");
  EXPECT_EQ(((one << 127) >> 127).ToHex(), "1");
  EXPECT_EQ((FromHexOrDie("ff00") >> 8).ToHex(), "ff");
  EXPECT_EQ((FromHexOrDie("ff") >> 9).ToHex(), "0");
}

TEST(BigIntTest, BitAccess) {
  BigInt v = FromHexOrDie("5");  // 101
  EXPECT_TRUE(v.Bit(0));
  EXPECT_FALSE(v.Bit(1));
  EXPECT_TRUE(v.Bit(2));
  EXPECT_FALSE(v.Bit(200));
  EXPECT_EQ(v.BitLength(), 3u);
}

TEST(BigIntTest, DivModInvariantSmall) {
  const int64_t as[] = {0, 1, -1, 17, -17, 100, -100, 123456789};
  const int64_t bs[] = {1, -1, 2, 3, -3, 10, 17, 1000};
  for (int64_t a : as) {
    for (int64_t b : bs) {
      BigInt q, r;
      ASSERT_TRUE(BigInt::DivMod(BigInt(a), BigInt(b), &q, &r).ok());
      EXPECT_EQ(q, BigInt(a / b)) << a << "/" << b;
      EXPECT_EQ(r, BigInt(a % b)) << a << "%" << b;
      // Invariant a = q*b + r.
      EXPECT_EQ(q * BigInt(b) + r, BigInt(a));
    }
  }
}

TEST(BigIntTest, DivModByZeroFails) {
  BigInt q, r;
  EXPECT_FALSE(BigInt::DivMod(BigInt(3), BigInt(0), &q, &r).ok());
}

TEST(BigIntTest, ModNonNegative) {
  auto m = BigInt::Mod(BigInt(-7), BigInt(3));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, BigInt(2));
}

TEST(BigIntTest, ModUint64) {
  BigInt v = FromHexOrDie("123456789abcdef0123456789abcdef");
  // Cross-check against DivMod.
  for (uint64_t m : {3ull, 7ull, 97ull, 65537ull, 4294967291ull}) {
    BigInt q, r;
    ASSERT_TRUE(BigInt::DivMod(v, BigInt::FromUint64(m), &q, &r).ok());
    EXPECT_EQ(v.ModUint64(m), r.Uint64()) << m;
  }
}

// Property sweep: random arithmetic invariants at several widths.
class BigIntPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BigIntPropertyTest, DivModInvariantRandom) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xB16B00B5} + bits);
  for (int i = 0; i < 25; ++i) {
    BigInt a = rng.RandomBits(bits);
    BigInt b = rng.RandomBits(bits / 2 + 1);
    BigInt q, r;
    ASSERT_TRUE(BigInt::DivMod(a, b, &q, &r).ok());
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.is_negative());
  }
}

TEST_P(BigIntPropertyTest, AddSubInverse) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xC0FFEE} + bits);
  for (int i = 0; i < 25; ++i) {
    BigInt a = rng.RandomBits(bits);
    BigInt b = rng.RandomBits(bits);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
    EXPECT_EQ(a + b, b + a);
  }
}

TEST_P(BigIntPropertyTest, MulDistributes) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xD15EA5E} + bits);
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng.RandomBits(bits);
    BigInt b = rng.RandomBits(bits);
    BigInt c = rng.RandomBits(bits);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST_P(BigIntPropertyTest, MontgomeryMatchesPlainModExp) {
  size_t bits = GetParam();
  SecureRandom rng(uint64_t{0xFACADE} + bits);
  for (int i = 0; i < 5; ++i) {
    BigInt m = rng.RandomBits(bits);
    if (!m.is_odd()) m = m + BigInt(1);
    BigInt base = rng.RandomBits(bits);
    BigInt exp = rng.RandomBits(16);
    auto fast = BigInt::ModExp(base, exp, m);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*fast, NaiveModExp(base, exp, m));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigIntPropertyTest,
                         ::testing::Values(64, 128, 256, 512, 1024));

TEST(BigIntTest, ModExpKnownValues) {
  // 2^10 mod 1000 = 24
  auto r = BigInt::ModExp(BigInt(2), BigInt(10), BigInt(1001));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, BigInt(23));  // 1024 mod 1001
  // Fermat: a^(p-1) = 1 mod p for prime p.
  auto f = BigInt::ModExp(BigInt(12345), BigInt(65536), BigInt(65537));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, BigInt(1));
}

TEST(BigIntTest, ModExpZeroExponent) {
  auto r = BigInt::ModExp(BigInt(7), BigInt(0), BigInt(13));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, BigInt(1));
}

TEST(BigIntTest, ModExpRejectsEvenModulus) {
  EXPECT_FALSE(BigInt::ModExp(BigInt(2), BigInt(3), BigInt(8)).ok());
}

TEST(BigIntTest, ModInverse) {
  auto inv = BigInt::ModInverse(BigInt(3), BigInt(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(*inv, BigInt(4));  // 3*4 = 12 = 1 mod 11
  EXPECT_FALSE(BigInt::ModInverse(BigInt(4), BigInt(8)).ok());  // gcd 4
}

TEST(BigIntTest, ModInversePropertyRandom) {
  SecureRandom rng(uint64_t{0x1234});
  BigInt m = rng.RandomBits(256);
  if (!m.is_odd()) m = m + BigInt(1);
  for (int i = 0; i < 10; ++i) {
    BigInt a = rng.RandomBits(200);
    if (!(BigInt::Gcd(a, m) == BigInt(1))) continue;
    auto inv = BigInt::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    auto prod = BigInt::Mod(a * *inv, m);
    ASSERT_TRUE(prod.ok());
    EXPECT_EQ(*prod, BigInt(1));
  }
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)), BigInt(6));
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  SecureRandom rng(uint64_t{7});
  auto bytes = [&rng](uint8_t* out, size_t len) { rng.Bytes(out, len); };
  EXPECT_TRUE(IsProbablePrime(BigInt(2), 10, bytes));
  EXPECT_TRUE(IsProbablePrime(BigInt(65537), 10, bytes));
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(IsProbablePrime(m127, 20, bytes));
}

TEST(BigIntTest, PrimalityKnownComposites) {
  SecureRandom rng(uint64_t{8});
  auto bytes = [&rng](uint8_t* out, size_t len) { rng.Bytes(out, len); };
  EXPECT_FALSE(IsProbablePrime(BigInt(1), 10, bytes));
  EXPECT_FALSE(IsProbablePrime(BigInt(0), 10, bytes));
  EXPECT_FALSE(IsProbablePrime(BigInt(561), 20, bytes));   // Carmichael
  EXPECT_FALSE(IsProbablePrime(BigInt(65536), 10, bytes));
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_FALSE(IsProbablePrime(m127 * BigInt(3), 20, bytes));
}

TEST(MontgomeryTest, RoundTripDomain) {
  BigInt m = FromHexOrDie("fedcba9876543210fedcba9876543211");  // odd
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  for (int64_t v : {0L, 1L, 2L, 123456789L}) {
    BigInt x(v);
    EXPECT_EQ(ctx->FromMont(ctx->ToMont(x)), x);
  }
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(10)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());
}

TEST(MontgomeryTest, MulMatchesSchoolbook) {
  BigInt m = FromHexOrDie("f123456789abcdef123456789abcdef1");
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  SecureRandom rng(uint64_t{99});
  for (int i = 0; i < 20; ++i) {
    BigInt a = rng.RandomBits(120);
    BigInt b = rng.RandomBits(120);
    BigInt got = ctx->FromMont(ctx->MulMont(ctx->ToMont(a), ctx->ToMont(b)));
    auto want = BigInt::Mod(a * b, m);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got, *want);
  }
}

// Montgomery kernel properties per limb count k, against the naive oracle.
// Widths straddle the 8- and 16-limb RSA-512/1024 shapes; the moduli cover
// bit lengths that are and are not multiples of 64 and top limbs of 1 and
// all ones, which set how many doublings Create needs to reach R mod n.
class MontgomeryPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  std::vector<BigInt> Moduli(SecureRandom* rng) const {
    size_t k = GetParam();
    auto odd = [](BigInt v) { return v.is_odd() ? v : v + BigInt(1); };
    BigInt low = k > 1 ? rng->RandomBits(64 * (k - 1)) : BigInt();
    BigInt top_one = (BigInt(1) << (64 * (k - 1))) + low;
    BigInt top_ones =
        (BigInt::FromUint64(~uint64_t{0}) << (64 * (k - 1))) + low;
    std::vector<BigInt> out = {
        odd(rng->RandomBits(64 * k)),       // full top limb
        odd(rng->RandomBits(64 * k - 13)),  // not a multiple of 64 bits
        odd(top_ones),
    };
    if (k > 1) out.push_back(odd(top_one));  // k = 1 would make n = 1
    return out;
  }

  static std::vector<BigInt> Bases(const BigInt& n, SecureRandom* rng) {
    size_t bits = n.BitLength();
    return {BigInt(0),
            BigInt(1),
            n - BigInt(1),
            n,                                   // reduces to 0
            n * BigInt(3) + rng->RandomBits(bits),  // >= n
            -rng->RandomBits(bits + 7),          // negative
            rng->RandomBits(bits - 1)};
  }
};

TEST_P(MontgomeryPropertyTest, ModExpMatchesNaiveOracle) {
  size_t k = GetParam();
  SecureRandom rng(uint64_t{0x5EED} + k);
  for (const BigInt& n : Moduli(&rng)) {
    // Short exponents sit at or below kShortExponentBits (square-and-
    // multiply); 65 and 512 bits take the 4-bit window.
    std::vector<BigInt> exps = {BigInt(0),       BigInt(1),
                                BigInt(2),       BigInt(3),
                                BigInt(65537),   rng.RandomBits(16),
                                rng.RandomBits(64),
                                rng.RandomBits(65)};
    for (const BigInt& base : Bases(n, &rng)) {
      for (const BigInt& e : exps) {
        auto got = BigInt::ModExp(base, e, n);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, NaiveModExp(base, e, n))
            << "k=" << k << " n=" << n.ToHex() << " base=" << base.ToHex()
            << " e=" << e.ToHex();
      }
    }
    // One long private-size exponent per modulus keeps the oracle's cost
    // (an explicit division per bit) bounded.
    BigInt base = rng.RandomBits(n.BitLength() + 3);
    BigInt e = rng.RandomBits(512);
    auto got = BigInt::ModExp(base, e, n);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, NaiveModExp(base, e, n)) << "k=" << k;
  }
}

TEST_P(MontgomeryPropertyTest, DomainRoundTripAndProducts) {
  size_t k = GetParam();
  SecureRandom rng(uint64_t{0xD0A1} + k);
  for (const BigInt& n : Moduli(&rng)) {
    auto ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    EXPECT_EQ(ctx->modulus(), n);
    BigInt r = BigInt(1) << (64 * k);
    // ToMont(1) is R mod n, the value Create doubles its way to.
    EXPECT_EQ(ctx->ToMont(BigInt(1)), ModOrDie(r, n)) << "k=" << k;
    std::vector<BigInt> values = {BigInt(0), BigInt(1), n - BigInt(1),
                                  rng.RandomBits(n.BitLength() - 1),
                                  ModOrDie(rng.RandomBits(64 * k), n)};
    for (const BigInt& x : values) {
      BigInt xm = ctx->ToMont(x);
      EXPECT_EQ(xm, ModOrDie(x * r, n)) << "k=" << k << " x=" << x.ToHex();
      EXPECT_EQ(ctx->FromMont(xm), x) << "k=" << k << " x=" << x.ToHex();
      for (const BigInt& y : values) {
        BigInt prod = ctx->FromMont(ctx->MulMont(xm, ctx->ToMont(y)));
        EXPECT_EQ(prod, ModOrDie(x * y, n));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Limbs, MontgomeryPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 9, 16, 17));

}  // namespace
}  // namespace lbtrust::crypto
