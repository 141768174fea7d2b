#include "datalog/value_pool.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "datalog/workspace.h"

namespace lbtrust::datalog {
namespace {

TEST(ValueIdTest, NilIsDefaultAndUnbound) {
  ValueId id;
  EXPECT_TRUE(id.is_nil());
  EXPECT_EQ(id.bits(), 0u);
  EXPECT_EQ(id.kind(), ValueKind::kNil);
}

TEST(ValueIdTest, InlineIntBounds) {
  // 56-bit two's complement: [-2^55, 2^55 - 1] is inline, outside pools.
  const int64_t max_inline = (int64_t{1} << 55) - 1;
  const int64_t min_inline = -(int64_t{1} << 55);
  EXPECT_TRUE(ValueId::IntFitsInline(0));
  EXPECT_TRUE(ValueId::IntFitsInline(max_inline));
  EXPECT_TRUE(ValueId::IntFitsInline(min_inline));
  EXPECT_FALSE(ValueId::IntFitsInline(max_inline + 1));
  EXPECT_FALSE(ValueId::IntFitsInline(min_inline - 1));
  EXPECT_FALSE(ValueId::IntFitsInline(INT64_MAX));
  EXPECT_FALSE(ValueId::IntFitsInline(INT64_MIN));
}

TEST(ValuePoolTest, RoundTripEveryKind) {
  ValuePool pool;
  auto rule = ParseRuleText("p(X) <- q(X).");
  ASSERT_TRUE(rule.ok());
  std::vector<Value> values = {
      Value(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(42),
      Value::Int(INT64_MAX),
      Value::Int(INT64_MIN),
      Value::Int((int64_t{1} << 55) - 1),
      Value::Int(-(int64_t{1} << 55)),
      Value::Int(int64_t{1} << 55),
      Value::Double(0.0),
      Value::Double(1.5),
      Value::Double(3.141592653589793),  // low mantissa byte non-zero
      Value::Double(-2.25),
      Value::Str("hello world"),
      Value::Str(""),
      Value::Sym("alice"),
      Value::CodeRule(std::make_shared<const Rule>(CloneRule(*rule))),
      Value::Part("export", Value::Sym("alice")),
  };
  for (const Value& v : values) {
    ValueId id = pool.Intern(v);
    EXPECT_EQ(pool.Get(id), v) << v.ToString();
    EXPECT_EQ(pool.Get(id).kind(), v.kind()) << v.ToString();
    EXPECT_EQ(id.kind(), v.kind()) << v.ToString();
  }
}

TEST(ValuePoolTest, InterningDeduplicates) {
  ValuePool pool;
  ValueId a = pool.Intern(Value::Str("shared"));
  ValueId b = pool.Intern(Value::Str("shared"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.pooled_count(), 1u);
  ValueId c = pool.Intern(Value::Sym("shared"));  // different kind
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.pooled_count(), 2u);
  // Inline kinds never grow the pool.
  pool.Intern(Value::Int(7));
  pool.Intern(Value::Bool(true));
  pool.Intern(Value::Double(0.5));
  EXPECT_EQ(pool.pooled_count(), 2u);
}

TEST(ValuePoolTest, IdEqualityMatchesValueEquality) {
  ValuePool pool;
  std::vector<Value> values = {
      Value::Int(1),     Value::Double(1.0),     Value::Str("1"),
      Value::Sym("one"), Value::Str("x"),        Value::Sym("x"),
      Value::Bool(true), Value::Int(1095216660480),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(pool.Intern(a) == pool.Intern(b), a == b)
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValuePoolTest, FindDoesNotInsert) {
  ValuePool pool;
  ValueId id;
  EXPECT_FALSE(pool.Find(Value::Str("absent"), &id));
  EXPECT_EQ(pool.pooled_count(), 0u);
  // Inline-representable values always resolve.
  EXPECT_TRUE(pool.Find(Value::Int(9), &id));
  EXPECT_EQ(pool.Get(id), Value::Int(9));
  ValueId interned = pool.Intern(Value::Str("present"));
  EXPECT_TRUE(pool.Find(Value::Str("present"), &id));
  EXPECT_EQ(id, interned);
}

TEST(ValuePoolTest, CodeValuesShareIdByCanonicalForm) {
  // Two structurally identical fragments parsed independently (e.g. one
  // that travelled through the network and back) intern to the same id.
  ValuePool pool;
  auto t1 = ParseTermText("[| access(P,O,read) <- good(P). |]");
  auto t2 = ParseTermText("[| access(P,O,read) <- good(P). |]");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ValueId a = pool.Intern(t1->value);
  ValueId b = pool.Intern(t2->value);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.pooled_count(), 1u);
  EXPECT_EQ(pool.Get(a).AsCode().canon, t1->value.AsCode().canon);
}

TEST(ValuePoolTest, NegativeZeroNormalizes) {
  // Value::operator== says 0.0 == -0.0; ids must agree.
  ValuePool pool;
  EXPECT_EQ(pool.Intern(Value::Double(0.0)), pool.Intern(Value::Double(-0.0)));
}

TEST(ValuePoolTest, CrossTransactionIdStability) {
  // Ids handed out by a workspace pool survive fixpoints, rule churn and
  // store rebuilds: the same boundary value maps to the same id across
  // transactions.
  Workspace ws;
  ValueId before = ws.pool()->Intern(Value::Sym("alice"));

  Transaction t1 = ws.Begin();
  t1.AddFact("good", {Value::Sym("alice")});
  ASSERT_TRUE(t1.Commit().ok());

  ASSERT_TRUE(ws.Load("access(P) <- good(P).").ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  Transaction t2 = ws.Begin();
  t2.AddFact("good", {Value::Sym("bob")});
  ASSERT_TRUE(t2.Commit().ok());

  ValueId after;
  ASSERT_TRUE(ws.pool()->Find(Value::Sym("alice"), &after));
  EXPECT_EQ(before, after);

  // And the stored rows actually carry that id.
  const Relation* access = ws.GetRelation("access");
  ASSERT_NE(access, nullptr);
  ASSERT_EQ(access->size(), 2u);
  bool saw_alice = false;
  for (size_t i = 0; i < access->size(); ++i) {
    if (access->RowIds(i)[0] == before) saw_alice = true;
  }
  EXPECT_TRUE(saw_alice);
}

TEST(ValuePoolTest, ComputedProbeKeysDoNotGrowPool) {
  // A body literal probed with a *computed* key (here a partition ref
  // built from a bound variable) must treat a never-interned value as a
  // guaranteed miss — matching for the present key, passing the negation
  // for the absent one — WITHOUT interning the transient value.
  Workspace ws;
  ASSERT_TRUE(ws.Load("loc(alice). loc(bob).\n"
                      "placed(export[alice]).\n"
                      "found(P) <- loc(P), placed(export[P]).\n"
                      "lonely(P) <- loc(P), !placed(export[P]).")
                  .ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(*ws.Count("found(P)"), 1u);
  EXPECT_EQ(*ws.Count("found(alice)"), 1u);
  EXPECT_EQ(*ws.Count("lonely(P)"), 1u);
  EXPECT_EQ(*ws.Count("lonely(bob)"), 1u);
  // export[bob] was computed during both probes but never stored; it must
  // not have become a workspace-lifetime pool entry.
  ValueId id;
  EXPECT_FALSE(ws.pool()->Find(Value::Part("export", Value::Sym("bob")), &id));
  EXPECT_TRUE(ws.pool()->Find(Value::Part("export", Value::Sym("alice")), &id));
}

TEST(ValuePoolTest, RelationBoundaryProbesDoNotGrowPool) {
  // Lookups for never-seen values must miss without polluting the pool.
  ValuePool pool;
  Relation rel(1, &pool);
  rel.Insert({Value::Sym("present")});
  size_t pooled = pool.pooled_count();
  EXPECT_FALSE(rel.Contains({Value::Sym("never_inserted")}));
  EXPECT_TRUE(rel.Lookup(0b1, {Value::Sym("also_never")}).empty());
  EXPECT_FALSE(rel.Matches(0b1, {Value::Sym("nor_this")}));
  EXPECT_EQ(pool.pooled_count(), pooled);
}

}  // namespace
}  // namespace lbtrust::datalog
