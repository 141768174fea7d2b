// End-to-end observability: the workspace-owned metrics registry and span
// tracer, exercised through real fixpoints, commits, prepared queries and a
// trust runtime. Asserts the acceptance surface of the unified registry:
// per-rule stats, commit/query latency histograms and credential/crypto
// counters all appear in one DumpMetrics() page.
#include <string>

#include <gtest/gtest.h>

#include "datalog/workspace.h"
#include "obs/trace.h"
#include "trust/trust_runtime.h"

namespace lbtrust {
namespace {

using datalog::Workspace;

constexpr const char* kClosure =
    "edge(1,2). edge(2,3). edge(3,4).\n"
    "path(X,Y) <- edge(X,Y).\n"
    "path(X,Z) <- path(X,Y), edge(Y,Z).\n";

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(ObsWorkspaceTest, FixpointPopulatesEngineMetrics) {
  Workspace ws;
  ASSERT_NE(ws.metrics(), nullptr);
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  std::string page = ws.DumpMetrics();
  // Per-rule counters, labeled by head predicate and rule id.
  EXPECT_TRUE(Contains(page, "lbtrust_rule_evals_total{head=\"path\""))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_rule_tuples_derived_total{head=\"path\""))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_rule_probes_total{head=\"path\""))
      << page;
  // Per-relation probe/hit counters (selectivity feed).
  EXPECT_TRUE(Contains(page, "lbtrust_relation_probes_total{relation=\"edge\"}"))
      << page;
  EXPECT_TRUE(
      Contains(page, "lbtrust_relation_probe_hits_total{relation=\"edge\"}"))
      << page;
  // Global evaluation counters and the fixpoint path split.
  EXPECT_GT(ws.metrics()->GetCounter("lbtrust_tuples_derived_total")->value(),
            0u);
  EXPECT_GT(ws.metrics()->GetCounter("lbtrust_eval_rounds_total")->value(),
            0u);
  EXPECT_GT(
      ws.metrics()->GetCounter("lbtrust_fixpoints_total", "path=\"full\"")
          ->value(),
      0u);
  EXPECT_GT(
      ws.metrics()->GetHistogram("lbtrust_fixpoint_latency_microseconds")
          ->count(),
      0u);
  // Relation cardinality gauges refresh at dump time: path is the full
  // transitive closure of the 4-node chain (3+2+1 = 6 rows).
  EXPECT_TRUE(Contains(page, "lbtrust_relation_rows{relation=\"path\"} 6\n"))
      << page;
}

TEST(ObsWorkspaceTest, CommitAndQueryLatencyHistogramsRecord) {
  Workspace ws;
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());

  // Transaction commit (EDB-only: rides the delta path) records commit
  // latency and bumps the delta fixpoint counter.
  auto txn = ws.Begin();
  txn.AddFactText("edge(4,5).");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_GE(ws.metrics()
                ->GetHistogram("lbtrust_commit_latency_microseconds")
                ->count(),
            1u);
  EXPECT_GE(
      ws.metrics()->GetCounter("lbtrust_fixpoints_total", "path=\"delta\"")
          ->value(),
      1u);

  // Prepared-query latency: one observation per ForEach/Run/Exists.
  auto query = ws.Prepare("path(X,Y)");
  ASSERT_TRUE(query.ok());
  auto rows = query->Run();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);  // closure of the 5-node chain
  auto exists = query->Exists();
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);
  EXPECT_GE(ws.metrics()
                ->GetHistogram("lbtrust_query_latency_microseconds")
                ->count(),
            2u);
  EXPECT_TRUE(Contains(ws.DumpMetrics(),
                       "lbtrust_commit_latency_microseconds_count"));
}

TEST(ObsWorkspaceTest, MetricsOffDisablesRegistryAndDump) {
  Workspace::Options opts;
  opts.metrics = false;
  Workspace ws(opts);
  EXPECT_EQ(ws.metrics(), nullptr);
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  EXPECT_EQ(ws.DumpMetrics(), "# metrics disabled\n");
  // The off path computes the same fixpoint.
  auto count = ws.Count("path(X,Y)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(ObsWorkspaceTest, MetricsOnAndOffDeriveIdenticalStores) {
  Workspace on;
  Workspace::Options off_opts;
  off_opts.metrics = false;
  Workspace off(off_opts);
  for (Workspace* ws : {&on, &off}) {
    ASSERT_TRUE(ws->Load(kClosure).ok());
    ASSERT_TRUE(ws->Fixpoint().ok());
  }
  auto on_rows = on.Query("path(X,Y)");
  auto off_rows = off.Query("path(X,Y)");
  ASSERT_TRUE(on_rows.ok());
  ASSERT_TRUE(off_rows.ok());
  EXPECT_EQ(*on_rows, *off_rows);
}

TEST(ObsWorkspaceTest, TracerEmitsNestedFixpointSpans) {
  Workspace ws;
  obs::Tracer tracer;
  ws.SetTracer(&tracer);
  ASSERT_TRUE(ws.Load(kClosure).ok());
  ASSERT_TRUE(ws.Fixpoint().ok());
  ws.SetTracer(nullptr);

  EXPECT_GT(tracer.event_count(), 2u);
  std::string json = tracer.ExportJson();
  EXPECT_TRUE(Contains(json, "\"name\":\"fixpoint\"")) << json;
  EXPECT_TRUE(Contains(json, "\"name\":\"stratum\"")) << json;
  EXPECT_TRUE(Contains(json, "\"name\":\"rule\"")) << json;
  // Span args carry the per-fixpoint/per-rule counters.
  EXPECT_TRUE(Contains(json, "\"path\":\"full\"")) << json;
  EXPECT_TRUE(Contains(json, "\"derived\":")) << json;
}

// The fixpoint span shows how much epilogue work a commit paid for: a
// commit of k new says rows scans exactly their k `active` rows and checks
// constraints; re-committing a held says row scans and checks nothing.
TEST(ObsTrustTest, FixpointSpanReportsDeltaProportionalEpilogue) {
  trust::TrustRuntime::Options opts;
  opts.principal = "alice";
  opts.rsa_bits = 512;
  auto rt = trust::TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE((*rt)->Fixpoint().ok());
  obs::Tracer tracer;
  (*rt)->workspace()->SetTracer(&tracer);

  datalog::Transaction fresh = (*rt)->Begin();
  fresh.Say("alice", "held(1).").Say("alice", "held(2).").Say("alice",
                                                              "held(3).");
  ASSERT_TRUE(fresh.Commit().ok());
  std::string json = tracer.DrainJson();
  EXPECT_TRUE(Contains(json,
                       "\"path\":\"delta\",\"codegen_rounds\":2,"
                       "\"active_scanned\":3,\"constraints_checked\":true"))
      << json;

  datalog::Transaction dup = (*rt)->Begin();
  dup.Say("alice", "held(2).");
  ASSERT_TRUE(dup.Commit().ok());
  json = tracer.DrainJson();
  EXPECT_TRUE(Contains(json,
                       "\"path\":\"delta\",\"codegen_rounds\":1,"
                       "\"active_scanned\":0,\"constraints_checked\":false"))
      << json;
  (*rt)->workspace()->SetTracer(nullptr);
}

TEST(ObsTrustTest, RuntimeDumpCoversCredentialAndCryptoCounters) {
  trust::TrustRuntime::Options opts;
  opts.principal = "alice";
  opts.rsa_bits = 512;
  auto rt = trust::TrustRuntime::Create(opts);
  ASSERT_TRUE(rt.ok());

  // Issuing signs a credential: the store and RSA counters must move.
  auto hash = (*rt)->Issue("grant(bob,file1,read).");
  ASSERT_TRUE(hash.ok());

  std::string page = (*rt)->DumpMetrics();
  EXPECT_TRUE(Contains(page, "lbtrust_credential_store_puts_total 1\n"))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_crypto_ops_total{op=\"rsa_sign\"}"))
      << page;
  EXPECT_TRUE(Contains(page, "lbtrust_credential_verify_total{cache=\"hit\"}"))
      << page;
  // Engine metrics share the same page (unified registry).
  EXPECT_TRUE(Contains(page, "lbtrust_fixpoints_total")) << page;
}

}  // namespace
}  // namespace lbtrust
