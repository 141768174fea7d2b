#ifndef LBTRUST_NET_CLUSTER_H_
#define LBTRUST_NET_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "trust/trust_runtime.h"
#include "util/status.h"

namespace lbtrust::net {

/// Configures one node of a full mesh, exactly as the simulated cluster's
/// Connect() does: for every node (sorted by name, self included) register
/// peer public keys and pairwise HMAC secrets, add `node`/`loc` placement
/// facts when requested, then install the ld2 placement rule and the
/// authentication scheme. Shared by Cluster (which passes the real peer
/// keys) and DistributedCluster (which derives them deterministically), so
/// per-node state — and therefore converged dumps — are byte-identical
/// across the two deployments.
util::Status ConfigureMeshNode(
    trust::TrustRuntime* runtime,
    const std::vector<std::pair<std::string, crypto::RsaPublicKey>>&
        nodes_sorted,
    const std::string& scheme, bool default_placement);

/// One (destination, relation) batch of placed tuples ready to ship.
struct PlacedBatch {
  std::string dest;
  std::string relation;
  std::vector<datalog::Tuple> tuples;
};

/// Scans the node's partitioned relations against its own predNode
/// placement map and returns the not-yet-shipped tuples batched per
/// (destination, relation), in sorted order. Shipped tuples are recorded
/// in `sent` (keyed on interned row ids) — the engine-level cross-round
/// dedup that makes at-least-once delivery idempotent end-to-end.
std::vector<PlacedBatch> CollectPlacedBatches(datalog::Workspace* workspace,
                                              const std::string& self,
                                              std::set<std::string>* sent);

/// A simulated multi-node deployment (§3.5): each node hosts one
/// TrustRuntime (a principal's context); partitioned relations are shipped
/// between nodes according to the `predNode` placement relation computed by
/// each node's own placement rules (ld2-style: predNode(export[P],N) <-
/// loc(P,N)). Delivery is reliable and in-order; rounds of local fixpoints
/// alternate with message exchange until global quiescence.
class Cluster {
 public:
  struct Options {
    /// Safety cap on fixpoint/exchange rounds.
    size_t max_rounds = 64;
    /// Authentication scheme installed on every node by Connect()
    /// ("plaintext", "rsa", "hmac", or "" to skip).
    std::string scheme = "rsa";
    /// Have Connect() install default placement: node(N) and loc(P,N)
    /// facts for every node plus the ld2 placement rule.
    bool default_placement = true;
    /// Wall-clock seconds used when receiving nodes validity-check imported
    /// credentials (0 is fine for unbounded credentials; tests pin it).
    int64_t credential_now = 0;
  };

  Cluster() : Cluster(Options()) {}
  explicit Cluster(Options options) : options_(std::move(options)) {}

  /// Creates a node hosting a principal of the same name.
  util::Result<trust::TrustRuntime*> AddNode(
      const std::string& name,
      trust::TrustRuntime::Options runtime_options = {});

  trust::TrustRuntime* node(const std::string& name);
  std::vector<std::string> node_names() const;

  /// Full-mesh peering: every node learns every other node's public key,
  /// pairwise HMAC secrets, placement facts (if default_placement), and
  /// the configured authentication scheme.
  util::Status Connect();

  struct RunStats {
    size_t rounds = 0;
    size_t messages = 0;  ///< network sends (a block message counts once)
    size_t tuples = 0;    ///< tuples delivered across all messages
    size_t bytes = 0;     ///< total wire bytes (tuple blocks + credentials)
    size_t fixpoints = 0;
    /// Per-kind byte accounting, so benches can report wire efficiency
    /// separately for fact traffic and credential-bundle traffic (the
    /// socket transport exposes the same split in TransportStats).
    size_t tuple_bytes = 0;
    size_t credential_messages = 0;
    size_t credential_bytes = 0;
  };

  /// Runs local fixpoints and ships placed partitions until no node is
  /// dirty. Constraint violations on any node abort the run with that
  /// node's status (message attribution included).
  util::Result<RunStats> Run();

  /// Queues credential `hash` (and its transitive link closure) from
  /// `from_node`'s store as a bundle message to `to_node`; the next Run()
  /// delivers it and the receiver verifies-and-imports before its first
  /// fixpoint round. Failures at the receiver abort that Run() with the
  /// node-attributed status.
  util::Status ShipCredential(const std::string& from_node,
                              const std::string& to_node,
                              const std::string& hash);

  /// Test hook: tamper with the next delivery matching `relation` by
  /// applying `mutate` to the serialized tuple payload.
  void InjectTamper(const std::string& relation,
                    std::function<void(std::string*)> mutate);

  /// Mirrors every node's per-node counters (fixpoints, tuples shipped and
  /// delivered, credential imports) plus its trust-runtime counters into
  /// that node's workspace metrics registry, under the same
  /// `lbtrust_node_*` names the socket deployment exposes — the oracle
  /// side of dist_smoke.sh's counter reconciliation. Run() calls this
  /// before returning; it is public for tools that dump between runs.
  void SyncMetrics();

 private:
  struct NodeState {
    std::unique_ptr<trust::TrustRuntime> runtime;
    bool dirty = true;
    /// Dedup of already-shipped tuples (interned row ids), shared with
    /// CollectPlacedBatches. Inbound tuples stage in the runtime's inbox
    /// (TrustRuntime::StageTuples), the same async-import hooks the socket
    /// transport uses.
    std::set<std::string> sent;
    /// Per-node counters mirroring DistributedCluster::RunStats, so sim
    /// and socket nodes expose identical lbtrust_node_* metrics.
    size_t fixpoints = 0;
    size_t tuples_in = 0;
    size_t tuples_out = 0;
    size_t credential_imports = 0;
  };

  util::Status ShipFrom(const std::string& name, NodeState* state,
                        std::vector<Message>* outbox);
  util::Status Deliver(const Message& message, RunStats* stats);

  Options options_;
  std::map<std::string, NodeState> nodes_;
  /// Credential bundles queued by ShipCredential(), delivered (and counted)
  /// at the start of the next Run().
  std::vector<Message> pending_credentials_;
  RunStats last_stats_;
  std::string tamper_relation_;
  std::function<void(std::string*)> tamper_;
};

}  // namespace lbtrust::net

#endif  // LBTRUST_NET_CLUSTER_H_
