#include "net/cluster.h"

#include <algorithm>
#include <iterator>

#include "util/strings.h"

namespace lbtrust::net {

using datalog::Relation;
using datalog::Tuple;
using datalog::Value;
using datalog::ValueKind;
using trust::TrustRuntime;
using util::Result;
using util::Status;

Status ConfigureMeshNode(
    TrustRuntime* runtime,
    const std::vector<std::pair<std::string, crypto::RsaPublicKey>>&
        nodes_sorted,
    const std::string& scheme, bool default_placement) {
  const std::string& name = runtime->principal();
  datalog::Workspace* ws = runtime->workspace();
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("node", 1));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("loc", 2));
  LB_RETURN_IF_ERROR(ws->EnsurePredicate("predNode", 2));
  for (const auto& [peer, key] : nodes_sorted) {
    if (peer != name) {
      LB_RETURN_IF_ERROR(runtime->AddPeer(peer, key));
      // Pairwise HMAC secret, identical on both endpoints.
      const std::string& lo = std::min(name, peer);
      const std::string& hi = std::max(name, peer);
      LB_RETURN_IF_ERROR(
          runtime->AddSharedSecret(peer, util::StrCat("secret:", lo, ":", hi)));
    }
    if (default_placement) {
      LB_RETURN_IF_ERROR(ws->AddFact("node", {Value::Sym(peer)}));
      LB_RETURN_IF_ERROR(
          ws->AddFact("loc", {Value::Sym(peer), Value::Sym(peer)}));
    }
  }
  if (default_placement) {
    LB_RETURN_IF_ERROR(ws->Load("ld2: predNode(export[P],N) <- loc(P,N)."));
  }
  if (!scheme.empty()) {
    std::unique_ptr<trust::AuthScheme> auth = trust::MakeScheme(scheme);
    if (auth == nullptr) {
      return util::InvalidArgument(
          util::StrCat("unknown scheme '", scheme, "'"));
    }
    LB_RETURN_IF_ERROR(runtime->UseScheme(*auth).status());
  }
  return util::OkStatus();
}

std::vector<PlacedBatch> CollectPlacedBatches(datalog::Workspace* ws,
                                              const std::string& self,
                                              std::set<std::string>* sent) {
  // Placement map computed by the node's own rules: predNode(part, node).
  const Relation* pred_node = ws->GetRelation("predNode");
  std::map<std::pair<std::string, std::string>, std::string> placement;
  if (pred_node != nullptr && pred_node->arity() == 2) {
    for (size_t i = 0; i < pred_node->size(); ++i) {
      Tuple t = pred_node->RowTuple(i);
      if (t[0].kind() != ValueKind::kPart ||
          t[1].kind() != ValueKind::kSymbol) {
        continue;
      }
      const datalog::PartValue& part = t[0].AsPart();
      placement[{part.predicate, part.key->ToString()}] = t[1].AsText();
    }
  }
  if (placement.empty()) return {};

  // Batch per (destination, relation): one dictionary-framed block per
  // group, so a round's worth of tuples for a peer shares one payload and
  // repeated principals/predicates ship once (per-tuple dedup across
  // rounds is `sent`, keyed on the row's interned ids).
  std::map<std::pair<std::string, std::string>, std::vector<Tuple>> batches;
  for (const auto& [pred_name, info] : ws->catalog().predicates()) {
    if (!info.partitioned) continue;
    const Relation* rel = ws->GetRelation(pred_name);
    if (rel == nullptr || rel->arity() == 0) continue;
    for (size_t ri = 0; ri < rel->size(); ++ri) {
      auto it = placement.find({pred_name, rel->ValueAt(ri, 0).ToString()});
      if (it == placement.end() || it->second == self) continue;
      // Dedup on the row's interned ids: stable for the workspace's
      // lifetime (the pool only grows), unique per value, and far cheaper
      // than serializing the tuple a second time just for the key.
      std::string dedup_key = util::StrCat(pred_name, "|", it->second);
      const datalog::ValueId* ids = rel->RowIds(ri);
      for (size_t c = 0; c < rel->arity(); ++c) {
        dedup_key.push_back('#');
        dedup_key.append(std::to_string(ids[c].bits()));
      }
      if (!sent->insert(dedup_key).second) continue;
      batches[{it->second, pred_name}].push_back(rel->RowTuple(ri));
    }
  }
  std::vector<PlacedBatch> out;
  out.reserve(batches.size());
  for (auto& [key, tuples] : batches) {
    out.push_back(PlacedBatch{key.first, key.second, std::move(tuples)});
  }
  return out;
}

Result<TrustRuntime*> Cluster::AddNode(
    const std::string& name, trust::TrustRuntime::Options runtime_options) {
  if (nodes_.count(name) > 0) {
    return util::AlreadyExists(util::StrCat("node '", name, "' exists"));
  }
  runtime_options.principal = name;
  LB_ASSIGN_OR_RETURN(std::unique_ptr<TrustRuntime> runtime,
                      TrustRuntime::Create(runtime_options));
  NodeState state;
  state.runtime = std::move(runtime);
  auto [it, inserted] = nodes_.emplace(name, std::move(state));
  return it->second.runtime.get();
}

TrustRuntime* Cluster::node(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.runtime.get();
}

std::vector<std::string> Cluster::node_names() const {
  std::vector<std::string> out;
  for (const auto& [name, state] : nodes_) out.push_back(name);
  return out;
}

Status Cluster::Connect() {
  // nodes_ is name-sorted; ConfigureMeshNode preserves that order, which
  // the distributed runtime replays so per-node state matches exactly.
  std::vector<std::pair<std::string, crypto::RsaPublicKey>> mesh;
  mesh.reserve(nodes_.size());
  for (auto& [name, state] : nodes_) {
    mesh.emplace_back(name, state.runtime->keypair().public_key);
  }
  for (auto& [name, state] : nodes_) {
    LB_RETURN_IF_ERROR(ConfigureMeshNode(state.runtime.get(), mesh,
                                         options_.scheme,
                                         options_.default_placement));
  }
  return util::OkStatus();
}

void Cluster::InjectTamper(const std::string& relation,
                           std::function<void(std::string*)> mutate) {
  tamper_relation_ = relation;
  tamper_ = std::move(mutate);
}

Status Cluster::ShipFrom(const std::string& name, NodeState* state,
                         std::vector<Message>* outbox) {
  for (PlacedBatch& batch : CollectPlacedBatches(
           state->runtime->workspace(), name, &state->sent)) {
    Message msg;
    msg.kind = Message::Kind::kTupleBlock;
    msg.from_node = name;
    msg.to_node = batch.dest;
    msg.relation = batch.relation;
    msg.payload = SerializeTupleBlock(batch.tuples);
    state->tuples_out += batch.tuples.size();
    outbox->push_back(std::move(msg));
  }
  return util::OkStatus();
}

Status Cluster::ShipCredential(const std::string& from_node,
                               const std::string& to_node,
                               const std::string& hash) {
  auto from = nodes_.find(from_node);
  if (from == nodes_.end()) {
    return util::NotFound(util::StrCat("unknown node '", from_node, "'"));
  }
  if (nodes_.count(to_node) == 0) {
    return util::NotFound(util::StrCat("unknown node '", to_node, "'"));
  }
  Message msg;
  msg.kind = Message::Kind::kCredential;
  msg.from_node = from_node;
  msg.to_node = to_node;
  msg.relation = "credential";
  LB_ASSIGN_OR_RETURN(msg.payload,
                      from->second.runtime->ExportCredential(hash));
  pending_credentials_.push_back(std::move(msg));
  return util::OkStatus();
}

Status Cluster::Deliver(const Message& message, RunStats* stats) {
  auto it = nodes_.find(message.to_node);
  if (it == nodes_.end()) {
    return util::NotFound(
        util::StrCat("message for unknown node '", message.to_node, "'"));
  }
  std::string payload = message.payload;
  if (tamper_ && message.relation == tamper_relation_) {
    tamper_(&payload);
    tamper_ = nullptr;  // one-shot
  }
  if (message.kind == Message::Kind::kCredential) {
    LB_RETURN_IF_ERROR(it->second.runtime
                           ->ImportCredentials(payload,
                                               options_.credential_now)
                           .status());
    ++it->second.credential_imports;
    it->second.dirty = true;
    return util::OkStatus();
  }
  std::vector<Tuple> tuples;
  if (message.kind == Message::Kind::kTupleBlock) {
    LB_ASSIGN_OR_RETURN(tuples, DeserializeTupleBlock(payload));
  } else {
    LB_ASSIGN_OR_RETURN(Tuple tuple, DeserializeTuple(payload));
    tuples.push_back(std::move(tuple));
  }
  if (stats != nullptr) stats->tuples += tuples.size();
  it->second.tuples_in += tuples.size();
  // Stage into the node's inbox (the same async-import hooks the socket
  // transport uses); all messages delivered to this node in the round
  // commit as one batch with a single fixpoint.
  LB_RETURN_IF_ERROR(
      it->second.runtime->StageTuples(message.relation, std::move(tuples)));
  it->second.dirty = true;
  return util::OkStatus();
}

Result<Cluster::RunStats> Cluster::Run() {
  RunStats stats;
  // Credential bundles queued since the last Run() deliver first, so the
  // imported says-facts participate in the first fixpoint round.
  std::vector<Message> credentials = std::move(pending_credentials_);
  pending_credentials_.clear();
  for (size_t i = 0; i < credentials.size(); ++i) {
    ++stats.messages;
    ++stats.credential_messages;
    stats.bytes += credentials[i].ByteSize();
    stats.credential_bytes += credentials[i].payload.size();
    Status st = Deliver(credentials[i], &stats);
    if (!st.ok()) {
      // The rejected bundle is dropped (retrying it would fail forever),
      // but bundles not yet attempted stay queued for the next Run().
      pending_credentials_.assign(
          std::make_move_iterator(credentials.begin() + i + 1),
          std::make_move_iterator(credentials.end()));
      return Status(st.code(),
                    util::StrCat("node '", credentials[i].to_node,
                                 "': ", st.message()));
    }
  }
  // Every Run() starts from local changes possibly made since the last one.
  for (auto& [name, state] : nodes_) state.dirty = true;
  for (stats.rounds = 0; stats.rounds < options_.max_rounds; ++stats.rounds) {
    bool any_dirty = false;
    std::vector<Message> outbox;
    for (auto& [name, state] : nodes_) {
      if (!state.dirty) continue;
      any_dirty = true;
      state.dirty = false;
      // Inbound batch: apply every staged tuple, then fixpoint once.
      Status st = state.runtime->HasInbox() ? state.runtime->CommitInbox()
                                            : state.runtime->Fixpoint();
      ++stats.fixpoints;
      ++state.fixpoints;
      if (!st.ok()) {
        return Status(st.code(),
                      util::StrCat("node '", name, "': ", st.message()));
      }
      LB_RETURN_IF_ERROR(ShipFrom(name, &state, &outbox));
    }
    if (!any_dirty && outbox.empty()) break;
    for (const Message& msg : outbox) {
      ++stats.messages;
      stats.bytes += msg.ByteSize();
      stats.tuple_bytes += msg.payload.size();
      LB_RETURN_IF_ERROR(Deliver(msg, &stats));
    }
    if (outbox.empty() && !any_dirty) break;
  }
  // Round budget exhausted with deliveries still staged: apply them to the
  // nodes' EDBs (no fixpoint) so the tuples are durable — as immediate
  // delivery made them — and surface at the node's next fixpoint.
  for (auto& [name, state] : nodes_) {
    if (!state.runtime->HasInbox()) continue;
    Status st = state.runtime->CommitInboxNoFixpoint();
    if (!st.ok()) {
      return Status(st.code(),
                    util::StrCat("node '", name, "': ", st.message()));
    }
  }
  last_stats_ = stats;
  SyncMetrics();
  return stats;
}

void Cluster::SyncMetrics() {
  for (auto& [name, state] : nodes_) {
    obs::MetricsRegistry* reg = state.runtime->workspace()->metrics();
    if (reg == nullptr) continue;
    auto set = [reg](const char* counter, size_t value) {
      reg->GetCounter(counter)->Set(static_cast<uint64_t>(value));
    };
    set("lbtrust_node_fixpoints_total", state.fixpoints);
    set("lbtrust_node_tuples_in_total", state.tuples_in);
    set("lbtrust_node_tuples_out_total", state.tuples_out);
    set("lbtrust_node_credential_imports_total", state.credential_imports);
    set("lbtrust_node_deferred_sends_total", 0);
    state.runtime->SyncMetrics();
  }
}

}  // namespace lbtrust::net
