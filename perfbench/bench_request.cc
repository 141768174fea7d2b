// End-to-end authorization benchmark for lbtrust.
//
// One process, one closed-loop client: the next operation is issued only
// after the previous one returned. Every timing is taken here, around calls
// to the library's public API; nothing inside src/ is instrumented for it.
//
// Workloads (see README.md for why each exists):
//   authz_cold       renewed 3-link RSA-1024 credential chains, every
//                    signature check is a verify-cache miss
//   binder_exchange  the paper's Fig. 2: alice ships says-messages to bob
//                    on the simulated two-node Cluster under HMAC
//
// Usage:
//   bench_request --workload NAME --seed N --seconds S --trace 0|1
//
// Output: human-readable lines, then a `host` JSON line, then (last) one
// JSON object {"correct","attempted","failed","metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs an untraced and a traced
// half and reports the per-layer split.
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cred/credential.h"
#include "cred/store.h"
#include "crypto/rsa.h"
#include "datalog/lint.h"
#include "datalog/parser.h"
#include "datalog/workspace.h"
#include "net/cluster.h"
#include "net/frame.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "trust/trust_runtime.h"
#include "util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using lbtrust::cred::Credential;
using lbtrust::datalog::PreparedQuery;
using lbtrust::datalog::Transaction;
using lbtrust::datalog::Value;
using lbtrust::datalog::Workspace;
using lbtrust::trust::TrustRuntime;
using lbtrust::util::StrCat;

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. The measured operations run on this
/// thread alone (see kEvalThreads), so on an idle core this equals their
/// wall time; on a shared host it leaves out the time the thread waited for
/// a core, which is the neighbours' load, not the program's work.
double CpuUs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_request: %s\n", what.c_str());
  std::exit(2);
}

void Check(const lbtrust::util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Take(lbtrust::util::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

/// Quantile with linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Peak resident set of this program image. getrusage's ru_maxrss is not
/// used: it survives execve, so it reports the launching process's peak
/// (the Python interpreter of run.py) whenever that is the larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  Die("no VmHWM in /proc/self/status");
}

/// Counts checked answers. Anything wrong is reported on stderr (first few
/// only) and lands in `failed`.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::fprintf(stderr, "wrong answer: %s\n", what.c_str());
  }
};

/// Held state of one node: per-relation row counts plus credential-store
/// size. Latency here scales with held state, so a run whose state grew
/// measured a different system at its end than at its start.
struct HeldState {
  std::vector<std::pair<std::string, size_t>> rows;
  size_t credentials = 0;
  size_t TotalRows() const {
    size_t total = 0;
    for (const auto& entry : rows) total += entry.second;
    return total;
  }
};

/// Eval worker threads of every runtime the benchmark builds. The library
/// default (0: one per hardware thread) runs each parallel round as a
/// dispatch to every core that waits for all of them, so on a few shared
/// cores it times the host's scheduler rather than the engine. With one
/// thread, all of the program's work runs on the calling thread, where
/// CpuUs() sees it.
constexpr unsigned kEvalThreads = 1;

TrustRuntime::Options RuntimeOptions(const std::string& principal) {
  TrustRuntime::Options options;
  options.principal = principal;
  options.workspace.threads = kEvalThreads;
  return options;
}

/// Threads of this process: CpuUs() covers the calling thread only, so a
/// run in which the program started another one has timed part of its work.
long ThreadCount() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::strtol(line.c_str() + 8, nullptr, 10);
    }
  }
  Die("no Threads in /proc/self/status");
}

/// Fails the run (once) if the program started a thread of its own.
void CheckOneThread(std::vector<std::string>* problems) {
  long threads = ThreadCount();
  std::string problem =
      StrCat("the program ran ", threads, " threads; CpuUs() times one");
  if (threads != 1 &&
      std::find(problems->begin(), problems->end(), problem) ==
          problems->end()) {
    problems->push_back(problem);
  }
}

/// Operation kinds in exact shares: every block of operations holds
/// counts[k] of kind k, in an order shuffled from the seed. A draw per
/// operation would let the share of an expensive kind, and with it a
/// run's throughput, drift from run to run.
class MixSchedule {
 public:
  explicit MixSchedule(const std::vector<int>& counts) {
    for (size_t kind = 0; kind < counts.size(); ++kind) {
      block_.insert(block_.end(), counts[kind], static_cast<int>(kind));
    }
    next_ = block_.size();
  }
  int Next(std::mt19937_64* rng) {
    if (next_ == block_.size()) {
      std::shuffle(block_.begin(), block_.end(), *rng);
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  std::vector<int> block_;
  size_t next_;
};

HeldState Snapshot(TrustRuntime* rt) {
  return {rt->workspace()->RelationRowCounts(), rt->credentials()->size()};
}

/// Empty when `end` holds no more than `start` in every relation and in
/// the credential store; otherwise names the first relation that grew.
std::string Growth(const HeldState& start, const HeldState& end) {
  if (end.credentials > start.credentials) {
    return StrCat("credential store grew ", start.credentials, " -> ",
                  end.credentials);
  }
  std::map<std::string, size_t> before(start.rows.begin(), start.rows.end());
  for (const auto& [name, count] : end.rows) {
    size_t prior = before.count(name) ? before[name] : 0;
    if (count > prior) {
      return StrCat("relation ", name, " grew ", prior, " -> ", count);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Span log for the traced run.
//
// Spans are recorded from this file only, around public calls. A layer that
// is reached only inside another call (verify, parse and lint inside
// ImportCredentials) gets a *measured child*: its duration comes from a
// standalone call on the same request's inputs, or from the delta of a
// program histogram, and it is attached under the span that contains it.
// A layer's self time is its spans' durations minus their children's,
// summed over the run and then floored at 0: per-request noise in a
// re-timing cancels out, a systematic overshoot does not. The self time of
// a container span (the import) is what no child measured; it is reported,
// but it does not count towards coverage.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span around a call. A `container` span stands for a call whose
  /// inner layers are attached as measured children: its self time is the
  /// part of the call that no child accounts for.
  size_t Open(const char* name, bool container = false) {
    if (!enabled_) return 0;
    int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back({name, NowUs(), 0.0, parent, container});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(size_t id) {
    if (!enabled_) return;
    spans_[id].end = NowUs();
    open_.pop_back();
  }

  /// Attaches a child of `parent` whose duration was measured apart from
  /// the parent's own call. Returns the child's id (for grandchildren).
  size_t AddMeasured(size_t parent, const char* name, double dur_us) {
    if (!enabled_) return 0;
    double start = spans_[parent].start;
    spans_.push_back({name, start, start + std::max(0.0, dur_us),
                      static_cast<int64_t>(parent), false});
    return spans_.size() - 1;
  }

  struct Summary {
    std::map<std::string, double> self_us;  ///< run-total self time per name
    double root_us = 0;                     ///< summed root durations
    double measured_us = 0;  ///< self time of every non-container span
    size_t roots = 0;
    /// Measured layer time over request wall time. Time that no layer span
    /// measures (root and container self time) lowers it; re-timed
    /// children that claim more than the call they sit in raise it.
    double Coverage() const {
      return root_us > 0 ? measured_us / root_us : 0.0;
    }
  };

  Summary Summarize() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] += span.end - span.start;
      }
    }
    Summary summary;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      double dur = span.end - span.start;
      if (span.parent < 0) {
        summary.root_us += dur;
        ++summary.roots;
        continue;
      }
      summary.self_us[span.name] += dur - child_us[i];
      if (!span.container) summary.measured_us += dur - child_us[i];
    }
    for (auto& entry : summary.self_us) {
      entry.second = std::max(0.0, entry.second);
    }
    return summary;
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int64_t parent;
    bool container;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a no-op on a disabled log.
class Span {
 public:
  Span(SpanLog* log, const char* name, bool container = false)
      : log_(log), id_(log->Open(name, container)) {}
  ~Span() { log_->Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  size_t id() const { return id_; }

 private:
  SpanLog* log_;
  size_t id_;
};

/// Program-side counters the benchmark may read: the workspace registry's
/// fixpoint/commit histograms and delta-fixpoint count.
struct EngineCounters {
  uint64_t commit_us = 0;
  uint64_t commits = 0;
  uint64_t fixpoint_us = 0;
  uint64_t fixpoints_delta = 0;

  static EngineCounters Read(Workspace* ws) {
    EngineCounters c;
    lbtrust::obs::MetricsRegistry* m = ws->metrics();
    if (m == nullptr) return c;
    auto* commit = m->GetHistogram("lbtrust_commit_latency_microseconds");
    auto* fixpoint = m->GetHistogram("lbtrust_fixpoint_latency_microseconds");
    c.commit_us = commit->sum();
    c.commits = commit->count();
    c.fixpoint_us = fixpoint->sum();
    c.fixpoints_delta =
        m->GetCounter("lbtrust_fixpoints_total", "path=\"delta\"")->value();
    return c;
  }

  EngineCounters operator-(const EngineCounters& o) const {
    return {commit_us - o.commit_us,
            commits - o.commits,
            fixpoint_us - o.fixpoint_us,
            fixpoints_delta - o.fixpoints_delta};
  }
};

/// Attaches the commit (and, under it, the fixpoint) measured by the
/// program's own histograms between `before` and `after` to `parent`.
void AttachCommit(SpanLog* log, size_t parent, const EngineCounters& before,
                  const EngineCounters& after) {
  if (!log->enabled() || after.commits == before.commits) return;
  size_t commit = log->AddMeasured(
      parent, "datalog.commit",
      static_cast<double>(after.commit_us - before.commit_us));
  log->AddMeasured(commit, "datalog.fixpoint",
                   static_cast<double>(after.fixpoint_us - before.fixpoint_us));
}

// ---------------------------------------------------------------------------
// Result assembly.
// ---------------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

struct Outcome {
  Tally tally;
  std::vector<std::string> problems;  ///< guard/check failures
  std::map<std::string, Metric> metrics;
};

/// Samples of one measured phase (the whole run for --trace 0, each half
/// for --trace 1). Every closed-loop step is one operation of a kind the
/// workload names; kind 0 is the workload's request.
struct Phase {
  std::vector<double> request_us;   ///< CPU time of each step
  std::vector<size_t> request_ops;  ///< operations completed by each step
  std::vector<int> request_kind;    ///< kind of each step
  double busy_us = 0;               ///< summed step CPU time
  size_t ops = 0;                   ///< summed operations

  void Record(double elapsed_us, size_t operations, int kind = 0) {
    request_us.push_back(elapsed_us);
    request_ops.push_back(operations);
    request_kind.push_back(kind);
    busy_us += elapsed_us;
    ops += operations;
  }
};

/// The quantile the end-to-end figures are read at. Other tenants of the
/// host share its caches and memory bus: while one of them is busy, the
/// same operation takes up to twice the CPU time, in stretches of about a
/// tenth of a second that cover a different share of every run. A median or
/// a mean follows that share from run to run; a quantile high enough to lie
/// inside the slowed stretches in every run does not.
constexpr double kTail = 0.95;

/// End-to-end figures of a phase, each read at kTail.
struct TailFigures {
  double request_us = 0;  ///< the kTail quantile of kind-0 step CPU time
  double request_p50_us = 0;  ///< printed beside it, not a metric
  size_t requests = 0;        ///< kind-0 steps
  /// Operations over the CPU time the phase would have taken had every step
  /// cost the kTail quantile of its kind.
  double ops_per_cpu_s = 0;
};

TailFigures Tail(const Phase& phase) {
  std::map<int, std::vector<double>> by_kind;
  for (size_t i = 0; i < phase.request_us.size(); ++i) {
    by_kind[phase.request_kind[i]].push_back(phase.request_us[i]);
  }
  TailFigures figures;
  double cost_us = 0;
  for (const auto& [kind, times] : by_kind) {
    double tail = Quantile(times, kTail);
    if (kind == 0) {
      figures.request_us = tail;
      figures.request_p50_us = Median(times);
      figures.requests = times.size();
    }
    cost_us += tail * static_cast<double>(times.size());
  }
  if (cost_us > 0) figures.ops_per_cpu_s = phase.ops / (cost_us / 1e6);
  return figures;
}

/// Every per-layer metric, zero unless a workload sets it.
const char* const kLayerMetrics[][2] = {
    {"crypto.rsa_verify_us", "us"},     {"cred.verify_miss_us", "us"},
    {"cred.verify_misses", "count"},    {"net.frame_decode_us", "us"},
    {"cred.bundle_parse_us", "us"},     {"cred.hash_us", "us"},
    {"cred.closure_us", "us"},          {"datalog.parse_us", "us"},
    {"datalog.lint_us", "us"},          {"datalog.commit_us", "us"},
    {"datalog.fixpoint_us", "us"},      {"datalog.fixpoints_delta", "count"},
    {"datalog.held_rows", "count"},     {"datalog.probe_us", "us"},
    {"datalog.prepare_us", "us"},       {"trust.import_us", "us"},
    {"trust.hmac_signs", "count"},      {"trust.hmac_verifies", "count"},
    {"net.exchange_rounds", "count"},   {"net.exchange_bytes_per_tuple", "B"},
    {"obs.span_coverage", "ratio"},     {"obs.trace_overhead", "ratio"},
};

void InitLayerMetrics(Outcome* out) {
  for (const auto& entry : kLayerMetrics) {
    out->metrics[entry[0]] = {0.0, entry[1]};
  }
}

void SetLayer(Outcome* out, const std::string& name, double value) {
  auto it = out->metrics.find(name);
  if (it == out->metrics.end()) Die("unknown layer metric " + name);
  it->second.value = value;
}

/// Per-request mean self time of each span name, plus coverage.
void ReportSelfTimes(Outcome* out, const SpanLog::Summary& summary) {
  double n = summary.roots > 0 ? static_cast<double>(summary.roots) : 1.0;
  for (const auto& [name, us] : summary.self_us) {
    if (out->metrics.count(name + "_us")) SetLayer(out, name + "_us", us / n);
  }
  SetLayer(out, "obs.span_coverage", summary.Coverage());
}

void SetEndToEnd(Outcome* out, const Phase& phase, double setup_s) {
  auto& m = out->metrics;
  m["setup_s"] = {setup_s, "s"};
  TailFigures tail = Tail(phase);
  m["p95_ops_per_cpu_s"] = {tail.ops_per_cpu_s, "1/s"};
  m["request_cpu_p95_us"] = {tail.request_us, "us"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  std::printf("samples: steps=%zu ops=%zu busy_cpu_s=%.3f\n",
              phase.request_us.size(), phase.ops, phase.busy_us / 1e6);
  std::printf("request cpu: n=%zu p50=%.1f us p95=%.1f us\n", tail.requests,
              tail.request_p50_us, tail.request_us);
}

void SetTraceOverhead(Outcome* out, const Phase& untraced,
                      const Phase& traced) {
  double base = Median(untraced.request_us);
  double with = Median(traced.request_us);
  SetLayer(out, "obs.trace_overhead", base > 0 ? with / base - 1.0 : 0.0);
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Runs `body` until `seconds` of wall time have passed (at least once).
template <typename Fn>
void ForSeconds(double seconds, Fn&& body) {
  double deadline = NowUs() + seconds * 1e6;
  do {
    body();
  } while (NowUs() < deadline);
}

/// What a workload hands to Measure().
struct Workload {
  /// One closed-loop step: runs and checks one operation and records it.
  std::function<void(Phase*, SpanLog*)> step;
  /// Called between the untraced and the traced half; resets layer counts.
  std::function<void()> begin_traced;
  /// Called after the traced half; sets the layer metrics that span self
  /// times do not give.
  std::function<void(const SpanLog::Summary&, const Phase&)> report_layers;
};

/// The measured phase of a run. With --trace 0, `step` runs untraced for
/// the whole run and the end-to-end metrics are set; setup_s is the median
/// of `setup_s`, read after the run. With --trace 1 it runs untraced for
/// half the run and traced for the other half, and the per-layer metrics
/// are set.
void Measure(const Config& config, const Workload& workload,
             const std::vector<double>& setup_s, Outcome* out) {
  SpanLog off(false);
  if (!config.trace) {
    Phase phase;
    ForSeconds(config.seconds, [&] { workload.step(&phase, &off); });
    CheckOneThread(&out->problems);
    SetEndToEnd(out, phase, Median(setup_s));
    return;
  }
  InitLayerMetrics(out);
  Phase untraced;
  ForSeconds(config.seconds / 2, [&] { workload.step(&untraced, &off); });
  workload.begin_traced();
  SpanLog log(true);
  Phase traced;
  ForSeconds(config.seconds / 2, [&] { workload.step(&traced, &log); });
  CheckOneThread(&out->problems);
  SpanLog::Summary summary = log.Summarize();
  ReportSelfTimes(out, summary);
  SetTraceOverhead(out, untraced, traced);
  workload.report_layers(summary, traced);
}

// ---------------------------------------------------------------------------
// authz_cold: the request path of one authorization.
//
//   frame bytes -> net::FrameParser -> TrustRuntime::ImportCredentials
//   (bundle parse, hash, closure, verify, parse, lint, commit, fixpoint)
//   -> PreparedQuery::Exists -> decision
//
// Principals: a root authority `ca`, kOrgs organisations and kDepts
// departments, each with its own RSA-1024 key. Chain i delegates from ca
// to one organisation, from it to one department, and the department
// grants user u<i> read access to object obj<i>:
//
//   C1 (ca)        deleg(ca, org<g>, c<i>).
//   C2 (org<g>)    deleg(org<g>, dept<d>, c<i>).              links C1
//   C3 (dept<d>)   grant(dept<d>, u<i>, obj<i>, c<i>).        links C2
//
// The receiver `svc` derives access only along a chain rooted at ca.
// ---------------------------------------------------------------------------

constexpr int kOrgs = 4;
constexpr int kDepts = 8;
constexpr int kColdChains = 32;  // principals whose chains renew
constexpr int64_t kFarFuture = 4102444800;  // 2100-01-01, never expires
// Measured layer time must be within this share of request wall time.
constexpr double kCoverageTolerance = 0.05;

const char kReceiverPolicy[] =
    "root(ca).\n"
    "reach(C, Y) <- root(X), deleg(X, Y, C).\n"
    "reach(C, Z) <- reach(C, Y), deleg(Y, Z, C).\n"
    "access(U, O) <- grant(D, U, O, C), reach(C, D).\n";

struct Issuer {
  std::string name;
  lbtrust::crypto::RsaKeyPair keys;
  std::string fingerprint;
};

struct Chain {
  int index = 0;
  int org = 0;
  int dept = 0;
  std::vector<Credential> creds;  ///< root first: C3, C2, C1
  std::vector<std::string> hashes;
  std::string bundle;
};

class AuthzBench {
 public:
  explicit AuthzBench(const Config& config)
      : config_(config), rng_(config.seed) {}

  Outcome Run();

 private:
  struct Receiver {
    std::unique_ptr<TrustRuntime> rt;
    std::vector<PreparedQuery> allow;  ///< access(u<i>, obj<i>)
    std::vector<PreparedQuery> deny;   ///< access(u<i>, obj<i+1>)
    std::vector<double> prepare_us;
  };

  void MakeIssuers();
  Credential Sign(const Issuer& issuer, std::string payload,
                  std::vector<std::string> links, int64_t not_after) const;
  Chain MakeChain(int index, int64_t not_after) const;
  Receiver BuildReceiver();
  /// One authorization, checked against the generator's expectation.
  void Request(Receiver* receiver, Phase* phase, Outcome* out, SpanLog* log);

  /// Layer times of one request's import, re-timed by standalone calls.
  struct Retimed {
    struct Layer {
      const char* name;
      double us;
      double rsa_us;  ///< the bare RSA verify inside a verify miss, else -1
    };
    std::vector<Layer> layers;  ///< in the order the import reaches them
    bool accepted = false;      ///< every step passed
  };
  /// Re-times the layers ImportCredentials reaches on `payload`, in its
  /// order and as far as it gets: bundle parse, hash, closure, then verify,
  /// parse and lint per closure member. Commit and fixpoint are read from
  /// the program's histograms instead.
  Retimed Retime(TrustRuntime* rt, const std::string& payload);

  const Issuer& Org(int g) const { return issuers_[1 + g]; }
  const Issuer& Dept(int d) const { return issuers_[1 + kOrgs + d]; }

  // Per 20 requests: 16 asks that must be allowed, 3 that must be denied
  // and 1 tampered bundle that must be rejected.
  enum Kind { kAllow, kDeny, kTampered };
  MixSchedule mix_{{16, 3, 1}};
  // Step kinds as Phase records them: a decision is the request.
  enum StepKind { kDecisionStep, kRejectionStep };

  const Config& config_;
  std::mt19937_64 rng_;
  std::vector<Issuer> issuers_;  ///< ca, orgs, depts
  std::vector<Chain> chains_;
  lbtrust::net::FrameParser parser_{1 << 20};
  uint64_t frame_seq_ = 0;
  int64_t renewal_ = 0;
  // Layer counts over the measured phase.
  size_t rsa_misses_ = 0;
  size_t verified_requests_ = 0;
  size_t forged_requests_ = 0;
  std::vector<double> rsa_us_, miss_us_;
};

void AuthzBench::MakeIssuers() {
  std::vector<std::string> names = {"ca"};
  for (int g = 0; g < kOrgs; ++g) names.push_back(StrCat("org", g));
  for (int d = 0; d < kDepts; ++d) names.push_back(StrCat("dept", d));
  for (const std::string& name : names) {
    Issuer issuer;
    issuer.name = name;
    issuer.keys = Take(TrustRuntime::DeriveKeyPair(name, 0, 1024),
                       "issuer key " + name);
    issuer.fingerprint =
        lbtrust::crypto::KeyFingerprint(issuer.keys.public_key);
    issuers_.push_back(std::move(issuer));
  }
}

Credential AuthzBench::Sign(const Issuer& issuer, std::string payload,
                            std::vector<std::string> links,
                            int64_t not_after) const {
  Credential cred;
  cred.issuer = issuer.name;
  cred.key_fingerprint = issuer.fingerprint;
  cred.not_after = not_after;
  cred.links = std::move(links);
  cred.payload = std::move(payload);
  Check(lbtrust::cred::SignCredential(&cred, issuer.keys.private_key),
        "sign");
  return cred;
}

Chain AuthzBench::MakeChain(int index, int64_t not_after) const {
  Chain chain;
  chain.index = index;
  chain.dept = index % kDepts;
  chain.org = chain.dept % kOrgs;
  std::string c = StrCat("c", index);
  Credential c1 = Sign(issuers_[0],
                       StrCat("deleg(ca, org", chain.org, ", ", c, ")."), {},
                       not_after);
  std::string h1 = lbtrust::cred::CredentialHash(c1);
  Credential c2 = Sign(Org(chain.org),
                       StrCat("deleg(org", chain.org, ", dept", chain.dept,
                              ", ", c, ")."),
                       {h1}, not_after);
  std::string h2 = lbtrust::cred::CredentialHash(c2);
  Credential c3 = Sign(Dept(chain.dept),
                       StrCat("grant(dept", chain.dept, ", u", index, ", obj",
                              index, ", ", c, ")."),
                       {h2}, not_after);
  std::string h3 = lbtrust::cred::CredentialHash(c3);
  chain.creds = {c3, c2, c1};
  chain.hashes = {h3, h2, h1};
  chain.bundle = lbtrust::cred::SerializeBundle(chain.creds);
  return chain;
}

/// Receiver-side set-up: runtime creation, policy load, peer keys, pool
/// import (each import runs its own fixpoint) and query preparation.
AuthzBench::Receiver AuthzBench::BuildReceiver() {
  Receiver r;
  r.rt = Take(TrustRuntime::Create(RuntimeOptions("svc")), "create receiver");
  Check(r.rt->Load(kReceiverPolicy), "load receiver policy");
  for (const Issuer& issuer : issuers_) {
    Check(r.rt->AddPeer(issuer.name, issuer.keys.public_key), "add peer");
  }
  for (const Chain& chain : chains_) {
    Take(r.rt->ImportCredentials(chain.bundle), "pool import");
  }
  Check(r.rt->Fixpoint(), "first fixpoint");
  for (const Chain& chain : chains_) {
    int i = chain.index;
    double t0 = NowUs();
    r.allow.push_back(Take(
        r.rt->Prepare(StrCat("access(u", i, ", obj", i, ")")),
        "prepare allow"));
    double t1 = NowUs();
    r.deny.push_back(Take(
        r.rt->Prepare(StrCat("access(u", i, ", obj", i + 1, ")")),
        "prepare deny"));
    double t2 = NowUs();
    r.prepare_us.push_back(t1 - t0);
    r.prepare_us.push_back(t2 - t1);
  }
  return r;
}

void AuthzBench::Request(Receiver* receiver, Phase* phase, Outcome* out,
                         SpanLog* log) {
  TrustRuntime* rt = receiver->rt.get();
  lbtrust::cred::CredentialStore* store = rt->credentials();

  // --- Client side (untimed): choose and build the request. -------------
  size_t pick =
      std::uniform_int_distribution<size_t>(0, chains_.size() - 1)(rng_);
  int kind = mix_.Next(&rng_);
  bool tampered = kind == kTampered;
  bool ask_deny = kind == kDeny;

  Chain& held = chains_[pick];
  // Renewal: same statements, new validity bound -> new content hashes,
  // so every signature check misses the verification cache.
  Chain renewed = MakeChain(held.index, kFarFuture + ++renewal_);
  const Chain* presented = &renewed;
  std::string bundle;
  if (tampered) {
    std::vector<Credential> creds = presented->creds;
    creds[0].signature[0] ^= 0x01;  // forged root signature: RSA rejects
    bundle = lbtrust::cred::SerializeBundle(creds);
  } else {
    bundle = presented->bundle;
  }
  lbtrust::net::Frame frame;
  frame.kind = lbtrust::net::Frame::Kind::kCredential;
  frame.seq = ++frame_seq_;
  frame.from = presented->creds[0].issuer;
  frame.payload = std::move(bundle);
  std::string wire = lbtrust::net::EncodeFrame(frame);

  // The traced run re-times the import's inner layers (untimed) before the
  // import rather than after it: right after the import, the same code and
  // data are warm, and the re-timings undercount the import on authz_cold
  // by about 8%. The import then runs a little warmer than it would
  // untraced; obs.trace_overhead shows by how much.
  std::optional<Retimed> retimed;
  if (log->enabled()) retimed = Retime(rt, frame.payload);
  lbtrust::cred::CredentialStore::Stats stats_before = store->stats();
  EngineCounters engine_before;
  if (log->enabled()) engine_before = EngineCounters::Read(rt->workspace());

  // --- Receiver side (timed): frame in -> decision out. -----------------
  bool decoded_ok = false;
  bool imported = false;
  bool allowed = false;
  size_t import_span = 0;
  double t0 = CpuUs();
  {
    Span request(log, "request");
    std::optional<lbtrust::net::Frame> decoded;
    {
      Span decode(log, "net.frame_decode");
      parser_.Append(wire);
      auto next = parser_.Next();
      if (next.ok()) decoded = std::move(*next);
    }
    decoded_ok = decoded.has_value();
    if (decoded_ok) {
      Span import(log, "trust.import", /*container=*/true);
      import_span = import.id();
      imported = rt->ImportCredentials(decoded->payload).ok();
    }
    if (imported) {
      Span probe(log, "datalog.probe");
      PreparedQuery& query =
          ask_deny ? receiver->deny[pick] : receiver->allow[pick];
      auto exists = query.Exists();
      allowed = exists.ok() && *exists;
    }
  }
  double elapsed = CpuUs() - t0;
  phase->Record(elapsed, 1, tampered ? kRejectionStep : kDecisionStep);
  EngineCounters engine_after;
  if (log->enabled()) engine_after = EngineCounters::Read(rt->workspace());

  // --- Checks (untimed). -------------------------------------------------
  if (tampered) {
    out->tally.Expect(!imported, StrCat("tampered chain ", pick, " accepted"));
  } else {
    out->tally.Expect(imported && allowed == !ask_deny,
                      StrCat("chain ", pick,
                             imported ? " decided " : " rejected",
                             allowed ? " allow" : " deny"));
  }
  const auto& stats_after = store->stats();
  size_t misses = stats_after.rsa_verifies - stats_before.rsa_verifies;
  rsa_misses_ += misses;
  if (imported) {
    ++verified_requests_;
  } else if (tampered) {
    ++forged_requests_;
  }

  if (imported) {
    // The renewal supersedes the held version: drop the old evidence so
    // the store stays at one version per principal.
    for (const std::string& hash : held.hashes) store->Erase(hash);
    held = std::move(renewed);
  }

  // --- Traced run: attach the re-timed layers under the import span. -----
  if (!retimed.has_value() || !decoded_ok) return;
  if (retimed->accepted != imported) {
    Die("the re-timed import path disagrees with the import");
  }
  for (const Retimed::Layer& layer : retimed->layers) {
    size_t id = log->AddMeasured(import_span, layer.name, layer.us);
    if (layer.rsa_us >= 0) {
      log->AddMeasured(id, "crypto.rsa_verify", layer.rsa_us);
    }
  }
  AttachCommit(log, import_span, engine_before, engine_after);
}

AuthzBench::Retimed AuthzBench::Retime(TrustRuntime* rt,
                                       const std::string& payload) {
  Retimed r;
  double a = NowUs();
  auto parsed = lbtrust::cred::ParseBundle(payload);
  r.layers.push_back({"cred.bundle_parse", NowUs() - a, -1});
  if (!parsed.ok()) return r;
  std::vector<std::string> hashes;
  a = NowUs();
  for (const Credential& cred : *parsed) {
    hashes.push_back(lbtrust::cred::CredentialHash(cred));
  }
  r.layers.push_back({"cred.hash", NowUs() - a, -1});
  // The import stages the bundle in the store, then resolves the closure.
  lbtrust::cred::CredentialStore staged;
  for (size_t i = 0; i < parsed->size(); ++i) {
    staged.InsertForReplication(hashes[i], (*parsed)[i]);
  }
  a = NowUs();
  auto closure = staged.ResolveClosure(hashes[0]);
  r.layers.push_back({"cred.closure", NowUs() - a, -1});
  if (!closure.ok()) return r;  // a corrupted link: no signature is checked
  for (const std::string& hash : *closure) {
    const Credential& cred = *staged.Get(hash);
    const Issuer* issuer = nullptr;
    for (const Issuer& candidate : issuers_) {
      if (candidate.name == cred.issuer) issuer = &candidate;
    }
    const auto& key = issuer->keys.public_key;
    // Miss: a store that has never seen the credential, so the check runs
    // RSA; the bare RSA verify is timed on the same credential.
    lbtrust::cred::CredentialStore scratch;
    scratch.InsertForReplication(hash, cred);
    a = NowUs();
    auto ok = scratch.VerifySignature(hash, key);
    double b = NowUs();
    bool bare = lbtrust::cred::VerifyCredentialSignature(cred, key);
    double rsa = NowUs() - b;
    bool verified = ok.ok() && *ok && bare;
    r.layers.push_back({"cred.verify", b - a, rsa});
    miss_us_.push_back(b - a);
    rsa_us_.push_back(rsa);
    if (!verified) return r;  // the forged signature: the import stops here
    a = NowUs();
    auto program = lbtrust::datalog::ParseProgram(cred.payload);
    r.layers.push_back({"datalog.parse", NowUs() - a, -1});
    if (!program.ok()) return r;
    lbtrust::datalog::LintOptions lint_opts;
    lint_opts.builtins = rt->workspace()->builtins();
    lint_opts.says_check = true;
    lint_opts.says_principal = cred.issuer;
    a = NowUs();
    auto lint = lbtrust::datalog::LintProgram(cred.payload, cred.issuer,
                                              lint_opts);
    r.layers.push_back({"datalog.lint", NowUs() - a, -1});
    if (lint.has_errors()) return r;
  }
  r.accepted = true;
  return r;
}

Outcome AuthzBench::Run() {
  Outcome out;
  double t0 = NowUs();
  MakeIssuers();
  int n = kColdChains;
  for (int i = 0; i < n; ++i) chains_.push_back(MakeChain(i, kFarFuture));
  std::printf("issuer side: %zu keys, %d chains signed in %.2f s\n",
              issuers_.size(), n, (NowUs() - t0) / 1e6);

  std::vector<double> setup_s;
  Receiver receiver;
  int repeats = config_.trace ? 1 : 9;
  for (int rep = 0; rep < repeats; ++rep) {
    receiver = Receiver();  // drop the previous node before timing
    double s0 = CpuUs();
    receiver = BuildReceiver();
    setup_s.push_back((CpuUs() - s0) / 1e6);
  }
  std::printf("setup_s:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");

  TrustRuntime* rt = receiver.rt.get();
  HeldState start = Snapshot(rt);
  EngineCounters engine_start;
  Workload workload;
  workload.step = [&](Phase* phase, SpanLog* log) {
    Request(&receiver, phase, &out, log);
  };
  workload.begin_traced = [&] {
    rsa_misses_ = verified_requests_ = forged_requests_ = 0;
    engine_start = EngineCounters::Read(rt->workspace());
  };
  workload.report_layers = [&](const SpanLog::Summary&, const Phase&) {
    // Self time of the verify span is cache bookkeeping on a miss; the
    // full miss and the bare RSA verify are reported as measured.
    SetLayer(&out, "cred.verify_miss_us", Mean(miss_us_));
    SetLayer(&out, "crypto.rsa_verify_us", Mean(rsa_us_));
    SetLayer(&out, "cred.verify_misses", static_cast<double>(rsa_misses_));
    EngineCounters engine = EngineCounters::Read(rt->workspace()) - engine_start;
    SetLayer(&out, "datalog.fixpoints_delta",
             static_cast<double>(engine.fixpoints_delta));
    SetLayer(&out, "datalog.prepare_us", Mean(receiver.prepare_us));
    double coverage = out.metrics["obs.span_coverage"].value;
    if (std::fabs(coverage - 1.0) > kCoverageTolerance) {
      out.problems.push_back(StrCat(
          "span coverage ", coverage, " is not within ",
          kCoverageTolerance * 100, "% of request wall time"));
    }
  };
  Measure(config_, workload, setup_s, &out);
  HeldState end = Snapshot(rt);
  if (config_.trace) {
    SetLayer(&out, "datalog.held_rows", static_cast<double>(end.TotalRows()));
  }

  // Layer-count invariant of the cold path (counted over the last phase).
  if (rsa_misses_ != 3 * verified_requests_ + forged_requests_) {
    out.problems.push_back(StrCat(
        "authz_cold: ", rsa_misses_, " RSA verifies for ", verified_requests_,
        " verified and ", forged_requests_, " forged requests (want 3 per ",
        "verified request, 1 per forged one)"));
  }
  std::string grew = Growth(start, end);
  if (!grew.empty()) out.problems.push_back("held state grew: " + grew);
  std::printf("held state: %zu rows, %zu credentials (start %zu rows, %zu)\n",
              end.TotalRows(), end.credentials, start.TotalRows(),
              start.credentials);
  return out;
}

// ---------------------------------------------------------------------------
// binder_exchange: the paper's Fig. 2. Alice exports kMessages says-messages
// to bob through `says` on a simulated two-node Cluster under HMAC (sign on
// export, verify on import). Each exchange runs on a freshly built cluster,
// so every Run() ships the same amount of work into the same empty state.
// ---------------------------------------------------------------------------

constexpr int kMessages = 2000;
constexpr int kBinderProbes = 64;
constexpr int kBinderDenyProbes = 16;

class BinderBench {
 public:
  explicit BinderBench(const Config& config)
      : config_(config), rng_(config.seed) {}
  Outcome Run();

 private:
  void Exchange(Phase* phase, Outcome* out, SpanLog* log);

  const Config& config_;
  std::mt19937_64 rng_;
  std::vector<double> setup_s_;
  std::vector<double> prepare_us_;
  std::vector<double> probe_us_;
  lbtrust::net::Cluster::RunStats totals_;
  size_t hmac_signs_ = 0;
  size_t hmac_verifies_ = 0;
  std::optional<HeldState> first_alice_, first_bob_;
  std::string growth_;
};

void BinderBench::Exchange(Phase* phase, Outcome* out, SpanLog* log) {
  // Client side: the message ids for this exchange.
  std::vector<int64_t> ids(kMessages);
  int64_t base = std::uniform_int_distribution<int64_t>(0, 1 << 30)(rng_);
  for (int i = 0; i < kMessages; ++i) ids[i] = base + 2 * i;  // odd = unsent

  double s0 = CpuUs();
  lbtrust::net::Cluster::Options copts;
  copts.scheme = "hmac";
  lbtrust::net::Cluster cluster(copts);
  TrustRuntime* alice =
      Take(cluster.AddNode("alice", RuntimeOptions("alice")), "add alice");
  TrustRuntime* bob =
      Take(cluster.AddNode("bob", RuntimeOptions("bob")), "add bob");
  Check(cluster.Connect(), "connect");
  Check(alice->Load("says(me,bob,[| ping(N). |]) <- msg(N)."), "load export");
  Transaction txn = alice->Begin();
  for (int64_t id : ids) txn.AddFact("msg", {Value::Int(id)});
  Check(txn.CommitNoFixpoint(), "stage messages");
  setup_s_.push_back((CpuUs() - s0) / 1e6);

  lbtrust::util::Result<lbtrust::net::Cluster::RunStats> stats =
      lbtrust::net::Cluster::RunStats();
  double t0 = CpuUs();
  {
    Span request(log, "request");
    Span run(log, "net.cluster_run");
    stats = cluster.Run();
  }
  double elapsed = CpuUs() - t0;
  Check(stats.status(), "cluster run");
  CheckOneThread(&out->problems);
  size_t delivered = std::min<size_t>(stats->tuples, kMessages);
  phase->Record(elapsed, delivered);
  for (int i = 0; i < kMessages; ++i) {
    out->tally.Expect(static_cast<size_t>(i) < delivered,
                      StrCat("message ", i, " not delivered"));
  }
  totals_.rounds += stats->rounds;
  totals_.bytes += stats->bytes;
  totals_.tuples += stats->tuples;
  hmac_signs_ += alice->crypto_stats().hmac_signs;
  hmac_verifies_ += bob->crypto_stats().hmac_verifies;

  // Bob's decisions: prepared probes on sent and unsent ids.
  std::uniform_int_distribution<int> which(0, kMessages - 1);
  for (int p = 0; p < kBinderProbes + kBinderDenyProbes; ++p) {
    bool sent = p < kBinderProbes;
    int64_t id = ids[which(rng_)] + (sent ? 0 : 1);
    double a = NowUs();
    PreparedQuery query =
        Take(bob->Prepare(StrCat("ping(", id, ")")), "prepare");
    double b = NowUs();
    auto exists = query.Exists();
    probe_us_.push_back(NowUs() - b);
    prepare_us_.push_back(b - a);
    out->tally.Expect(exists.ok() && *exists == sent,
                      StrCat("bob ping(", id, ") ",
                             sent ? "missing" : "present"));
  }
  auto count = bob->workspace()->Count("ping(N)");
  out->tally.Expect(count.ok() && *count == static_cast<size_t>(kMessages),
                    "bob holds a ping per message");

  HeldState alice_state = Snapshot(alice);
  HeldState bob_state = Snapshot(bob);
  if (!first_alice_) {
    first_alice_ = alice_state;
    first_bob_ = bob_state;
  } else if (growth_.empty()) {
    growth_ = Growth(*first_alice_, alice_state);
    if (growth_.empty()) growth_ = Growth(*first_bob_, bob_state);
  }
}

Outcome BinderBench::Run() {
  Outcome out;
  Workload workload;
  workload.step = [&](Phase* phase, SpanLog* log) {
    Exchange(phase, &out, log);
  };
  workload.begin_traced = [&] {
    totals_ = lbtrust::net::Cluster::RunStats();
    hmac_signs_ = hmac_verifies_ = 0;
    prepare_us_.clear();
    probe_us_.clear();
  };
  workload.report_layers = [&](const SpanLog::Summary&, const Phase& traced) {
    double exchanges = static_cast<double>(traced.request_us.size());
    SetLayer(&out, "trust.hmac_signs", hmac_signs_ / exchanges);
    SetLayer(&out, "trust.hmac_verifies", hmac_verifies_ / exchanges);
    SetLayer(&out, "net.exchange_rounds", totals_.rounds / exchanges);
    SetLayer(&out, "net.exchange_bytes_per_tuple",
             totals_.tuples > 0
                 ? static_cast<double>(totals_.bytes) / totals_.tuples
                 : 0.0);
    SetLayer(&out, "datalog.probe_us", Mean(probe_us_));
    SetLayer(&out, "datalog.prepare_us", Mean(prepare_us_));
    SetLayer(&out, "datalog.held_rows",
             static_cast<double>(first_bob_->TotalRows()));
  };
  Measure(config_, workload, setup_s_, &out);
  if (!growth_.empty()) out.problems.push_back("held state grew: " + growth_);
  return out;
}

// ---------------------------------------------------------------------------
// Host and build metadata, recorded with every result.
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string affinity = "unknown";
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    uint64_t mask = 0;
    for (int i = 0; i < 64; ++i) {
      if (CPU_ISSET(i, &set)) mask |= uint64_t{1} << i;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(mask));
    affinity = buf;
  }
  unsigned eval_threads = kEvalThreads;
  return StrCat("{\"nproc\":", sysconf(_SC_NPROCESSORS_ONLN),
                ",\"affinity\":\"", affinity, "\",\"cpu\":\"",
                JsonEscape(cpu), "\",\"compiler\":\"",
                JsonEscape(lbtrust::obs::BuildCompiler()),
                "\",\"build_type\":\"", PERFBENCH_BUILD_TYPE,
                "\",\"eval_threads\":", eval_threads, "}");
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || config.seconds <= 0) {
    Die("usage: bench_request --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Config config = ParseArgs(argc, argv);
  Outcome out;
  if (config.workload == "authz_cold") {
    out = AuthzBench(config).Run();
  } else if (config.workload == "binder_exchange") {
    out = BinderBench(config).Run();
  } else {
    Die("unknown workload " + config.workload);
  }
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  double error_rate =
      out.tally.attempted > 0
          ? static_cast<double>(out.tally.failed) / out.tally.attempted
          : 1.0;
  std::printf("error_rate: %.6f (%zu of %zu)\n", error_rate, out.tally.failed,
              out.tally.attempted);
  std::printf("host %s\n", HostJson().c_str());
  bool correct = out.tally.failed == 0 && out.problems.empty() &&
                 out.tally.attempted > 0;
  std::string metrics;
  for (const auto& [name, metric] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    metrics += StrCat(metrics.empty() ? "" : ",", "\"", name,
                      "\":{\"value\":", value, ",\"unit\":\"", metric.unit,
                      "\"}");
  }
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false", out.tally.attempted,
              out.tally.failed, metrics.c_str());
  return 0;
}
