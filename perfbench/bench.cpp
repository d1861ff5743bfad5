// End-to-end benchmark of the routing stack.
//
//   perfbench --workload lookup|store|flap --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Each workload is a closed loop with one client: the main thread runs a
// step, waits for the service to finish it, and only then starts the next.
// One step is
//   1. stage and apply one churn epoch to the publisher's writer view,
//   2. publish the view,
//   3. draw the step's requests from the published view,
//   4. submit them as one batch to the service (plus store upkeep),
// and the step's wall time is steps 1, 2 and 4. Every input — node churn,
// link flaps, queries, store keys, key popularity, values — comes from the
// generator in this file, seeded from --seed; the library only receives the
// generated inputs (the overlay itself is built by the library from a seed
// derived from --seed).
//
// --trace 0 prints the end-to-end metrics of an untraced run with the
// library's telemetry not wired. --trace 1 runs the same loop untraced, then
// rebuilds the system with telemetry wired, records spans around every
// public call this file makes, probes lower layers on some steps' inputs and
// pinned snapshots, cross-checks them, and prints the per-layer metrics.
// Spans are written to --trace-out at exit.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `failed` counts operations whose result failed a check. Routing outcomes
// the paper studies (undelivered lookups, lost/stale/quorum-failed store
// ops) are results, not failures of the program: they are the failed_frac
// metric. A failed check prints correct=false and exits 1.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <malloc.h>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "churn/churn_log.h"
#include "core/router.h"
#include "dht/hash.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "graph/overlay_graph.h"
#include "service/numa.h"
#include "service/routing_service.h"
#include "service/service_telemetry.h"
#include "service/sharded_service.h"
#include "service/store_service.h"
#include "service/view_publisher.h"
#include "store/placement.h"
#include "store/quorum_store.h"
#include "store/store_telemetry.h"
#include "telemetry/metric_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using p2p::graph::NodeId;
using Clock = std::chrono::steady_clock;

// Never more threads than the 4-CPU reference host has: services use at most
// this many workers and the main thread blocks while they run.
constexpr std::size_t kMaxThreads = 4;

double wall_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void fail(std::string_view what) { throw std::runtime_error(std::string(what)); }

void check(bool ok, std::string_view what) {
  if (!ok) fail(what);
}

// ---------------------------------------------------------------------------
// Input generator. Owned by the benchmark so that no change to the library
// changes the inputs: xoshiro256** seeded through splitmix64.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Gen {
 public:
  explicit Gen(std::uint64_t seed) {
    for (auto& w : s_) w = seed = mix64(seed);
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, n), n >= 1 (Lemire's multiply-shift with rejection).
  std::uint64_t below(std::uint64_t n) {
    for (;;) {
      const unsigned __int128 m = static_cast<unsigned __int128>(next()) * n;
      const auto lo = static_cast<std::uint64_t>(m);
      if (lo >= n || lo >= (-n) % n) return static_cast<std::uint64_t>(m >> 64);
    }
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t sample(Gen& gen) const {
    const double u = gen.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Alive/dead membership with O(1) uniform draws from either side — the
/// generator's own record of which nodes its churn killed.
class Membership {
 public:
  explicit Membership(std::size_t n) : pos_(n), alive_(n) {
    for (std::size_t u = 0; u < n; ++u) {
      alive_[u] = static_cast<NodeId>(u);
      pos_[u] = u;
    }
  }
  [[nodiscard]] std::size_t alive_count() const { return alive_.size(); }
  [[nodiscard]] std::size_t dead_count() const { return dead_.size(); }
  [[nodiscard]] NodeId random_alive(Gen& g) const { return alive_[g.below(alive_.size())]; }
  [[nodiscard]] NodeId random_dead(Gen& g) const { return dead_[g.below(dead_.size())]; }
  void kill(NodeId u) { move(u, alive_, dead_); }
  void revive(NodeId u) { move(u, dead_, alive_); }

 private:
  void move(NodeId u, std::vector<NodeId>& from, std::vector<NodeId>& to) {
    const std::size_t i = pos_[u];
    const NodeId last = from.back();
    from[i] = last;
    pos_[last] = i;
    from.pop_back();
    pos_[u] = to.size();
    to.push_back(u);
  }
  std::vector<std::size_t> pos_;
  std::vector<NodeId> alive_;
  std::vector<NodeId> dead_;
};

/// Draws `count` distinct live nodes to kill and `count` distinct nodes that
/// were dead before this epoch to revive, stages them in `log`, commits, and
/// returns the killed nodes. The two sets are disjoint, so every staged
/// change is a real flip.
std::vector<NodeId> stage_node_churn(p2p::churn::ChurnLog& log, Membership& m,
                                     Gen& gen, std::size_t count, double when) {
  std::vector<NodeId> revive;
  const std::size_t r = std::min(count, m.dead_count());
  for (std::size_t i = 0; i < r; ++i) {
    const NodeId u = m.random_dead(gen);
    m.revive(u);
    revive.push_back(u);
  }
  std::vector<NodeId> kill;
  for (std::size_t i = 0; i < count && m.alive_count() > 1; ++i) {
    NodeId u = m.random_alive(gen);
    while (std::find(revive.begin(), revive.end(), u) != revive.end()) {
      u = m.random_alive(gen);
    }
    m.kill(u);
    kill.push_back(u);
  }
  for (const NodeId u : revive) log.revive_node(u);
  for (const NodeId u : kill) log.kill_node(u);
  log.commit(when);
  return kill;
}

/// Kills `count` random live nodes as the log's first epoch.
void stage_dead_set(p2p::churn::ChurnLog& log, Membership& m, Gen& gen, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId u = m.random_alive(gen);
    m.kill(u);
    log.kill_node(u);
  }
  log.commit(0.0);
}

// ---------------------------------------------------------------------------
// Statistics.

/// Quantile q of `v` with linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans. Kept in memory (name, start, end, parent span, step id) while the
// tracer is on, written out at exit; a layer's self time is its span's
// duration minus the time its child spans cover. With the tracer off a span
// costs one branch.

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int64_t step;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (t_ != nullptr) index_ = t_->open(name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  void set_step(std::int64_t step) { step_ = step; }
  [[nodiscard]] Scope span(const char* name) { return Scope(on_ ? this : nullptr, name); }

  /// Durations (µs) of every span called `name` recorded at a step >= 0.
  [[nodiscard]] std::vector<double> step_durations_us(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.step >= 0 && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
    return out;
  }
  /// Total seconds of set-up spans (step -1) called `name`.
  [[nodiscard]] double setup_total_s(std::string_view name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.step < 0 && name == s.name) {
        total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    return total;
  }

  struct LayerTime {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> self_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      LayerTime& lt = out[s.name];
      ++lt.count;
      lt.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      lt.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    }
    return out;
  }

  void write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    check(f != nullptr, "cannot open trace output " + path);
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%d,\"step\":%lld}%s\n",
                   i, s.name, static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns) * 1e-3, s.parent,
                   static_cast<long long>(s.step), i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    check(std::fclose(f) == 0, "cannot write trace output " + path);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::int32_t open(const char* name) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, step_});
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool on_ = false;
  std::int64_t step_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// ---------------------------------------------------------------------------
// Metric output.

class Metrics {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }
  void print_table() const {
    for (const Entry& e : entries_) {
      std::printf("  %-32s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Per-run accounting shared by the workloads.

struct Totals {
  std::uint64_t ops = 0;
  std::vector<double> step_ms;
  double step_wall_s = 0.0;
  double step_cpu_s = 0.0;
  // Outcome sample: the ops of the first sample_steps measured steps, so
  // outcome metrics cover the same inputs whatever the throughput.
  std::size_t sample_steps = 0;
  std::uint64_t sample_ops = 0;
  std::uint64_t sample_failed = 0;  // undelivered / lost / stale / quorum_fail
  std::uint64_t sample_hops = 0;
  std::vector<std::uint64_t> hop_hist;

  [[nodiscard]] bool sampling() const { return step_ms.size() <= sample_steps; }
  void add_op(std::uint64_t hops_of_op, bool failed) {
    ++ops;
    if (!sampling()) return;
    ++sample_ops;
    sample_hops += hops_of_op;
    if (failed) ++sample_failed;
    if (hops_of_op >= hop_hist.size()) hop_hist.resize(hops_of_op + 1, 0);
    ++hop_hist[hops_of_op];
  }
  [[nodiscard]] double hop_quantile(double q) const {
    const auto want =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(sample_ops)));
    std::uint64_t seen = 0;
    for (std::size_t h = 0; h < hop_hist.size(); ++h) {
      seen += hop_hist[h];
      if (seen >= want && seen > 0) return static_cast<double>(h);
    }
    return 0.0;
  }
};

/// Wall and CPU time of the system's share of one step: churn stage/apply,
/// publish, service call and store upkeep. Request drawing and result checks
/// are the client's work and sit outside.
class StepClock {
 public:
  void begin() {
    w0_ = wall_s();
    c0_ = cpu_s();
  }
  void end() {
    wall_ += wall_s() - w0_;
    cpu_ += cpu_s() - c0_;
  }
  void finish(Totals& t) {
    t.step_ms.push_back(wall_ * 1e3);
    t.step_wall_s += wall_;
    t.step_cpu_s += cpu_;
    wall_ = cpu_ = 0.0;
  }

 private:
  double w0_ = 0.0, c0_ = 0.0, wall_ = 0.0, cpu_ = 0.0;
};

/// Per-layer samples collected by probes and traced steps.
struct LayerSamples {
  double last_call_s = 0.0;
  std::vector<double> call_busy_cores;
  std::vector<double> efficiency;
  std::vector<double> dispatch_us;
  std::vector<double> scaling_w2;
  std::vector<double> scaling_w4;
  std::vector<double> ns_per_lookup, ns_per_hop, ns_per_lookup_serial;
  std::vector<double> ns_per_hop_scalar, ns_per_hop_compact;
  std::uint64_t probe_queries = 0, probe_delivered = 0, probe_backtracks = 0;
  double compact_bytes_per_node = 0.0;
  std::vector<double> placement_ns, digest_ns, route_ns_per_op;
  std::uint64_t subqueries = 0, failovers = 0;
  std::uint64_t store_ok = 0, store_lost = 0, store_stale = 0, store_quorum_fail = 0;
  std::vector<double> sim_latency_ms;
  std::size_t retired_pending_max = 0;
  std::size_t snapshot_bytes = 0;
  std::uint64_t flips_applied = 0;
};

bool same_result(const p2p::core::RouteResult& a, const p2p::core::RouteResult& b) {
  return a.status == b.status && a.hops == b.hops && a.backtracks == b.backtracks &&
         a.reroutes == b.reroutes && a.completion_epoch == b.completion_epoch;
}

void check_same(std::span<const p2p::core::RouteResult> ref,
                std::span<const p2p::core::RouteResult> got, const char* what) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_result(ref[i], got[i])) {
      fail(std::string(what) + ": result " + std::to_string(i) +
           " differs from the service's (hops " + std::to_string(ref[i].hops) +
           " vs " + std::to_string(got[i].hops) + ")");
    }
  }
}

/// Moves `view` (over a graph other than the log's, with identical slot
/// numbering) to epoch `target` of `log`.
void seek_foreign(p2p::failure::FailureView& view, const p2p::churn::ChurnLog& log,
                  std::uint64_t target) {
  while (view.epoch() < target) view.apply(log.delta(view.epoch()));
  while (view.epoch() > target) view.revert(log.delta(view.epoch() - 1));
}

/// A view over `compact` at epoch 0 of `log` (the log's baseline liveness).
p2p::failure::FailureView compact_baseline(const p2p::graph::OverlayGraph& compact,
                                           const p2p::churn::ChurnLog& log) {
  auto view = p2p::failure::FailureView::all_alive(compact);
  const p2p::failure::FailureView& base = log.baseline();
  for (NodeId u = 0; u < compact.size(); ++u) {
    if (!base.node_alive(u)) view.kill_node(u);
  }
  if (!base.links_intact()) {
    for (std::size_t s = 0; s < compact.edge_slots(); ++s) {
      if (!base.link_alive_at(s)) view.kill_link_slot(s);
    }
  }
  return view;
}

/// The compact-layout twin of a workload's overlay, built on the first probe
/// from the same spec and seed (so the adjacency is identical), with a view
/// that follows the workload's churn log.
struct CompactTwin {
  std::unique_ptr<p2p::graph::OverlayGraph> graph;
  std::unique_ptr<p2p::failure::FailureView> view;

  void build(p2p::graph::BuildSpec spec, std::uint64_t seed, const p2p::churn::ChurnLog& log,
             LayerSamples& ls, Tracer& tr) {
    auto sp = tr.span("probe.compact_build");
    spec.layout = p2p::graph::EdgeLayout::kCompact;
    p2p::util::ThreadPool pool(kMaxThreads);
    p2p::util::Rng rng(seed);
    graph = std::make_unique<p2p::graph::OverlayGraph>(p2p::graph::build_overlay(spec, rng, pool));
    view = std::make_unique<p2p::failure::FailureView>(compact_baseline(*graph, log));
    ls.compact_bytes_per_node =
        static_cast<double>(graph->memory_bytes()) / static_cast<double>(graph->size());
  }
  void reset() {
    view.reset();
    graph.reset();
  }
};

/// The core-layer rungs on one batch of queries against one pinned view:
/// 1-thread batch pipeline, serial route(), scalar selection, compact layout.
/// Every rung must reproduce `reference` bit for bit (kBacktrack routing
/// draws no randomness, so the stripe seeds of a service do not matter).
/// Returns the 1-thread batch time in seconds.
double probe_core(const p2p::graph::OverlayGraph& g, const p2p::failure::FailureView& view,
                  CompactTwin& twin, const p2p::churn::ChurnLog& log,
                  const p2p::core::RouterConfig& rcfg,
                  std::span<const p2p::core::Query> queries,
                  std::span<const p2p::core::RouteResult> reference, LayerSamples& ls,
                  Tracer& tr) {
  using p2p::core::RouteResult;
  using p2p::core::Router;
  const auto nq = static_cast<double>(queries.size());
  std::vector<RouteResult> res(queries.size());
  p2p::util::Rng rng(1);

  double batch_s = 0.0;
  {
    auto sp = tr.span("probe.core.route_batch");
    const Router router(g, view, rcfg);
    const double t0 = wall_s();
    router.route_batch(queries, res, rng);
    batch_s = wall_s() - t0;
  }
  check_same(reference, res, "1-thread route_batch");
  std::uint64_t hops = 0;
  for (const RouteResult& r : res) {
    hops += r.hops;
    ls.probe_delivered += r.delivered() ? 1 : 0;
    ls.probe_backtracks += r.backtracks;
  }
  ls.probe_queries += queries.size();
  const double nh = static_cast<double>(std::max<std::uint64_t>(hops, 1));
  ls.ns_per_lookup.push_back(batch_s * 1e9 / nq);
  ls.ns_per_hop.push_back(batch_s * 1e9 / nh);

  {
    auto sp = tr.span("probe.core.route_serial");
    const Router router(g, view, rcfg);
    const std::size_t m = std::min<std::size_t>(queries.size(), 16384);
    std::vector<RouteResult> serial(m);
    const double t0 = wall_s();
    for (std::size_t i = 0; i < m; ++i) {
      serial[i] = router.route(queries[i].src, queries[i].target, rng);
    }
    ls.ns_per_lookup_serial.push_back((wall_s() - t0) * 1e9 / static_cast<double>(m));
    check_same(reference.first(m), serial, "serial route");
  }
  {
    auto sp = tr.span("probe.core.route_batch_scalar");
    p2p::core::RouterConfig scalar = rcfg;
    scalar.force_scalar = true;
    const Router router(g, view, scalar);
    const double t0 = wall_s();
    router.route_batch(queries, res, rng);
    ls.ns_per_hop_scalar.push_back((wall_s() - t0) * 1e9 / nh);
    check_same(reference, res, "scalar route_batch");
  }
  {
    auto sp = tr.span("probe.core.route_batch_compact");
    seek_foreign(*twin.view, log, view.epoch());
    const Router router(*twin.graph, *twin.view, rcfg);
    const double t0 = wall_s();
    router.route_batch(queries, res, rng);
    ls.ns_per_hop_compact.push_back((wall_s() - t0) * 1e9 / nh);
    check_same(reference, res, "compact-layout route_batch");
  }
  return batch_s;
}

p2p::graph::BuildSpec ring_spec(std::uint64_t n) {
  p2p::graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = p2p::metric::Space1D::Kind::kRing;
  spec.link_model = p2p::graph::BuildSpec::LinkModel::kPowerLaw;
  spec.long_links = static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(n))));
  spec.exponent = 1.0;
  spec.bidirectional = true;
  return spec;
}

p2p::core::RouterConfig backtrack_router() {
  p2p::core::RouterConfig rc;
  rc.stuck_policy = p2p::core::StuckPolicy::kBacktrack;
  return rc;
}

/// Churn-rate check: the flips an epoch's delta realizes against the flips
/// the generator asked for.
void report_churn(const char* what, double requested, double realized) {
  std::printf("churn: %s requested %.1f flips/epoch, realized %.1f\n", what, requested,
              realized);
  check(requested > 0 && std::fabs(realized / requested - 1.0) <= 0.10,
        std::string("churn rate check failed for ") + what);
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds a fresh system (dropping the previous one). `wired` attaches the
  /// library's telemetry registry.
  virtual void setup(Tracer& tr, bool wired) = 0;
  virtual void teardown() = 0;
  [[nodiscard]] virtual std::size_t warmup_steps() const = 0;
  /// Set-ups per run; setup_s is their median.
  [[nodiscard]] virtual int setup_reps() const = 0;
  /// Measured steps whose ops form the outcome sample (see Totals).
  [[nodiscard]] virtual std::size_t sample_steps() const = 0;
  /// One closed-loop step; `probe` runs the lower-layer probes after it.
  virtual void step(Tracer& tr, Totals& t, bool probe) = 0;
  /// Registry counters must equal the benchmark's own counts.
  virtual void check_registry() = 0;
  /// Realized churn against the generator's requested rate.
  virtual void churn_check() const = 0;
  virtual void layer_metrics(const Tracer& tr, Metrics& m) = 0;

 protected:
  LayerSamples ls_;
  std::uint64_t step_index_ = 0;
  std::uint64_t publishes_ = 0;
};

/// Publishes and records the publisher-layer samples.
void publish(p2p::service::ViewPublisher& pub, Tracer& tr, LayerSamples& ls,
             std::uint64_t& publishes) {
  {
    auto sp = tr.span("publisher.publish");
    pub.publish();
  }
  ++publishes;
  if (tr.enabled()) {
    ls.retired_pending_max = std::max(ls.retired_pending_max, pub.retired_pending());
    ls.snapshot_bytes = pub.writer_view().memory_bytes();
  }
}

void put_routing_probes(const LayerSamples& ls, Metrics& m, bool core_only) {
  m.put("core.ns_per_lookup", median(ls.ns_per_lookup), "ns");
  m.put("core.ns_per_hop", median(ls.ns_per_hop), "ns");
  m.put("core.ns_per_lookup.serial", median(ls.ns_per_lookup_serial), "ns");
  m.put("core.ns_per_hop.scalar", median(ls.ns_per_hop_scalar), "ns");
  m.put("core.ns_per_hop.compact", median(ls.ns_per_hop_compact), "ns");
  m.put("core.bytes_per_node.compact", ls.compact_bytes_per_node, "B");
  const double q = static_cast<double>(std::max<std::uint64_t>(ls.probe_queries, 1));
  m.put("core.delivered_frac", static_cast<double>(ls.probe_delivered) / q, "ratio");
  m.put("core.backtracks_per_lookup", static_cast<double>(ls.probe_backtracks) / q, "count");
  if (core_only) return;
  m.put("service.efficiency", median(ls.efficiency), "ratio");
  m.put("service.scaling.w2", median(ls.scaling_w2), "x");
  m.put("service.scaling.w4", median(ls.scaling_w4), "x");
}

void put_common_layers(const Tracer& tr, const LayerSamples& ls, std::size_t nodes,
                       std::size_t graph_bytes, double flips_per_epoch, Metrics& m) {
  m.put("graph.build_s", tr.setup_total_s("graph.build"), "s");
  m.put("graph.bytes_per_node", static_cast<double>(graph_bytes) / static_cast<double>(nodes),
        "B");
  m.put("churn.stage_s", tr.setup_total_s("churn.stage"), "s");
  m.put("churn.flips_per_epoch", flips_per_epoch, "flips");
  const auto apply = tr.step_durations_us("failure.apply");
  double apply_total = 0.0;
  for (const double d : apply) apply_total += d;
  m.put("failure.apply_us_p50", quantile(apply, 0.5), "us");
  m.put("failure.apply_us_p99", quantile(apply, 0.99), "us");
  m.put("failure.ns_per_flip",
        apply_total * 1e3 / static_cast<double>(std::max<std::uint64_t>(ls.flips_applied, 1)),
        "ns");
  const auto pub = tr.step_durations_us("publisher.publish");
  m.put("publisher.publish_us_p50", quantile(pub, 0.5), "us");
  m.put("publisher.publish_us_p99", quantile(pub, 0.99), "us");
  m.put("publisher.snapshot_bytes", static_cast<double>(ls.snapshot_bytes), "B");
  m.put("publisher.retired_pending_max", static_cast<double>(ls.retired_pending_max), "count");
  const auto call = tr.step_durations_us("service.call");
  m.put("service.call_ms_p50", quantile(call, 0.5) * 1e-3, "ms");
  m.put("service.call_ms_p99", quantile(call, 0.99) * 1e-3, "ms");
  m.put("service.busy_cores", median(ls.call_busy_cores), "cores");
  m.put("service.dispatch_us", median(ls.dispatch_us), "us");
}

void put_zero(Metrics& m, std::initializer_list<std::pair<const char*, const char*>> names) {
  for (const auto& [name, unit] : names) m.put(name, 0.0, unit);
}

void put_no_store(Metrics& m) {
  put_zero(m, {{"store.placement_ns_per_op", "ns"}, {"store.digest_ns_per_key", "ns"},
               {"store.route_ns_per_op", "ns"}, {"store.subqueries_per_op", "count"},
               {"store.failovers_per_op", "count"}, {"store.outcome.ok", "ratio"},
               {"store.outcome.lost", "ratio"}, {"store.outcome.stale", "ratio"},
               {"store.outcome.quorum_fail", "ratio"}, {"store.forget_us", "us"},
               {"store.deliver_hints_us", "us"}, {"store.repair_sweep_ms", "ms"},
               {"store.sim_latency_ms_p50", "ms"}, {"store.sim_latency_ms_p99", "ms"}});
}

/// Step 4's service call, timed inside the step clock. When tracing, also
/// records the call's wall time and the CPU share it used.
template <typename Call>
auto service_call(Tracer& tr, StepClock& clock, LayerSamples& ls, Call&& call) {
  auto sp = tr.span("service.call");
  const double w0 = wall_s();
  const double c0 = cpu_s();
  clock.begin();
  auto stats = call();
  clock.end();
  if (tr.enabled()) {
    ls.last_call_s = wall_s() - w0;
    ls.call_busy_cores.push_back((cpu_s() - c0) / ls.last_call_s);
  }
  return stats;
}

/// Worker-count scaling rungs of the routing service layer: plain services
/// with 1, 2 and 4 workers over the workload's publisher.
struct ScalingRungs {
  std::unique_ptr<p2p::service::RoutingService> w1, w2, w4;

  void build(p2p::service::ViewPublisher& pub) {
    auto make = [&](std::size_t workers) {
      p2p::service::ServiceConfig c;
      c.workers = workers;
      c.router = backtrack_router();
      return std::make_unique<p2p::service::RoutingService>(pub, c);
    };
    w1 = make(1);
    w2 = make(2);
    w4 = make(kMaxThreads);
  }
  void probe(std::span<const p2p::core::Query> q,
             std::span<const p2p::core::RouteResult> reference, LayerSamples& ls, Tracer& tr) {
    std::vector<p2p::core::RouteResult> res(q.size());
    auto run = [&](p2p::service::RoutingService& svc, const char* name) {
      auto sp = tr.span(name);
      const double t0 = wall_s();
      svc.route_all(q, res);
      const double dt = wall_s() - t0;
      check_same(reference, res, name);
      return dt;
    };
    const double t1 = run(*w1, "probe.service.w1");
    ls.scaling_w2.push_back(t1 / run(*w2, "probe.service.w2"));
    ls.scaling_w4.push_back(t1 / run(*w4, "probe.service.w4"));
  }
  void reset() { w1.reset(), w2.reset(), w4.reset(); }
};

/// lookup and flap: a routing service over one publisher. They differ in the
/// overlay, the churn, the query draw and the service frontend.
class RoutingWorkload : public Workload {
 public:
  void check_registry() override {
    const auto snap = registry_->snapshot();
    check(snap.counter_or("service.route.queries") == routed_, "registry: service.route.queries");
    check(snap.counter_or("service.route.delivered") == delivered_,
          "registry: service.route.delivered");
    check(snap.counter_or("service.route.hops") == hops_, "registry: service.route.hops");
    check(snap.counter_or("publisher.publications") == publishes_,
          "registry: publisher.publications");
  }

  void layer_metrics(const Tracer& tr, Metrics& m) override {
    put_common_layers(tr, ls_, graph_->size(), graph_->memory_bytes(), flips_per_epoch(), m);
    put_routing_probes(ls_, m, false);
    put_no_store(m);
  }

 protected:
  RoutingWorkload(std::uint64_t seed, std::size_t workers, std::size_t batch, std::uint64_t nodes)
      : seed_(seed), workers_(workers), batch_(batch), spec_(ring_spec(nodes)) {}

  virtual p2p::service::ServiceStats route_all(std::span<const p2p::core::Query> q,
                                               std::span<p2p::core::RouteResult> r) = 0;
  [[nodiscard]] virtual double flips_per_epoch() const = 0;

  /// Creates the telemetry registry when `wired`; call before the service.
  void wire(bool wired) {
    if (!wired) return;
    registry_ = std::make_unique<p2p::telemetry::Registry>(workers_ + 1);
    svc_tel_ = p2p::service::ServiceTelemetry::create(*registry_);
    pub_metrics_ = p2p::service::PublisherMetrics::create(*registry_);
  }
  [[nodiscard]] const p2p::service::ServiceTelemetry* service_telemetry() const {
    return registry_ ? &svc_tel_ : nullptr;
  }

  /// Binds the built overlay and publisher, and starts the churn log.
  void attach(p2p::service::ViewPublisher* pub, const p2p::graph::OverlayGraph* g,
              std::uint64_t build_seed) {
    pub_ = pub;
    graph_ = g;
    build_seed_ = build_seed;
    if (registry_) pub_->attach_telemetry(registry_->recorder(workers_), pub_metrics_);
    log_ = std::make_unique<p2p::churn::ChurnLog>(pub_->writer_view());
    queries_.resize(batch_);
    results_.resize(batch_);
  }

  /// Step 4 and the checks: routes the drawn queries, checks every result
  /// lands in exactly one outcome bucket, then runs the probes if asked.
  void call_and_check(Tracer& tr, StepClock& clock, Totals& t, bool probe) {
    const auto st =
        service_call(tr, clock, ls_, [&] { return route_all(queries_, results_); });
    clock.finish(t);
    {
      auto sp = tr.span("bench.check");
      check_results(results_, st, t, true);
    }
    if (probe) run_probes(tr);
  }

  /// Drops the probe state; must run while the publisher is alive.
  void drop_probes() {
    rungs_.reset();
    reader_ = {};
    twin_.reset();
  }
  /// Drops what attach() and wire() made; after the service and publisher.
  void drop_routing() {
    log_.reset();
    registry_.reset();
    ls_ = {};
    step_index_ = publishes_ = routed_ = delivered_ = hops_ = 0;
  }

  std::uint64_t seed_;
  std::size_t workers_;
  std::size_t batch_;
  p2p::graph::BuildSpec spec_;
  std::unique_ptr<Gen> gen_;
  p2p::service::ViewPublisher* pub_ = nullptr;
  const p2p::graph::OverlayGraph* graph_ = nullptr;
  std::unique_ptr<p2p::churn::ChurnLog> log_;
  std::vector<p2p::core::Query> queries_;
  std::vector<p2p::core::RouteResult> results_;

 private:
  /// Every lookup ends in exactly one bucket: delivered, stuck or ttl.
  void check_results(std::span<const p2p::core::RouteResult> res,
                     const p2p::service::ServiceStats& st, Totals& t, bool count_ops) {
    using Status = p2p::core::RouteResult::Status;
    const std::uint64_t epoch = pub_->writer_view().epoch();
    const std::size_t n = res.size();
    std::size_t delivered = 0, stuck = 0, ttl = 0;
    for (const auto& r : res) {
      switch (r.status) {
        case Status::kDelivered: ++delivered; break;
        case Status::kStuck: ++stuck; break;
        case Status::kTtlExpired: ++ttl; break;
      }
      check(r.completion_epoch == epoch, "result routed against an unpublished epoch");
      if (count_ops) t.add_op(r.hops, r.status != Status::kDelivered);
      hops_ += r.hops;
    }
    check(delivered + stuck + ttl == n, "lookup outcome buckets do not sum");
    check(st.routed == n, "service routed fewer queries than submitted");
    check(st.delivered == delivered, "service delivered count disagrees with results");
    routed_ += n;
    delivered_ += delivered;
  }

  /// The probes of one step: core rungs on its queries and pinned snapshot,
  /// service efficiency and scaling, and one-query calls for dispatch cost.
  void run_probes(Tracer& tr) {
    if (!twin_.graph) {
      twin_.build(spec_, build_seed_, *log_, ls_, tr);
      reader_ = pub_->make_reader();
      rungs_.build(*pub_);
    }
    const p2p::service::ViewSnapshot* snap = reader_.pin();
    const double batch_s = probe_core(*graph_, snap->view, twin_, *log_, backtrack_router(),
                                      queries_, results_, ls_, tr);
    reader_.unpin();
    ls_.efficiency.push_back(batch_s / (ls_.last_call_s * static_cast<double>(workers_)));
    rungs_.probe(queries_, results_, ls_, tr);
    // One-query calls on the batch's first queries: the service's per-call
    // dispatch cost, and each must reproduce its batch answer.
    std::vector<p2p::core::RouteResult> one(1);
    for (std::size_t i = 0; i < 32; ++i) {
      p2p::service::ServiceStats st;
      {
        auto sp = tr.span("probe.service.dispatch");
        const double t0 = wall_s();
        st = route_all(std::span(queries_).subspan(i, 1), one);
        ls_.dispatch_us.push_back((wall_s() - t0) * 1e6);
      }
      check(same_result(results_[i], one[0]), "one-query call differs from the batch");
      Totals unused;
      check_results(one, st, unused, false);
    }
  }

  std::uint64_t build_seed_ = 0;
  std::unique_ptr<p2p::telemetry::Registry> registry_;
  p2p::service::ServiceTelemetry svc_tel_;
  p2p::service::PublisherMetrics pub_metrics_;
  std::uint64_t routed_ = 0, delivered_ = 0, hops_ = 0;
  CompactTwin twin_;
  p2p::service::Reader reader_;
  ScalingRungs rungs_;
};

// lookup: large overlay, node churn, big batches through the sharded service.
class LookupWorkload final : public RoutingWorkload {
 public:
  static constexpr std::uint64_t kNodes = 1'000'000;
  static constexpr double kDeadFrac = 0.10;
  static constexpr std::size_t kFlipsPerStep = 100;  // 0.01% of nodes

  explicit LookupWorkload(std::uint64_t seed) : RoutingWorkload(seed, kMaxThreads, 65536, kNodes) {}
  ~LookupWorkload() override { teardown(); }

  void setup(Tracer& tr, bool wired) override {
    teardown();
    gen_ = std::make_unique<Gen>(mix64(seed_ ^ 0x6c6f6f6b7570ULL));
    wire(wired);
    p2p::service::ShardedConfig cfg;
    cfg.seed = mix64(seed_);
    cfg.topology = p2p::service::NumaTopology::single(kMaxThreads);
    cfg.service.router = backtrack_router();
    cfg.service.telemetry = service_telemetry();
    {
      auto sp = tr.span("graph.build");
      svc_ = std::make_unique<p2p::service::ShardedRoutingService>(spec_, cfg);
    }
    check(svc_->shard_count() == 1, "lookup expects one shard");
    const auto& shard = svc_->shard(0);
    attach(shard.publisher.get(), shard.graph.get(),
           p2p::service::ShardedRoutingService::shard_seed(cfg.seed, 0));
    members_ = std::make_unique<Membership>(kNodes);
    {
      auto sp = tr.span("churn.stage");
      stage_dead_set(*log_, *members_, *gen_,
                     static_cast<std::size_t>(kDeadFrac * static_cast<double>(kNodes)));
    }
    {
      auto sp = tr.span("failure.apply");
      pub_->writer_view().apply(log_->delta(0));
    }
    publish(*pub_, tr, ls_, publishes_);
  }

  void teardown() override {
    drop_probes();
    svc_.reset();
    drop_routing();
    flips_.clear();
  }

  [[nodiscard]] std::size_t warmup_steps() const override { return 8; }
  [[nodiscard]] int setup_reps() const override { return 3; }
  [[nodiscard]] std::size_t sample_steps() const override { return 64; }

  void step(Tracer& tr, Totals& t, bool probe) override {
    StepClock clock;
    const double when = static_cast<double>(++step_index_);
    clock.begin();
    {
      auto sp = tr.span("churn.stage");
      stage_node_churn(*log_, *members_, *gen_, kFlipsPerStep / 2, when);
    }
    const auto& delta = log_->delta(log_->size() - 1);
    {
      auto sp = tr.span("failure.apply");
      pub_->writer_view().apply(delta);
    }
    if (tr.enabled()) ls_.flips_applied += delta.change_count();
    flips_.push_back(static_cast<double>(delta.change_count()));
    publish(*pub_, tr, ls_, publishes_);
    clock.end();
    {
      auto sp = tr.span("bench.draw");
      for (auto& q : queries_) {
        q.src = members_->random_alive(*gen_);
        q.target = graph_->position(members_->random_alive(*gen_));
      }
    }
    call_and_check(tr, clock, t, probe);
  }

  void churn_check() const override {
    report_churn("lookup node churn", static_cast<double>(kFlipsPerStep), median(flips_));
  }

 private:
  p2p::service::ServiceStats route_all(std::span<const p2p::core::Query> q,
                                       std::span<p2p::core::RouteResult> r) override {
    return svc_->route_all(q, r);
  }
  [[nodiscard]] double flips_per_epoch() const override { return median(flips_); }

  std::unique_ptr<p2p::service::ShardedRoutingService> svc_;
  std::unique_ptr<Membership> members_;
  std::vector<double> flips_;
};

// flap: small overlay whose long links flap; the write side does the work.
class FlapWorkload final : public RoutingWorkload {
 public:
  static constexpr std::uint64_t kNodes = 100'000;
  static constexpr double kFlapFrac = 0.05;
  static constexpr std::size_t kEpochs = 32;

  // 131,072 lookups per step, not the 4,096 a per-call cost study would
  // pick: with 2-3 ms steps, host preemption of a worker set the step-time
  // tail (p99 up to 3x p50, a 65% spread over ten seeds; p95 still spread
  // 22% at 65,536). service.dispatch_us keeps measuring the per-call cost.
  explicit FlapWorkload(std::uint64_t seed) : RoutingWorkload(seed, 3, 131072, kNodes) {}
  ~FlapWorkload() override { teardown(); }

  void setup(Tracer& tr, bool wired) override {
    teardown();
    gen_ = std::make_unique<Gen>(mix64(seed_ ^ 0x666c6170ULL));
    wire(wired);
    const std::uint64_t build_seed = mix64(seed_);
    {
      auto sp = tr.span("graph.build");
      p2p::util::ThreadPool pool(kMaxThreads);
      p2p::util::Rng rng(build_seed);
      own_graph_ = std::make_unique<p2p::graph::OverlayGraph>(
          p2p::graph::build_overlay(spec_, rng, pool));
    }
    own_pub_ = std::make_unique<p2p::service::ViewPublisher>(
        p2p::failure::FailureView::all_alive(*own_graph_));
    attach(own_pub_.get(), own_graph_.get(), build_seed);
    {
      auto sp = tr.span("churn.stage");
      stage_schedule();
    }
    p2p::service::ServiceConfig cfg;
    cfg.workers = workers_;
    cfg.router = backtrack_router();
    cfg.seed = mix64(build_seed);
    cfg.telemetry = service_telemetry();
    svc_ = std::make_unique<p2p::service::RoutingService>(*own_pub_, cfg);
  }

  void teardown() override {
    drop_probes();
    svc_.reset();
    own_pub_.reset();
    drop_routing();
    own_graph_.reset();
  }

  /// One forward-and-back pass over the schedule.
  [[nodiscard]] std::size_t warmup_steps() const override { return 2 * kEpochs; }
  [[nodiscard]] int setup_reps() const override { return 3; }
  [[nodiscard]] std::size_t sample_steps() const override { return 2 * kEpochs; }

  void step(Tracer& tr, Totals& t, bool probe) override {
    StepClock clock;
    // Forward through the schedule, then back to epoch 0, and again.
    const std::size_t pos = step_index_++ % (2 * kEpochs);
    clock.begin();
    const bool forward = pos < kEpochs;
    const auto& delta = log_->delta(forward ? pos : 2 * kEpochs - 1 - pos);
    {
      auto sp = tr.span("failure.apply");
      if (forward) {
        pub_->writer_view().apply(delta);
      } else {
        pub_->writer_view().revert(delta);
      }
    }
    if (tr.enabled()) ls_.flips_applied += delta.change_count();
    publish(*pub_, tr, ls_, publishes_);
    clock.end();
    {
      auto sp = tr.span("bench.draw");
      for (auto& q : queries_) {
        q.src = static_cast<NodeId>(gen_->below(kNodes));
        q.target = graph_->position(static_cast<NodeId>(gen_->below(kNodes)));
      }
    }
    call_and_check(tr, clock, t, probe);
  }

  void churn_check() const override {
    report_churn("flap long links", requested_flips_, realized_flips_);
  }

 private:
  p2p::service::ServiceStats route_all(std::span<const p2p::core::Query> q,
                                       std::span<p2p::core::RouteResult> r) override {
    return svc_->route_all(q, r);
  }
  [[nodiscard]] double flips_per_epoch() const override { return realized_flips_; }

  /// Epoch e revives epoch e-1's flapped long links and kills a fresh,
  /// independently drawn kFlapFrac of all long-link slots; short links never
  /// fail (§4.3.3). A slot drawn in two consecutive epochs is revived and
  /// killed in one batch, which the log drops as a no-op.
  void stage_schedule() {
    const p2p::graph::OverlayGraph& g = *graph_;
    const double log_keep = std::log1p(-kFlapFrac);
    auto gap = [&] {
      return static_cast<std::uint64_t>(std::floor(std::log1p(-gen_->unit()) / log_keep));
    };
    std::vector<std::pair<NodeId, std::uint32_t>> prev, fresh;
    double requested = 0.0, realized = 0.0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (const auto& [u, i] : prev) log_->revive_link(u, i);
      fresh.clear();
      std::uint64_t skip = gap();
      for (NodeId u = 0; u < g.size(); ++u) {
        const std::size_t sd = g.short_degree(u);
        const std::uint64_t longs = g.out_degree(u) - sd;
        std::uint64_t at = 0;
        while (skip < longs - at) {
          at += skip;
          fresh.emplace_back(u, static_cast<std::uint32_t>(sd + at));
          ++at;
          skip = gap();
        }
        skip -= longs - at;
      }
      for (const auto& [u, i] : fresh) log_->kill_link(u, i);
      log_->commit(static_cast<double>(e));
      if (e > 0) {
        requested += static_cast<double>(prev.size() + fresh.size());
        realized += static_cast<double>(log_->delta(e).change_count());
      }
      prev.swap(fresh);
    }
    requested_flips_ = requested / static_cast<double>(kEpochs - 1);
    realized_flips_ = realized / static_cast<double>(kEpochs - 1);
  }

  std::unique_ptr<p2p::graph::OverlayGraph> own_graph_;
  std::unique_ptr<p2p::service::ViewPublisher> own_pub_;
  std::unique_ptr<p2p::service::RoutingService> svc_;
  double requested_flips_ = 0.0, realized_flips_ = 0.0;
};

// store: quorum-replicated objects over a cache-resident overlay.
class StoreWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kNodes = 100'000;
  static constexpr double kDeadFrac = 0.01;
  static constexpr std::size_t kFlipsPerStep = 50;  // 0.05% of nodes
  static constexpr std::size_t kKeys = 100'000;
  static constexpr double kZipf = 0.99;
  static constexpr double kGetFrac = 0.70;
  // 16,384 ops per step, not 4,096: with ~7 ms steps the step-time tail was
  // the host's (p95 spread 46% over ten seeds).
  static constexpr std::size_t kBatch = 16384;
  static constexpr std::size_t kWorkers = 3;
  static constexpr std::uint64_t kRepairEvery = 64;

  explicit StoreWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tr, bool wired) override {
    teardown();
    gen_ = std::make_unique<Gen>(mix64(seed_ ^ 0x73746f7265ULL));
    if (wired) {
      registry_ = std::make_unique<p2p::telemetry::Registry>(kWorkers + 1);
      store_metrics_ = p2p::store::StoreMetrics::create(*registry_);
      pub_metrics_ = p2p::service::PublisherMetrics::create(*registry_);
    }
    {
      auto sp = tr.span("graph.build");
      p2p::util::ThreadPool pool(kMaxThreads);
      p2p::util::Rng rng(mix64(seed_));
      graph_ = std::make_unique<p2p::graph::OverlayGraph>(
          p2p::graph::build_overlay(ring_spec(kNodes), rng, pool));
    }
    pub_ = std::make_unique<p2p::service::ViewPublisher>(
        p2p::failure::FailureView::all_alive(*graph_));
    if (wired) {
      writer_telem_ = {registry_->recorder(kWorkers), store_metrics_};
      pub_->attach_telemetry(writer_telem_.recorder, pub_metrics_);
    }
    log_ = std::make_unique<p2p::churn::ChurnLog>(pub_->writer_view());
    members_ = std::make_unique<Membership>(kNodes);
    {
      auto sp = tr.span("churn.stage");
      stage_dead_set(*log_, *members_, *gen_,
                     static_cast<std::size_t>(kDeadFrac * static_cast<double>(kNodes)));
    }
    {
      auto sp = tr.span("failure.apply");
      pub_->writer_view().apply(log_->delta(0));
    }
    publish(*pub_, tr, ls_, publishes_);
    {
      auto sp = tr.span("store.preload");
      keys_.clear();
      keys_.reserve(kKeys);
      for (std::size_t i = 0; i < kKeys; ++i) {
        char buf[24];
        std::snprintf(buf, sizeof buf, "obj-%012llx",
                      static_cast<unsigned long long>(gen_->next() >> 16));
        keys_.emplace_back(buf);
      }
      zipf_ = std::make_unique<Zipf>(kKeys, kZipf);
      rank_to_key_.resize(kKeys);
      for (std::size_t i = 0; i < kKeys; ++i) rank_to_key_[i] = i;
      for (std::size_t i = kKeys - 1; i > 0; --i) {
        std::swap(rank_to_key_[i], rank_to_key_[gen_->below(i + 1)]);
      }
      store_ = std::make_unique<p2p::store::QuorumStore>(*graph_, quorum_config());
      for (const std::string& k : keys_) {
        store_->install(pub_->writer_view(), k, make_value(k));
      }
    }
    p2p::service::StoreServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.router = backtrack_router();
    cfg.seed = mix64(seed_ ^ 1);
    cfg.registry = registry_.get();
    cfg.metrics = store_metrics_;
    svc_ = std::make_unique<p2p::service::StoreService>(*pub_, *store_, cfg);
    ops_.resize(kBatch);
    results_.resize(kBatch);
  }

  void teardown() override {
    twin_.reset();
    reader_ = {};
    svc_.reset();
    store_.reset();
    log_.reset();
    pub_.reset();
    registry_.reset();
    graph_.reset();
    writer_telem_ = {};
    ls_ = {};
    flips_.clear();
    step_index_ = publishes_ = subqueries_ = 0;
  }

  /// Two repair periods: replica damage from churn reaches its steady state.
  [[nodiscard]] std::size_t warmup_steps() const override { return 2 * kRepairEvery; }
  [[nodiscard]] int setup_reps() const override { return 7; }
  [[nodiscard]] std::size_t sample_steps() const override { return 4 * kRepairEvery; }

  void step(Tracer& tr, Totals& t, bool probe) override {
    StepClock clock;
    const double when = static_cast<double>(++step_index_);
    clock.begin();
    std::vector<NodeId> killed;
    {
      auto sp = tr.span("churn.stage");
      killed = stage_node_churn(*log_, *members_, *gen_, kFlipsPerStep / 2, when);
    }
    const auto& delta = log_->delta(log_->size() - 1);
    {
      // Crash amnesia: a killed node loses its replicas before it is marked
      // dead, and a revived node comes back empty.
      auto sp = tr.span("store.forget");
      for (const NodeId u : killed) store_->forget(u);
    }
    {
      auto sp = tr.span("failure.apply");
      pub_->writer_view().apply(delta);
    }
    if (tr.enabled()) ls_.flips_applied += delta.change_count();
    flips_.push_back(static_cast<double>(delta.change_count()));
    publish(*pub_, tr, ls_, publishes_);
    clock.end();
    {
      auto sp = tr.span("bench.draw");
      for (auto& op : ops_) {
        const bool get = gen_->unit() < kGetFrac;
        op.type = get ? p2p::store::OpType::kGet : p2p::store::OpType::kPut;
        op.client = members_->random_alive(*gen_);
        op.key = keys_[rank_to_key_[zipf_->sample(*gen_)]];
        if (get) {
          op.value.clear();
        } else {
          op.value = make_value(op.key);
        }
      }
    }
    const auto st = service_call(tr, clock, ls_, [&] { return svc_->run_all(ops_, results_); });
    clock.begin();
    {
      auto sp = tr.span("store.deliver_hints");
      store_->deliver_hints(pub_->writer_view(), writer_telem_);
    }
    if (step_index_ % kRepairEvery == 0) {
      auto sp = tr.span("store.repair_sweep");
      store_->repair_sweep(pub_->writer_view(), writer_telem_);
    }
    clock.end();
    clock.finish(t);
    {
      auto sp = tr.span("bench.check");
      check_ops(st, t, tr.enabled());
    }
    if (probe) run_probes(tr);
  }

  void check_registry() override {
    const auto snap = registry_->snapshot();
    check(snap.counter_or("store.subqueries") == subqueries_, "registry: store.subqueries");
    check(snap.counter_or("publisher.publications") == publishes_,
          "registry: publisher.publications");
  }

  void layer_metrics(const Tracer& tr, Metrics& m) override {
    put_common_layers(tr, ls_, kNodes, graph_->memory_bytes(), median(flips_), m);
    put_routing_probes(ls_, m, true);
    put_zero(m, {{"service.efficiency", "ratio"},
                 {"service.scaling.w2", "x"},
                 {"service.scaling.w4", "x"}});
    const double ops = static_cast<double>(std::max<std::uint64_t>(
        ls_.store_ok + ls_.store_lost + ls_.store_stale + ls_.store_quorum_fail, 1));
    m.put("store.placement_ns_per_op", median(ls_.placement_ns), "ns");
    m.put("store.digest_ns_per_key", median(ls_.digest_ns), "ns");
    m.put("store.route_ns_per_op", median(ls_.route_ns_per_op), "ns");
    m.put("store.subqueries_per_op", static_cast<double>(ls_.subqueries) / ops, "count");
    m.put("store.failovers_per_op", static_cast<double>(ls_.failovers) / ops, "count");
    m.put("store.outcome.ok", static_cast<double>(ls_.store_ok) / ops, "ratio");
    m.put("store.outcome.lost", static_cast<double>(ls_.store_lost) / ops, "ratio");
    m.put("store.outcome.stale", static_cast<double>(ls_.store_stale) / ops, "ratio");
    m.put("store.outcome.quorum_fail", static_cast<double>(ls_.store_quorum_fail) / ops,
          "ratio");
    m.put("store.forget_us", median(tr.step_durations_us("store.forget")), "us");
    m.put("store.deliver_hints_us", median(tr.step_durations_us("store.deliver_hints")), "us");
    m.put("store.repair_sweep_ms", median(tr.step_durations_us("store.repair_sweep")) * 1e-3,
          "ms");
    m.put("store.sim_latency_ms_p50", quantile(ls_.sim_latency_ms, 0.5), "ms");
    m.put("store.sim_latency_ms_p99", quantile(ls_.sim_latency_ms, 0.99), "ms");
  }

  void churn_check() const override {
    report_churn("store node churn", static_cast<double>(kFlipsPerStep), median(flips_));
  }

 private:
  static p2p::store::QuorumConfig quorum_config() {
    p2p::store::QuorumConfig q;
    q.k = 3;
    q.r = 2;
    q.w = 2;
    return q;
  }

  /// 16-byte values that verify themselves against their key: 8 hex digits
  /// of a nonce, then 8 of a check word over (key, nonce).
  static std::uint32_t check_word(std::string_view key, std::uint32_t nonce) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : key) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return static_cast<std::uint32_t>(mix64(h ^ nonce) >> 32);
  }
  std::string make_value(std::string_view key) {
    const auto nonce = static_cast<std::uint32_t>(gen_->next());
    char buf[20];
    std::snprintf(buf, sizeof buf, "%08x%08x", nonce, check_word(key, nonce));
    return std::string(buf, 16);
  }
  static bool value_matches(std::string_view key, std::string_view v) {
    std::uint32_t nonce = 0, word = 0;
    return v.size() == 16 &&
           std::from_chars(v.data(), v.data() + 8, nonce, 16).ptr == v.data() + 8 &&
           std::from_chars(v.data() + 8, v.data() + 16, word, 16).ptr == v.data() + 16 &&
           word == check_word(key, nonce);
  }

  /// Every op ends in exactly one bucket: ok, lost, stale or quorum_fail.
  /// Every key is preloaded, so a get that reached its read quorum and found
  /// no copy lost the object.
  void check_ops(const p2p::service::StoreServiceStats& st, Totals& t, bool traced) {
    check(st.completed == ops_.size(), "store service completed fewer ops than submitted");
    std::size_t ok = 0, lost = 0, stale = 0, quorum_fail = 0, quorum = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const p2p::store::Op& op = ops_[i];
      const p2p::store::OpResult& r = results_[i];
      quorum += r.ok ? 1 : 0;
      subqueries_ += r.subqueries;
      bool failed = true;
      if (!r.ok) {
        ++quorum_fail;
      } else if (op.type == p2p::store::OpType::kPut) {
        check(r.acks >= quorum_config().w && r.version.seq > 0,
              "put reported ok without a write quorum");
        ++ok;
        failed = false;
      } else if (!r.found) {
        ++lost;
      } else {
        check(value_matches(op.key, r.value), "get returned a value not written to its key");
        if (r.stale) {
          ++stale;
        } else {
          ++ok;
          failed = false;
        }
      }
      t.add_op(r.hops, failed);
      if (traced) {
        ls_.subqueries += r.subqueries;
        ls_.failovers += r.failovers;
        ls_.sim_latency_ms.push_back(r.latency_ms);
      }
    }
    check(ok + lost + stale + quorum_fail == ops_.size(), "store outcome buckets do not sum");
    check(quorum == st.ok, "store service ok count disagrees with results");
    if (traced) {
      ls_.store_ok += ok;
      ls_.store_lost += lost;
      ls_.store_stale += stale;
      ls_.store_quorum_fail += quorum_fail;
    }
  }

  /// Store-layer rungs on this step's ops and the snapshot they ran against:
  /// key hashing, replica placement, and the routed sub-queries to each
  /// op's first-wave replicas (which also feed the core rungs).
  void run_probes(Tracer& tr) {
    if (!twin_.graph) {
      twin_.build(ring_spec(kNodes), mix64(seed_), *log_, ls_, tr);
      reader_ = pub_->make_reader();
    }
    const p2p::service::ViewSnapshot* snap = reader_.pin();
    const p2p::failure::FailureView& view = snap->view;
    const auto nops = static_cast<double>(ops_.size());
    std::vector<std::uint64_t> digests(ops_.size());
    {
      auto sp = tr.span("probe.store.digest");
      const double t0 = wall_s();
      for (std::size_t i = 0; i < ops_.size(); ++i) digests[i] = p2p::dht::key_digest(ops_[i].key);
      ls_.digest_ns.push_back((wall_s() - t0) * 1e9 / nops);
    }
    const p2p::store::QuorumConfig q = quorum_config();
    const std::size_t want = q.k + q.max_failovers;
    std::vector<NodeId> cand(ops_.size() * want);
    {
      auto sp = tr.span("probe.store.placement");
      const double t0 = wall_s();
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        const auto p = static_cast<p2p::metric::Point>(digests[i] % graph_->space().size());
        p2p::store::nearest_live(view, p, want, std::span(cand).subspan(i * want, want));
      }
      ls_.placement_ns.push_back((wall_s() - t0) * 1e9 / nops);
    }
    std::vector<p2p::core::Query> sub;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const std::size_t fanout = ops_[i].type == p2p::store::OpType::kPut ? q.k : q.r;
      for (std::size_t j = 0; j < fanout; ++j) {
        sub.push_back({ops_[i].client, graph_->position(cand[i * want + j])});
      }
    }
    std::vector<p2p::core::RouteResult> ref(sub.size());
    {
      auto sp = tr.span("probe.store.route");
      const p2p::core::Router router(*graph_, view, backtrack_router());
      p2p::util::Rng rng(3);
      const double t0 = wall_s();
      router.route_batch(sub, ref, rng);
      ls_.route_ns_per_op.push_back((wall_s() - t0) * 1e9 / nops);
    }
    probe_core(*graph_, view, twin_, *log_, backtrack_router(), sub, ref, ls_, tr);
    reader_.unpin();
    // One-op calls through the service: its per-call dispatch cost.
    std::vector<p2p::store::OpResult> one(1);
    for (std::size_t i = 0; i < 32; ++i) {
      p2p::store::Op op = ops_[i];
      op.type = p2p::store::OpType::kGet;
      op.value.clear();
      auto sp = tr.span("probe.service.dispatch");
      const double t0 = wall_s();
      svc_->run_all(std::span(&op, 1), one);
      ls_.dispatch_us.push_back((wall_s() - t0) * 1e6);
      subqueries_ += one[0].subqueries;
    }
  }

  std::uint64_t seed_;
  std::unique_ptr<Gen> gen_;
  std::unique_ptr<p2p::telemetry::Registry> registry_;
  p2p::store::StoreMetrics store_metrics_;
  p2p::service::PublisherMetrics pub_metrics_;
  p2p::store::StoreTelemetry writer_telem_;
  std::unique_ptr<p2p::graph::OverlayGraph> graph_;
  std::unique_ptr<p2p::service::ViewPublisher> pub_;
  std::unique_ptr<p2p::churn::ChurnLog> log_;
  std::unique_ptr<Membership> members_;
  std::unique_ptr<p2p::store::QuorumStore> store_;
  std::unique_ptr<p2p::service::StoreService> svc_;
  std::vector<std::string> keys_;
  std::vector<std::size_t> rank_to_key_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<p2p::store::Op> ops_;
  std::vector<p2p::store::OpResult> results_;
  std::vector<double> flips_;
  std::uint64_t subqueries_ = 0;
  CompactTwin twin_;
  p2p::service::Reader reader_;
};

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    check(i + 1 < argc, "missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      fail("unknown argument " + key);
    }
  }
  check(a.workload == "lookup" || a.workload == "store" || a.workload == "flap",
        "--workload must be lookup, store or flap");
  check(a.seconds > 0, "--seconds must be positive");
  return a;
}

/// Runs measured steps until `seconds` of the loop's own time (probes
/// excluded) have passed.
void run_window(Workload& w, Tracer& tr, Totals& t, double seconds, std::size_t probe_every,
                  std::size_t max_probes) {
  const double t0 = wall_s();
  double probe_s = 0.0;
  std::size_t probes = 0;
  for (std::int64_t s = 0;; ++s) {
    if (wall_s() - t0 - probe_s >= seconds) return;
    tr.set_step(s);
    const bool probe = probe_every != 0 && probes < max_probes && s % probe_every == 1;
    if (!probe) {
      w.step(tr, t, false);
      continue;
    }
    // The probe runs after the step's system work; time it out of the window.
    const std::size_t steps_before = t.step_ms.size();
    const double s0 = wall_s();
    w.step(tr, t, true);
    const double step_s = t.step_ms.size() > steps_before ? t.step_ms.back() * 1e-3 : 0.0;
    probe_s += std::max(0.0, wall_s() - s0 - step_s);
    ++probes;
  }
}

void warm_up(Workload& w, Tracer& tr) {
  Totals discard;
  for (std::size_t i = 0; i < w.warmup_steps(); ++i) {
    tr.set_step(-2);
    w.step(tr, discard, false);
  }
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "lookup") return std::make_unique<LookupWorkload>(a.seed);
  if (a.workload == "store") return std::make_unique<StoreWorkload>(a.seed);
  return std::make_unique<FlapWorkload>(a.seed);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a);
  Tracer off;
  std::vector<double> setups;
  for (int r = 0; r < (a.trace ? 1 : w->setup_reps()); ++r) {
    // Hand the previous set-up's memory back first, so peak RSS is one
    // set-up's peak and not an accident of allocator reuse.
    w->teardown();
    malloc_trim(0);
    const double t0 = wall_s();
    w->setup(off, false);
    setups.push_back(wall_s() - t0);
  }
  warm_up(*w, off);
  Totals t;
  t.sample_steps = w->sample_steps();
  // A traced run needs this untraced window only as the base of
  // trace.overhead_frac, so it runs half as long.
  run_window(*w, off, t, a.trace ? a.seconds / 2 : a.seconds, 0, 0);
  w->churn_check();
  check(t.ops > 0, "no operation completed");
  const double ops_per_s = static_cast<double>(t.ops) / t.step_wall_s;
  std::printf("%s: %zu steps, %llu ops; set-up runs (s):", a.workload.c_str(), t.step_ms.size(),
              static_cast<unsigned long long>(t.ops));
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf("\n");
  std::printf("step_ms: %zu samples (p95 rests on the %.0f slowest)\n", t.step_ms.size(),
              std::floor(0.05 * static_cast<double>(t.step_ms.size())));
  std::printf("outcome sample: first %zu steps, %llu of %llu ops failed "
              "(not delivered / lost / stale / quorum_fail)\n",
              std::min(t.sample_steps, t.step_ms.size()),
              static_cast<unsigned long long>(t.sample_failed),
              static_cast<unsigned long long>(t.sample_ops));

  Metrics m;
  if (!a.trace) {
    const double n = static_cast<double>(t.ops);
    const double sample = static_cast<double>(t.sample_ops);
    m.put("setup_s", median(setups), "s");
    m.put("ops_per_s", ops_per_s, "ops/s");
    m.put("step_ms_p50", quantile(t.step_ms, 0.5), "ms");
    // p95, not p99: lookup and flap run only 300-900 steps, so p99 would
    // rest on fewer than ten samples and read the host's preemptions.
    m.put("step_ms_p95", quantile(t.step_ms, 0.95), "ms");
    // Jeffreys estimate of the failure rate: stays positive when no op of
    // the run failed (flap, whose short links never fail).
    m.put("failed_frac", (static_cast<double>(t.sample_failed) + 0.5) / (sample + 1.0),
          "ratio");
    m.put("msgs_per_op", static_cast<double>(t.sample_hops) / sample, "msgs");
    m.put("msgs_per_op_p99", t.hop_quantile(0.99), "msgs");
    m.put("cpu_us_per_op", t.step_cpu_s * 1e6 / n, "us");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    m.print_table();
    print_result(true, t.ops, 0, m);
    return 0;
  }

  // Traced run: rebuild with telemetry wired, spans on, probes on some steps.
  Tracer tr;
  tr.set_enabled(true);
  tr.set_step(-1);
  {
    auto sp = tr.span("setup");
    w->setup(tr, true);
  }
  tr.set_enabled(false);
  warm_up(*w, tr);
  tr.set_enabled(true);
  Totals traced;
  run_window(*w, tr, traced, a.seconds, 17, 4);
  w->check_registry();
  w->churn_check();
  const double traced_ops_per_s = static_cast<double>(traced.ops) / traced.step_wall_s;
  w->layer_metrics(tr, m);
  m.put("trace.overhead_frac", 1.0 - traced_ops_per_s / ops_per_s, "ratio");

  std::printf("self time by span (traced window and set-up):\n");
  for (const auto& [name, lt] : tr.self_times()) {
    std::printf("  %-34s n=%-7zu total %10.3f ms  self %10.3f ms\n", name.c_str(), lt.count,
                lt.total_ms, lt.self_ms);
  }
  m.print_table();
  if (!a.trace_out.empty()) tr.write_json(a.trace_out);
  print_result(true, traced.ops, 0, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    print_result(false, 1, 1, Metrics{});
    return 1;
  }
}
