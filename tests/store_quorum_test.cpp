// Quorum store (store/quorum_store.h): the replication state machine.
//  * W+R>k intersection: with static membership, every quorum read returns
//    the latest committed write — across a random interleaved put/get mix;
//  * versions are per-key monotonic and committed only on quorum;
//  * a timed-out write is lost in flight, not applied late;
//  * failover promotes standbys past dead primaries and hinted handoff
//    replays the write when the primary revives;
//  * crash amnesia + repair_sweep: a forgotten replica is re-filled from a
//    surviving holder, and a key with no surviving copy counts as lost;
//  * install/replica/latest_committed introspection, and run_batch
//    determinism (same inputs, fresh store -> bit-identical results);
//  * route once, then forward: an op's hops are its client -> primary route
//    plus one primary -> replica forward per other first-wave replica, and a
//    forward that does not arrive is retried from the client without a
//    failover or a hint;
//  * a pinned hash of one long single-worker history (ops, churn with
//    amnesia, hints, sweeps), so storage-layout changes stay bit-identical.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/router.h"
#include "dht/hash.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "store/placement.h"
#include "store/quorum_store.h"
#include "store/store_telemetry.h"
#include "telemetry/metric_registry.h"
#include "util/rng.h"

namespace p2p::store {
namespace {

using failure::FailureView;
using graph::NodeId;

graph::OverlayGraph ring_overlay(std::uint64_t n, std::uint64_t seed = 7) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = metric::Space1D::Kind::kRing;
  spec.long_links = 4;
  spec.bidirectional = true;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

core::RouterConfig robust_router() {
  core::RouterConfig cfg;
  cfg.stuck_policy = core::StuckPolicy::kBacktrack;
  return cfg;
}

std::vector<OpResult> run(QuorumStore& store, const FailureView& view,
                          std::span<const Op> ops, std::uint64_t seed = 77) {
  const core::Router router(store.graph(), view, robust_router());
  std::vector<OpResult> results(ops.size());
  store.run_batch(router, ops, results, seed);
  return results;
}

/// A single-shard registry with the store metrics on it.
struct StoreRegistry {
  telemetry::Registry reg{1};
  StoreTelemetry telem;
  StoreRegistry() {
    telem.metrics = StoreMetrics::create(reg);
    reg.seal();
    telem.recorder = reg.recorder(0);
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return reg.snapshot().counter_or(name);
  }
};

TEST(QuorumStore, ConfigValidation) {
  const auto g = ring_overlay(32);
  QuorumConfig bad;
  bad.r = 4;  // > k
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
  bad = QuorumConfig{};
  bad.w = 0;
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
  bad = QuorumConfig{};
  bad.k = kMaxReplicas;
  bad.r = bad.w = 1;
  bad.max_failovers = 1;  // k + max_failovers > kMaxReplicas
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
  bad = QuorumConfig{};
  bad.timeout_ms = 0.0;
  EXPECT_THROW(QuorumStore(g, bad), std::invalid_argument);
}

TEST(QuorumStore, InstallPlacesOnPrimariesAndCommits) {
  const auto g = ring_overlay(64);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  const Version v = store.install(view, "alpha", "payload");
  EXPECT_EQ(v.seq, 1u);
  ASSERT_TRUE(store.latest_committed("alpha").has_value());
  EXPECT_EQ(*store.latest_committed("alpha"), v);
  EXPECT_EQ(store.key_count(), 1u);

  const auto primaries = replica_set(
      view, dht::point_for_key("alpha", g.space()), store.config().k);
  for (const NodeId p : primaries) {
    const auto rep = store.replica(p, "alpha");
    ASSERT_TRUE(rep.has_value()) << "primary " << p;
    EXPECT_EQ(rep->first, v);
    EXPECT_EQ(rep->second, "payload");
  }
  EXPECT_FALSE(store.latest_committed("beta").has_value());
}

TEST(QuorumStore, QuorumReadSeesLatestCommittedWrite) {
  // W+R>k with static membership: the read set of any get intersects the
  // write set of the latest committed put, so reads are never stale.
  const auto g = ring_overlay(128);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);  // k=3, R=2, W=2

  util::Rng rng(13);
  std::map<std::string, std::string> expected;
  std::uint64_t counter = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<Op> ops;
    for (int j = 0; j < 24; ++j) {
      Op op;
      op.key = "key-" + std::to_string(rng.next_below(6));
      op.client = view.random_alive(rng);
      if (expected.empty() || rng.next_bool(0.5)) {
        op.type = OpType::kPut;
        op.value = "val-" + std::to_string(++counter);
      }
      ops.push_back(op);
    }
    const auto results = run(store, view, ops, 1000 + round);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const OpResult& res = results[i];
      ASSERT_TRUE(res.ok) << "op " << i << " lost quorum on a static view";
      if (op.type == OpType::kPut) {
        EXPECT_EQ(res.acks, store.config().k);
        expected[op.key] = op.value;
      } else {
        EXPECT_GE(res.responses, store.config().r);
        EXPECT_FALSE(res.stale);
        const auto want = expected.find(op.key);
        if (want != expected.end()) {
          ASSERT_TRUE(res.found);
          EXPECT_EQ(res.value, want->second);
        }
      }
    }
  }
}

TEST(QuorumStore, VersionsAreMonotonicPerKey) {
  const auto g = ring_overlay(64);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  std::uint64_t last_seq = 0;
  for (int i = 0; i < 5; ++i) {
    Op op;
    op.type = OpType::kPut;
    op.client = static_cast<NodeId>(i * 7);
    op.key = "mono";
    op.value = "v" + std::to_string(i);
    const auto results = run(store, view, std::span<const Op>(&op, 1), 50 + i);
    ASSERT_TRUE(results[0].ok);
    EXPECT_GT(results[0].version.seq, last_seq);
    last_seq = results[0].version.seq;
    EXPECT_EQ(store.latest_committed("mono")->seq, last_seq);
  }
  EXPECT_EQ(store.key_count(), 1u);
}

TEST(QuorumStore, TimedOutWriteIsLostNotApplied) {
  const auto g = ring_overlay(64);
  const auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.timeout_ms = 1e-6;  // every sub-query's latency exceeds this
  QuorumStore store(g, cfg);

  Op op;
  op.type = OpType::kPut;
  op.client = 1;
  op.key = "doomed";
  op.value = "never";
  const auto results = run(store, view, std::span<const Op>(&op, 1));
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].acks, 0u);
  // Failovers were attempted, then the op gave up.
  EXPECT_EQ(results[0].failovers, cfg.max_failovers);
  EXPECT_FALSE(store.latest_committed("doomed").has_value());
  const auto primaries = replica_set(
      view, dht::point_for_key("doomed", g.space()), cfg.k);
  for (const NodeId p : primaries) {
    EXPECT_FALSE(store.replica(p, "doomed").has_value());
  }

  // A get against the never-written key reaches quorum but finds nothing.
  Op get;
  get.type = OpType::kGet;
  get.client = 2;
  get.key = "doomed";
  QuorumStore fresh(g);
  const auto got = run(fresh, view, std::span<const Op>(&get, 1));
  EXPECT_TRUE(got[0].ok);
  EXPECT_FALSE(got[0].found);
}

TEST(QuorumStore, FailoverPastDeadPrimaryAndHintedHandoff) {
  const auto g = ring_overlay(128);
  auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  const auto point = dht::point_for_key("hinted", g.space());
  const auto primaries = replica_set(view, point, store.config().k);
  view.kill_node(primaries[0]);

  util::Rng client_rng(3);
  Op op;
  op.type = OpType::kPut;
  op.client = view.random_alive(client_rng);
  op.key = "hinted";
  op.value = "payload";
  const auto results = run(store, view, std::span<const Op>(&op, 1));
  ASSERT_TRUE(results[0].ok);
  // Placement skipped the dead primary entirely, so the put lands on the
  // k nearest *live* nodes without failing over.
  EXPECT_EQ(results[0].acks, store.config().k);
  EXPECT_FALSE(store.replica(primaries[0], "hinted").has_value());

  // Repair path back to full replication once the primary revives: the
  // sweep sees the revived (amnesiac) node as a primary missing the value.
  view.revive_node(primaries[0]);
  const SweepStats sweep = store.repair_sweep(view);
  EXPECT_EQ(sweep.degraded, 1u);
  EXPECT_EQ(sweep.repaired, 1u);
  EXPECT_EQ(sweep.lost, 0u);
  const auto rep = store.replica(primaries[0], "hinted");
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->second, "payload");
  EXPECT_EQ(store.repair_sweep(view).degraded, 0u);  // now quiescent
}

TEST(QuorumStore, UnreachablePrimaryFailsOverAndStoresHint) {
  // A sloppy-quorum write: the primary is alive (placement selects it) but
  // link-isolated (every in-link dead), so its sub-query is unreachable.
  // The op fails over to the standby, acks there, and remembers a hint for
  // the primary — delivered once the partition heals.
  const auto g = ring_overlay(128);
  auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.k = 1;
  cfg.r = 1;
  cfg.w = 1;
  QuorumStore store(g, cfg);

  const NodeId owner =
      replica_set(view, dht::point_for_key("hint-key", g.space()), 1)[0];
  std::vector<std::pair<NodeId, std::size_t>> isolated;
  for (NodeId v = 0; v < g.size(); ++v) {
    const auto neigh = g.neighbors(v);
    for (std::size_t idx = 0; idx < neigh.size(); ++idx) {
      if (neigh[idx] == owner) {
        view.kill_link(v, idx);
        isolated.emplace_back(v, idx);
      }
    }
  }
  ASSERT_FALSE(isolated.empty());

  Op op;
  op.type = OpType::kPut;
  op.client = owner == 5 ? 6 : 5;
  op.key = "hint-key";
  op.value = "x";
  const auto results = run(store, view, std::span<const Op>(&op, 1));
  ASSERT_TRUE(results[0].ok);
  EXPECT_GE(results[0].failovers, 1u);
  EXPECT_FALSE(store.replica(owner, "hint-key").has_value());
  EXPECT_EQ(store.pending_hints(), 1u);

  // Heal the partition; the hint replays the write onto the primary.
  for (const auto& [v, idx] : isolated) view.revive_link(v, idx);
  EXPECT_EQ(store.deliver_hints(view), 1u);
  EXPECT_EQ(store.pending_hints(), 0u);
  const auto rep = store.replica(owner, "hint-key");
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->second, "x");
}

TEST(QuorumStore, ForgetThenSweepRepairsFromSurvivor) {
  const auto g = ring_overlay(96);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);

  store.install(view, "obj", "data");
  const auto primaries =
      replica_set(view, dht::point_for_key("obj", g.space()), 3);
  store.forget(primaries[1]);
  EXPECT_FALSE(store.replica(primaries[1], "obj").has_value());

  const SweepStats sweep = store.repair_sweep(view);
  EXPECT_EQ(sweep.examined, 1u);
  EXPECT_EQ(sweep.degraded, 1u);
  EXPECT_EQ(sweep.repaired, 1u);
  ASSERT_TRUE(store.replica(primaries[1], "obj").has_value());
  EXPECT_EQ(store.replica(primaries[1], "obj")->second, "data");
}

TEST(QuorumStore, KeyWithNoSurvivingCopyCountsAsLost) {
  const auto g = ring_overlay(96);
  const auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.k = 1;
  cfg.r = cfg.w = 1;
  QuorumStore store(g, cfg);

  store.install(view, "fragile", "data");
  const auto owner =
      replica_set(view, dht::point_for_key("fragile", g.space()), 1);
  store.forget(owner[0]);

  const SweepStats sweep = store.repair_sweep(view);
  EXPECT_EQ(sweep.lost, 1u);
  EXPECT_EQ(sweep.degraded, 0u);
  EXPECT_EQ(sweep.repaired, 0u);

  // A fresh write resurrects the key; the next sweep is clean.
  store.install(view, "fragile", "data2");
  const SweepStats after = store.repair_sweep(view);
  EXPECT_EQ(after.lost, 0u);
  EXPECT_EQ(after.degraded, 0u);
}

TEST(QuorumStore, RunBatchIsDeterministic) {
  const auto g = ring_overlay(128);
  const auto view = FailureView::all_alive(g);
  util::Rng rng(5);
  std::vector<Op> ops;
  for (int i = 0; i < 40; ++i) {
    Op op;
    op.type = (i % 3 == 0) ? OpType::kGet : OpType::kPut;
    op.client = view.random_alive(rng);
    op.key = "d" + std::to_string(i % 9);
    op.value = "v" + std::to_string(i);
    ops.push_back(op);
  }

  QuorumStore a(g);
  QuorumStore b(g);
  const auto ra = run(a, view, ops, 4242);
  const auto rb = run(b, view, ops, 4242);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ra[i].ok, rb[i].ok);
    EXPECT_EQ(ra[i].acks, rb[i].acks);
    EXPECT_EQ(ra[i].responses, rb[i].responses);
    EXPECT_EQ(ra[i].subqueries, rb[i].subqueries);
    EXPECT_EQ(ra[i].hops, rb[i].hops);
    EXPECT_EQ(ra[i].version, rb[i].version);
    EXPECT_EQ(ra[i].value, rb[i].value);
    EXPECT_DOUBLE_EQ(ra[i].latency_ms, rb[i].latency_ms);
  }
}

TEST(QuorumStore, StaleDetectionAgainstDirectory) {
  // A read that observes an older-than-committed version reports stale=true:
  // v2 commits while primaries[0] is down (it keeps its v1 copy — no crash),
  // then an R=1 read under the healed view hits primaries[0] and sees v1.
  const auto g = ring_overlay(128);
  auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.r = 1;
  cfg.read_repair = false;
  QuorumStore store(g, cfg);

  const Version v1 = store.install(view, "s", "old");
  const auto primaries =
      replica_set(view, dht::point_for_key("s", g.space()), 3);
  view.kill_node(primaries[0]);
  const Version v2 = store.install(view, "s", "new");
  ASSERT_TRUE(v2.newer_than(v1));
  view.revive_node(primaries[0]);

  Op get;
  get.type = OpType::kGet;
  get.client = 9;
  get.key = "s";
  const auto results = run(store, view, std::span<const Op>(&get, 1));
  ASSERT_TRUE(results[0].ok);
  ASSERT_TRUE(results[0].found);
  EXPECT_EQ(results[0].version, v1);
  EXPECT_EQ(results[0].value, "old");
  EXPECT_TRUE(results[0].stale);
}

TEST(QuorumStore, RouteOnceThenForwardHops) {
  // Each op routes once, client -> cand[0]; the primary then forwards to the
  // rest of the first wave. kBacktrack draws no randomness, so Router::route
  // reproduces every sub-query's hops.
  const auto g = ring_overlay(4096);
  const auto view = FailureView::all_alive(g);
  QuorumStore store(g);  // k=3, R=2
  const core::Router router(g, view, robust_router());
  util::Rng rng(8);
  std::vector<Op> ops;
  for (int i = 0; i < 32; ++i) {
    Op op;
    op.type = i % 2 == 0 ? OpType::kPut : OpType::kGet;
    op.key = "fwd-" + std::to_string(i / 2);
    op.value = "v" + std::to_string(i);
    const NodeId primary =
        replica_set(view, dht::point_for_key(op.key, g.space()), 1)[0];
    do op.client = view.random_alive(rng);
    while (op.client == primary);
    ops.push_back(op);
  }
  StoreRegistry sink;
  std::vector<OpResult> results(ops.size());
  store.run_batch(router, ops, results, 21, sink.telem);

  const auto hops = [&](NodeId from, NodeId to) {
    util::Rng unused(0);
    const core::RouteResult r = router.route(from, g.position(to), unused);
    EXPECT_TRUE(r.delivered()) << from << " -> " << to;
    return r.hops;
  };
  std::uint64_t forwards = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::size_t fanout =
        op.type == OpType::kPut ? store.config().k : store.config().r;
    const auto cand = replica_set(
        view, dht::point_for_key(op.key, g.space()), fanout);
    std::uint64_t want = hops(op.client, cand[0]);
    for (std::size_t t = 1; t < fanout; ++t) want += hops(cand[0], cand[t]);
    ASSERT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].hops, want) << i;
    EXPECT_EQ(results[i].subqueries, fanout) << i;
    EXPECT_EQ(results[i].failovers, 0u) << i;
    forwards += fanout - 1;
  }
  // One client-routed head per op; everything else came from a primary.
  EXPECT_EQ(sink.counter("store.forwards"), forwards);
  EXPECT_EQ(sink.counter("store.forwards") + ops.size(),
            sink.counter("store.subqueries"));
  EXPECT_EQ(sink.counter("store.forward_retries"), 0u);
}

TEST(QuorumStore, UndeliveredForwardRetriesFromClient) {
  // Kill the primary's left ring neighbour. The replica just past that gap
  // is two positions from the primary, and usually no live link of the
  // primary's is closer to it, so the forward is stuck. The test takes the
  // first key where exactly that forward is stuck while the client's routes
  // arrive: the client retries the replica, no standby is promoted, no hint
  // is left, and the replica holds the write.
  const auto g = ring_overlay(512);
  const core::RouterConfig router_cfg = robust_router();
  const auto reaches = [&](const FailureView& view, NodeId from, NodeId to) {
    util::Rng unused(0);
    return core::Router(g, view, router_cfg)
        .route(from, g.position(to), unused)
        .delivered();
  };
  util::Rng rng(4);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::string key = "gap-" + std::to_string(attempt);
    const metric::Point point = dht::point_for_key(key, g.space());
    auto view = FailureView::all_alive(g);
    const NodeId primary = replica_set(view, point, 1)[0];
    const metric::Point left =
        (g.position(primary) + g.space().size() - 1) % g.space().size();
    view.kill_node(g.node_at(left));
    const auto cand = replica_set(view, point, 3);
    if (cand[0] != primary) continue;
    const NodeId client = view.random_alive(rng);
    // Exactly one forward must die, and every client route must arrive.
    std::size_t stuck = 0, gap_replica = 0;
    for (std::size_t t = 1; t < cand.size(); ++t) {
      if (!reaches(view, primary, cand[t])) {
        ++stuck;
        gap_replica = t;
      }
    }
    if (stuck != 1 || client == primary || !reaches(view, client, primary) ||
        !reaches(view, client, cand[gap_replica])) {
      continue;
    }

    QuorumStore store(g);
    StoreRegistry sink;
    Op put;
    put.type = OpType::kPut;
    put.client = client;
    put.key = key;
    put.value = "across";
    std::vector<OpResult> results(1);
    store.run_batch(core::Router(g, view, router_cfg),
                    std::span<const Op>(&put, 1), results, 5, sink.telem);
    const OpResult& res = results[0];
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.acks, 3u);
    EXPECT_EQ(res.failovers, 0u);
    EXPECT_EQ(store.pending_hints(), 0u);
    // Client-routed: the head and one retry of the lost forward's replica.
    EXPECT_EQ(res.subqueries, 4u);
    EXPECT_EQ(sink.counter("store.subqueries"), 4u);
    EXPECT_EQ(sink.counter("store.forwards"), 2u);
    EXPECT_EQ(sink.counter("store.forward_retries"), 1u);
    EXPECT_EQ(sink.counter("store.unreachable"), 1u);
    EXPECT_EQ(sink.counter("store.failovers"), 0u);
    const auto rep = store.replica(cand[gap_replica], key);
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->first, res.version);
    EXPECT_EQ(rep->second, "across");
    return;
  }
  FAIL() << "no key put a gap between its primary and a replica";
}

/// FNV-1a over 64-bit words and length-prefixed strings.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  void mix(std::string_view s) {
    mix(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  void mix(const Version& v) {
    mix(v.seq);
    mix(v.writer);
  }
};

TEST(QuorumStore, SingleWorkerHistoryHashIsPinned) {
  // One long single-worker history: skewed get/put batches (some keys are
  // never installed, so gets miss and puts create them mid-batch), churn
  // that forgets each node before killing it, hint delivery after every
  // batch and a periodic anti-entropy sweep. The hash covers every OpResult
  // field, the hint and key counts, every SweepStats and sampled
  // replica()/latest_committed() answers. kPinned was computed when ops
  // began routing once to the primary and forwarding from there; a storage
  // change must reproduce it.
  const auto g = ring_overlay(20'000, 31);
  auto view = FailureView::all_alive(g);
  QuorumConfig cfg;
  cfg.timeout_ms = 60.0;  // long routes time out and fail over
  QuorumStore store(g, cfg);
  const core::RouterConfig router_cfg;  // stuck routes end unreachable
  StoreRegistry sink;

  constexpr std::size_t kInstalled = 3000;
  constexpr std::size_t kKeySpace = 4000;
  const auto key_of = [](std::uint64_t i) { return "obj-" + std::to_string(i); };
  // Values of 12..19 chars straddle libstdc++'s 15-char SSO limit.
  const auto value_of = [](std::uint64_t tag, std::uint64_t len) {
    std::string v = "v" + std::to_string(tag) + ":";
    v.resize(len, static_cast<char>('a' + tag % 26));
    return v;
  };
  for (std::uint64_t i = 0; i < kInstalled; ++i) {
    store.install(view, key_of(i), value_of(i, 12 + i % 8),
                  static_cast<NodeId>(i % g.size()));
  }

  util::Rng rng(2024);
  Fnv1a hash;
  // The committed version and the copies on the key's 5 nearest live nodes.
  const auto hash_key = [&](const std::string& key) {
    const auto committed = store.latest_committed(key);
    hash.mix(committed.has_value());
    if (committed) hash.mix(*committed);
    for (const NodeId u :
         replica_set(view, dht::point_for_key(key, g.space()), 5)) {
      const auto rep = store.replica(u, key);
      hash.mix(rep.has_value());
      if (rep) {
        hash.mix(rep->first);
        hash.mix(rep->second);
      }
    }
  };
  std::uint64_t tag = kInstalled;
  std::size_t stale = 0, failovers = 0, misses = 0, lost_sweeps = 0, hints = 0;
  std::uint64_t full_forwards = 0;  // forwards if every head arrived
  std::vector<NodeId> dead;
  for (std::uint64_t batch = 0; batch < 48; ++batch) {
    std::vector<Op> ops(400);
    for (Op& op : ops) {
      const double u = rng.next_double();
      op.key = key_of(static_cast<std::uint64_t>(u * u * u * kKeySpace));
      op.client = view.random_alive(rng);
      if (rng.next_bool(0.35)) {
        op.type = OpType::kPut;
        ++tag;
        op.value = value_of(tag, 12 + rng.next_below(8));
      }
    }
    const core::Router router(g, view, router_cfg);
    std::vector<OpResult> results(ops.size());
    store.run_batch(router, ops, results, 9000 + batch, sink.telem);
    for (const OpResult& res : results) {
      hash.mix(static_cast<std::uint64_t>(res.ok) |
               static_cast<std::uint64_t>(res.found) << 1 |
               static_cast<std::uint64_t>(res.stale) << 2);
      hash.mix(res.acks);
      hash.mix(res.responses);
      hash.mix(res.subqueries);
      hash.mix(res.failovers);
      hash.mix(res.hops);
      hash.mix(std::bit_cast<std::uint64_t>(res.latency_ms));
      hash.mix(res.version);
      hash.mix(res.value);
      stale += res.stale;
      failovers += res.failovers;
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      misses += ops[i].type == OpType::kGet && !results[i].found;
      full_forwards +=
          (ops[i].type == OpType::kPut ? cfg.k : cfg.r) - 1;
    }

    // Churn: forget-then-kill ~0.4% of nodes plus one run of 12 ring
    // neighbours (whole replica sets, so some keys lose every copy), then
    // revive (empty) fewer, so the dead set grows to ~7% of the ring.
    const auto crash = [&](NodeId u) {
      store.forget(u);
      view.kill_node(u);
      dead.push_back(u);
    };
    for (int c = 0; c < 80; ++c) crash(view.random_alive(rng));
    const std::uint64_t run_start = rng.next_below(g.size());
    for (std::uint64_t d = 0; d < 12; ++d) {
      const auto u = static_cast<NodeId>((run_start + d) % g.size());
      if (view.node_alive(u)) crash(u);
    }
    for (int c = 0; c < 60 && !dead.empty(); ++c) {
      const std::size_t at = rng.next_below(dead.size());
      view.revive_node(dead[at]);
      dead[at] = dead.back();
      dead.pop_back();
    }
    const std::size_t delivered = store.deliver_hints(view);
    hash.mix(delivered);
    hints += delivered;
    if (batch % 6 == 5) {
      const SweepStats sweep = store.repair_sweep(view);
      hash.mix(sweep.examined);
      hash.mix(sweep.degraded);
      hash.mix(sweep.repaired);
      hash.mix(sweep.lost);
      lost_sweeps += sweep.lost > 0;
      // Every key after a sweep: which copy a sweep sources from shows up
      // here before later repairs converge it away.
      for (std::uint64_t k = 0; k < kKeySpace; ++k) hash_key(key_of(k));
    }
    hash.mix(store.pending_hints());
    hash.mix(store.key_count());

    for (int s = 0; s < 24; ++s) hash_key(key_of(rng.next_below(kKeySpace)));
  }

  // The history must reach every path the hash is meant to pin.
  EXPECT_GT(stale, 0u);
  EXPECT_GT(failovers, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(lost_sweeps, 0u);
  EXPECT_GT(hints, 0u);
  // A head that did not arrive sends no forwards; a forward that did not
  // arrive is retried from the client.
  EXPECT_LT(sink.counter("store.forwards"), full_forwards);
  EXPECT_GT(sink.counter("store.forward_retries"), 0u);
  constexpr std::uint64_t kPinned = 0x35657549f6a4686cULL;
  EXPECT_EQ(hash.h, kPinned) << std::hex << hash.h;
}

}  // namespace
}  // namespace p2p::store
