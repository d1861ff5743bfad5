// Concurrent store frontend (service/store_service.h) — the TSan-covered
// suite for the quorum store's threaded path:
//  * with an idle writer and distinct keys per stripe, run_all is
//    bit-identical across worker counts (the RoutingService determinism
//    contract carried over to quorum ops);
//  * a live churn writer publishing mid-run: every op still completes, every
//    executed stripe observed an exactly-published epoch, and the store's
//    stripe locks hold up under ThreadSanitizer;
//  * hot keys shared by every worker while a second thread runs forget,
//    deliver_hints and repair_sweep: values never tear or cross keys, ok
//    puts never outrun the committed version, and forget leaves no copy;
//  * request_stop() before run_all drains to zero completed ops;
//  * constructor validation (graph mismatch, zero stripe).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "dht/hash.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "service/store_service.h"
#include "service/view_publisher.h"
#include "store/placement.h"
#include "store/quorum_store.h"
#include "util/rng.h"

namespace p2p::service {
namespace {

using failure::FailureView;
using graph::NodeId;

graph::OverlayGraph ring_overlay(std::uint64_t n, std::uint64_t seed = 9) {
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.topology = metric::Space1D::Kind::kRing;
  spec.long_links = 4;
  spec.bidirectional = true;
  util::Rng rng(seed);
  return graph::build_overlay(spec, rng);
}

/// Distinct keys per op (hence per stripe): the determinism contract's
/// precondition.
std::vector<store::Op> distinct_key_ops(const FailureView& view,
                                        std::size_t count,
                                        std::uint64_t seed = 21) {
  util::Rng rng(seed);
  std::vector<store::Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    store::Op op;
    op.type = (i % 4 == 3) ? store::OpType::kGet : store::OpType::kPut;
    op.client = view.random_alive(rng);
    op.key = "svc-" + std::to_string(i);
    op.value = "v" + std::to_string(i);
    ops.push_back(op);
  }
  return ops;
}

TEST(StoreService, ValidatesConstruction) {
  const auto g = ring_overlay(64);
  const auto other = ring_overlay(64, 10);
  ViewPublisher pub(FailureView::all_alive(g));
  store::QuorumStore mismatched(other);
  EXPECT_THROW(StoreService(pub, mismatched), std::invalid_argument);

  store::QuorumStore store(g);
  StoreServiceConfig cfg;
  cfg.stripe = 0;
  EXPECT_THROW(StoreService(pub, store, cfg), std::invalid_argument);
}

TEST(StoreService, WorkerCountsAgreeBitForBit) {
  const auto g = ring_overlay(128);
  ViewPublisher pub(FailureView::all_alive(g));
  const auto ops = distinct_key_ops(pub.writer_view(), 96);

  // Reference: single worker.
  std::vector<store::OpResult> ref(ops.size());
  {
    store::QuorumStore store(g);
    StoreServiceConfig cfg;
    cfg.workers = 1;
    cfg.stripe = 16;
    cfg.seed = 33;
    StoreService svc(pub, store, cfg);
    const StoreServiceStats stats = svc.run_all(ops, ref);
    EXPECT_EQ(stats.completed, ops.size());
    EXPECT_EQ(stats.ok, ops.size());
  }

  for (const std::size_t workers : {2u, 4u}) {
    store::QuorumStore store(g);
    StoreServiceConfig cfg;
    cfg.workers = workers;
    cfg.stripe = 16;
    cfg.seed = 33;
    StoreService svc(pub, store, cfg);
    std::vector<store::OpResult> results(ops.size());
    const StoreServiceStats stats = svc.run_all(ops, results);
    EXPECT_EQ(stats.completed, ops.size());
    EXPECT_EQ(stats.stripes, (ops.size() + 15) / 16);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(results[i].ok, ref[i].ok) << i;
      EXPECT_EQ(results[i].acks, ref[i].acks) << i;
      EXPECT_EQ(results[i].responses, ref[i].responses) << i;
      EXPECT_EQ(results[i].subqueries, ref[i].subqueries) << i;
      EXPECT_EQ(results[i].hops, ref[i].hops) << i;
      EXPECT_EQ(results[i].value, ref[i].value) << i;
      EXPECT_DOUBLE_EQ(results[i].latency_ms, ref[i].latency_ms) << i;
    }
  }
}

TEST(StoreService, RunsUnderLiveChurnWriter) {
  const auto g = ring_overlay(256);
  churn::TraceSpec spec;
  spec.scenario = churn::TraceSpec::Scenario::kPoissonChurn;
  spec.duration = 200.0;
  spec.batch_interval = 1.0;
  spec.kill_rate = 2.0;
  spec.revive_rate = 2.0;
  util::Rng trace_rng(17);
  const churn::ChurnLog log = churn::make_trace(g, spec, trace_rng);

  ViewPublisher pub(log.baseline());
  store::QuorumStore store(g);
  StoreServiceConfig cfg;
  cfg.workers = 4;
  cfg.stripe = 8;
  StoreService svc(pub, store, cfg);

  const auto ops = distinct_key_ops(pub.writer_view(), 256);
  std::vector<store::OpResult> results(ops.size());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Publish epochs as fast as the run consumes them; stop with the run.
    for (std::size_t e = 0; e < log.size() && !done.load(); ++e) {
      pub.writer_view().apply(log.delta(e));
      pub.publish();
      std::this_thread::yield();
    }
  });
  const StoreServiceStats stats = svc.run_all(ops, results);
  done.store(true);
  writer.join();

  EXPECT_EQ(stats.completed, ops.size());
  EXPECT_EQ(stats.stripes, ops.size() / 8);
  EXPECT_LE(stats.min_epoch, stats.max_epoch);
  EXPECT_LE(stats.max_epoch, log.size());
  // Quorum ops under churn may fail; completed results must still be sane.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_GE(results[i].subqueries, 1u) << i;
  }
}

TEST(StoreService, HotKeysUnderConcurrentUpkeep) {
  // Zipf-shared keys, so every worker writes the same few records, while an
  // upkeep thread makes random live nodes forget their copies (taking the
  // node stripe, then each key stripe) and delivers hints and sweeps (first
  // copies take node then key stripe). A short timeout makes sub-queries
  // fail over, so hints are stored and delivered during the run.
  const auto g = ring_overlay(512);
  const FailureView view = FailureView::all_alive(g);
  ViewPublisher pub(view);
  store::QuorumConfig qcfg;
  qcfg.timeout_ms = 12.0;
  store::QuorumStore store(g, qcfg);

  constexpr std::size_t kKeys = 16;
  const auto key_of = [](std::size_t i) { return "hot-" + std::to_string(i); };
  // A value names its key, so a torn or misplaced value fails verifies().
  const auto value_of = [](const std::string& key, std::size_t tag) {
    return key + "=" + std::to_string(tag) + "-padding-past-sso";
  };
  const auto verifies = [](const std::string& key, const std::string& value) {
    return value.starts_with(key + "=") && value.ends_with("-padding-past-sso");
  };
  for (std::size_t i = 0; i < kKeys; ++i) {
    store.install(view, key_of(i), value_of(key_of(i), 0));
  }

  // Zipf(0.99) over the keys by inverse CDF.
  std::vector<double> cdf(kKeys);
  double total = 0.0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
    cdf[i] = total;
  }
  util::Rng rng(404);
  std::vector<store::Op> ops(2048);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const double u = rng.next_double() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    store::Op& op = ops[i];
    op.key = key_of(std::min(rank, kKeys - 1));
    op.client = view.random_alive(rng);
    if (rng.next_bool(0.3)) {
      op.type = store::OpType::kPut;
      op.value = value_of(op.key, i + 1);
    }
  }

  StoreServiceConfig cfg;
  cfg.workers = 4;
  cfg.stripe = 4;
  StoreService svc(pub, store, cfg);
  std::vector<store::OpResult> results(ops.size());
  std::atomic<bool> done{false};
  std::thread upkeep([&] {
    util::Rng upkeep_rng(405);
    do {
      for (int f = 0; f < 4; ++f) store.forget(view.random_alive(upkeep_rng));
      store.deliver_hints(view);
      store.repair_sweep(view);
    } while (!done.load());
  });
  const StoreServiceStats stats = svc.run_all(ops, results);
  done.store(true);
  upkeep.join();

  EXPECT_EQ(stats.completed, ops.size());
  std::size_t failovers = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const store::OpResult& res = results[i];
    failovers += res.failovers;
    if (ops[i].type == store::OpType::kGet) {
      if (res.found) {
        EXPECT_TRUE(verifies(ops[i].key, res.value)) << i << ": " << res.value;
      }
    } else if (res.ok) {
      const auto committed = store.latest_committed(ops[i].key);
      ASSERT_TRUE(committed.has_value()) << i;
      EXPECT_FALSE(res.version.newer_than(*committed)) << i;
    }
  }
  EXPECT_GT(failovers, 0u);

  // Quiesced: forget(u) drops every copy u holds, and a later install puts
  // u back exactly where it is one of the key's primaries.
  for (NodeId u = 0; u < g.size(); ++u) {
    store.forget(u);
    for (std::size_t i = 0; i < kKeys; ++i) {
      EXPECT_FALSE(store.replica(u, key_of(i)).has_value()) << u << " " << i;
    }
  }
  EXPECT_EQ(store.repair_sweep(view).lost, kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = key_of(i);
    const store::Version v = store.install(view, key, value_of(key, 9999));
    const auto primaries = store::replica_set(
        view, dht::point_for_key(key, g.space()), qcfg.k);
    for (NodeId u = 0; u < g.size(); ++u) {
      const auto rep = store.replica(u, key);
      const bool primary =
          std::find(primaries.begin(), primaries.end(), u) != primaries.end();
      ASSERT_EQ(rep.has_value(), primary) << key << " at " << u;
      if (rep) {
        EXPECT_EQ(rep->first, v);
        EXPECT_EQ(rep->second, value_of(key, 9999));
      }
    }
  }
}

TEST(StoreService, RequestStopDrainsToZero) {
  const auto g = ring_overlay(64);
  ViewPublisher pub(FailureView::all_alive(g));
  store::QuorumStore store(g);
  StoreService svc(pub, store);
  svc.request_stop();
  EXPECT_TRUE(svc.stop_requested());

  const auto ops = distinct_key_ops(pub.writer_view(), 16);
  std::vector<store::OpResult> results(ops.size());
  const StoreServiceStats stats = svc.run_all(ops, results);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.ok, 0u);
}

}  // namespace
}  // namespace p2p::service
