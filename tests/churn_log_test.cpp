// Unit + equivalence tests for the churn delta log (churn/churn_log.h):
// recording normalization, apply/revert inversion, and the PR acceptance
// invariant — a replayed ChurnLog prefix is bit-identical to a from-scratch
// FailureView build at the same epoch, at every epoch, in both directions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "churn/churn_log.h"
#include "churn/trace_gen.h"
#include "failure/failure_model.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace p2p::churn {
namespace {

using failure::FailureView;
using graph::NodeId;
using graph::OverlayGraph;

OverlayGraph make_graph(std::uint64_t n, std::size_t links, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BuildSpec spec;
  spec.grid_size = n;
  spec.long_links = links;
  return graph::build_overlay(spec, rng);
}

/// Full liveness-state equality: every node bit, every link slot bit, the
/// alive count and the epoch cursor.
void expect_views_identical(const FailureView& got, const FailureView& want,
                            const std::string& label) {
  ASSERT_EQ(&got.graph(), &want.graph()) << label;
  EXPECT_EQ(got.epoch(), want.epoch()) << label;
  ASSERT_EQ(got.alive_count(), want.alive_count()) << label;
  const auto& g = got.graph();
  for (NodeId u = 0; u < g.size(); ++u) {
    ASSERT_EQ(got.node_alive(u), want.node_alive(u)) << label << " node " << u;
  }
  for (std::size_t slot = 0; slot < g.edge_slots(); ++slot) {
    ASSERT_EQ(got.link_alive_at(slot), want.link_alive_at(slot))
        << label << " slot " << slot;
  }
}

TEST(ChurnLog, RecordsNormalizedBatches) {
  const auto g = make_graph(32, 2, 1);
  ChurnLog log(g);
  log.kill_node(3);
  log.kill_node(3);  // duplicate: no-op against the shadow
  log.kill_node(5);
  EXPECT_EQ(log.staged_changes(), 2u);
  log.revive_node(7);  // alive already: dropped
  EXPECT_EQ(log.staged_changes(), 2u);
  EXPECT_EQ(log.commit(1.0), 1u);
  EXPECT_TRUE(log.staged_empty());

  const auto& d = log.delta(0);
  EXPECT_EQ(d.when, 1.0);
  EXPECT_EQ(d.node_kills.size(), 2u);
  EXPECT_TRUE(d.node_revives.empty());
  EXPECT_EQ(log.total_changes(), 2u);
}

TEST(ChurnLog, KillThenReviveInOneBatchCancels) {
  const auto g = make_graph(32, 2, 2);
  ChurnLog log(g);
  log.kill_node(4);
  log.revive_node(4);
  EXPECT_TRUE(log.staged_empty());
  log.kill_link(0, 1);
  log.revive_link(0, 1);
  EXPECT_TRUE(log.staged_empty());
  // ... and the state machine still tracks: the net effect is nothing, so a
  // second kill is a real change again.
  log.kill_node(4);
  EXPECT_EQ(log.staged_changes(), 1u);
}

TEST(ChurnLog, CommitTimesMustBeMonotone) {
  const auto g = make_graph(16, 1, 3);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(5.0);
  log.kill_node(2);
  EXPECT_THROW(log.commit(4.0), std::invalid_argument);
}

TEST(ChurnLog, ApplyAdvancesEpochAndFlipsBits) {
  const auto g = make_graph(64, 3, 4);
  ChurnLog log(g);
  log.kill_node(10);
  log.kill_link(2, 0);
  log.commit(1.0);
  log.revive_node(10);
  log.commit(2.0);

  FailureView view = log.baseline();
  EXPECT_EQ(view.epoch(), 0u);
  view.apply(log.delta(0));
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_FALSE(view.node_alive(10));
  EXPECT_FALSE(view.link_alive(2, 0));
  EXPECT_EQ(view.alive_count(), g.size() - 1);
  view.apply(log.delta(1));
  EXPECT_EQ(view.epoch(), 2u);
  EXPECT_TRUE(view.node_alive(10));
  EXPECT_FALSE(view.link_alive(2, 0));  // link stays dead
}

TEST(ChurnLog, ApplyRejectsUnnormalizedDeltas) {
  const auto g = make_graph(32, 2, 5);
  FailureView view = FailureView::all_alive(g);
  FailureDelta bogus;
  bogus.node_revives.push_back(3);  // node 3 is alive
  EXPECT_THROW(view.apply(bogus), std::invalid_argument);
  bogus = {};
  bogus.node_kills.push_back(3);
  view.apply(bogus);
  EXPECT_THROW(view.apply(bogus), std::invalid_argument);  // already dead
}

TEST(ChurnLog, RevertIsExactInverse) {
  const auto g = make_graph(64, 3, 6);
  ChurnLog log(g);
  util::Rng rng(7);
  for (int e = 0; e < 20; ++e) {
    for (int k = 0; k < 5; ++k) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      if (rng.next_bool(0.5)) {
        log.kill_node(u);
      } else {
        log.revive_node(u);
      }
    }
    log.commit(static_cast<double>(e));
  }

  FailureView view = log.baseline();
  log.seek(view, log.size());
  EXPECT_EQ(view.epoch(), log.size());
  log.seek(view, 0);
  expect_views_identical(view, log.baseline(), "after full round trip");
}

TEST(ChurnLog, RevertRejectsWrongDelta) {
  const auto g = make_graph(32, 2, 8);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(1.0);
  log.kill_node(2);
  log.commit(2.0);
  FailureView view = log.baseline();
  EXPECT_THROW(view.revert(log.delta(0)), std::invalid_argument);  // at epoch 0
  view.apply(log.delta(0));
  EXPECT_THROW(view.revert(log.delta(1)), std::invalid_argument);  // wrong batch
  view.revert(log.delta(0));
  EXPECT_EQ(view.epoch(), 0u);
}

// The acceptance-criteria equivalence: a replayed prefix must be
// bit-identical to a from-scratch build at the same epoch — for every epoch
// of a mixed node+link trace, seeking forward and backward.
TEST(ChurnLog, SeekMatchesMaterializeAtEveryEpoch) {
  const auto g = make_graph(256, 4, 9);
  ChurnLog log(g);
  util::Rng rng(10);
  for (int e = 0; e < 40; ++e) {
    for (int k = 0; k < 6; ++k) {
      const auto u = static_cast<NodeId>(rng.next_below(g.size()));
      switch (rng.next_below(4)) {
        case 0:
          log.kill_node(u);
          break;
        case 1:
          log.revive_node(u);
          break;
        case 2:
          log.kill_link(u, rng.next_below(g.out_degree(u)));
          break;
        default:
          log.revive_link(u, rng.next_below(g.out_degree(u)));
          break;
      }
    }
    log.commit(static_cast<double>(e));
  }
  ASSERT_GT(log.total_changes(), 0u);

  FailureView view = log.baseline();
  for (std::size_t e = 0; e <= log.size(); ++e) {
    log.seek(view, e);
    expect_views_identical(view, log.materialize(e),
                           "forward epoch " + std::to_string(e));
  }
  // Descend in strides so the revert path is exercised against every target.
  for (std::size_t e = log.size() + 1; e-- > 0;) {
    log.seek(view, e);
    expect_views_identical(view, log.materialize(e),
                           "backward epoch " + std::to_string(e));
  }
}

/// One liveness bit: a node id or a flat CSR link slot.
struct Bit {
  bool link;
  std::uint32_t id;
  friend auto operator<=>(const Bit&, const Bit&) = default;
};

/// The list of `d` that holds `kill`s or revives of nodes or `link` slots.
std::vector<std::uint32_t>& list(FailureDelta& d, bool link, bool kill) {
  if (link) return kill ? d.link_kills : d.link_revives;
  return kill ? d.node_kills : d.node_revives;
}

/// A reference for ChurnLog staging that shares none of its implementation:
/// per-bit committed and shadow liveness, the set of net flips, the order in
/// which the current batch first staged each bit, and the stable-erase
/// staging (find + erase of the cancelled entry) that the log used before
/// in-batch cancellation became O(1).
class StagingModel {
 public:
  explicit StagingModel(const OverlayGraph& g)
      : committed_{std::vector<bool>(g.size(), true),
                   std::vector<bool>(g.edge_slots(), true)},
        shadow_(committed_) {}

  void stage(Bit b, bool kill) {
    // A kill of the dead or a revive of the living is a no-op.
    if (shadow_[b.link][b.id] != kill) return;
    shadow_[b.link][b.id] = !kill;
    ++flips_[b];
    if (!kill != committed_[b.link][b.id]) {  // a fresh change
      net_.insert(b);
      if (std::find(order_.begin(), order_.end(), b) == order_.end()) {
        order_.push_back(b);
      }
      list(erase_staged_, b.link, kill).push_back(b.id);
    } else {  // cancels this batch's earlier opposite change
      net_.erase(b);
      auto& l = list(erase_staged_, b.link, !kill);
      l.erase(std::find(l.begin(), l.end(), b.id));
    }
  }

  [[nodiscard]] const std::set<Bit>& net() const { return net_; }

  /// The delta the log must commit: each net flip once, in first-stage order.
  [[nodiscard]] FailureDelta expected() const {
    FailureDelta d;
    for (const Bit b : order_) {
      if (net_.count(b) != 0) {
        list(d, b.link, committed_[b.link][b.id]).push_back(b.id);
      }
    }
    return d;
  }

  /// The delta the stable-erase staging would have committed.
  [[nodiscard]] const FailureDelta& erase_staged() const {
    return erase_staged_;
  }

  /// Most flips any one bit took in the current batch.
  [[nodiscard]] int max_flips() const {
    int most = 0;
    for (const auto& [bit, n] : flips_) most = std::max(most, n);
    return most;
  }

  void commit() {
    committed_ = shadow_;
    net_.clear();
    order_.clear();
    flips_.clear();
    erase_staged_ = FailureDelta{};
  }

  [[nodiscard]] bool committed_alive(Bit b) const {
    return committed_[b.link][b.id];
  }

 private:
  std::array<std::vector<bool>, 2> committed_;  // [0] nodes, [1] link slots
  std::array<std::vector<bool>, 2> shadow_;
  std::set<Bit> net_;
  std::vector<Bit> order_;
  std::map<Bit, int> flips_;
  FailureDelta erase_staged_;
};

void expect_same_lists(const FailureDelta& got, const FailureDelta& want,
                       const std::string& label) {
  EXPECT_EQ(got.node_kills, want.node_kills) << label;
  EXPECT_EQ(got.node_revives, want.node_revives) << label;
  EXPECT_EQ(got.link_kills, want.link_kills) << label;
  EXPECT_EQ(got.link_revives, want.link_revives) << label;
}

/// The bits a delta lists; fails if any bit is listed twice.
std::set<Bit> delta_bits(const FailureDelta& d, const std::string& label) {
  std::set<Bit> bits;
  for (const auto* l : {&d.node_kills, &d.node_revives}) {
    for (const NodeId u : *l) bits.insert(Bit{false, u});
  }
  for (const auto* l : {&d.link_kills, &d.link_revives}) {
    for (const std::uint32_t slot : *l) bits.insert(Bit{true, slot});
  }
  EXPECT_EQ(bits.size(), d.change_count()) << label << ": a bit listed twice";
  return bits;
}

// Random interleavings of node and link kills and revives, drawn from a
// small hot set often enough that bits are flipped two, three and more times
// inside one batch. After every op the log's net count matches the
// reference; every committed delta holds each net flip once, in first-stage
// order; and the whole log replays bit-identically in both directions.
TEST(ChurnLog, StagingFuzzMatchesNetFlipReference) {
  const auto g = make_graph(64, 3, 16);
  ChurnLog log(g);
  StagingModel model(g);
  util::Rng rng(17);
  int triple_batches = 0;
  int double_only_batches = 0;
  for (int e = 0; e < 300; ++e) {
    const std::string label = "epoch " + std::to_string(e);
    const auto ops = rng.next_below(40);
    for (std::uint64_t k = 0; k < ops; ++k) {
      // Half the ops hit nodes 0..3 or their first two links.
      const auto u =
          static_cast<NodeId>(rng.next_below(rng.next_bool(0.5) ? 4 : g.size()));
      const bool kill = rng.next_bool(0.5);
      if (rng.next_bool(0.5)) {
        const auto i = rng.next_below(std::min<std::size_t>(2, g.out_degree(u)));
        if (kill) {
          log.kill_link(u, i);
        } else {
          log.revive_link(u, i);
        }
        model.stage(Bit{true, static_cast<std::uint32_t>(g.edge_base(u) + i)},
                    kill);
      } else {
        if (kill) {
          log.kill_node(u);
        } else {
          log.revive_node(u);
        }
        model.stage(Bit{false, u}, kill);
      }
      ASSERT_EQ(log.staged_changes(), model.net().size()) << label;
      ASSERT_EQ(log.staged_empty(), model.net().empty()) << label;
    }
    log.commit(static_cast<double>(e));
    const FailureDelta& d = log.delta(static_cast<std::size_t>(e));
    EXPECT_EQ(delta_bits(d, label), model.net()) << label;
    expect_same_lists(d, model.expected(), label);
    if (model.max_flips() <= 2) {
      expect_same_lists(d, model.erase_staged(), label + " (erase staging)");
      double_only_batches += model.max_flips() == 2 ? 1 : 0;
    } else {
      ++triple_batches;
    }
    model.commit();
    EXPECT_TRUE(log.staged_empty()) << label;
  }
  EXPECT_GT(triple_batches, 50);
  EXPECT_GT(double_only_batches, 20);

  for (NodeId u = 0; u < g.size(); ++u) {
    ASSERT_EQ(log.shadow().node_alive(u), model.committed_alive(Bit{false, u}));
  }
  for (std::uint32_t slot = 0; slot < g.edge_slots(); ++slot) {
    ASSERT_EQ(log.shadow().link_alive_at(slot),
              model.committed_alive(Bit{true, slot}));
  }
  FailureView view = log.baseline();
  for (std::size_t e = 0; e <= log.size(); ++e) {
    log.seek(view, e);
    expect_views_identical(view, log.materialize(e),
                           "forward epoch " + std::to_string(e));
  }
  for (std::size_t e = log.size() + 1; e-- > 0;) {
    log.seek(view, e);
    expect_views_identical(view, log.materialize(e),
                           "backward epoch " + std::to_string(e));
  }
}

// The link-flap pattern: each batch revives the previous batch's flapped
// long links, then kills a fresh draw of them, so some kills cancel a revive
// staged moments earlier. No bit flips more than twice in a batch, and every
// committed delta equals, order included, what stable-erase staging gave.
TEST(ChurnLog, FlapBatchesMatchStableEraseStaging) {
  const auto g = make_graph(256, 4, 18);
  ChurnLog log(g);
  StagingModel model(g);
  util::Rng rng(19);
  std::vector<std::pair<NodeId, std::size_t>> longs;
  for (NodeId u = 0; u < g.size(); ++u) {
    for (std::size_t i = g.short_degree(u); i < g.out_degree(u); ++i) {
      longs.emplace_back(u, i);
    }
  }
  const auto slot_of = [&](NodeId u, std::size_t i) {
    return Bit{true, static_cast<std::uint32_t>(g.edge_base(u) + i)};
  };
  std::vector<std::pair<NodeId, std::size_t>> flapped;
  std::size_t cancelled = 0;
  for (int e = 0; e < 32; ++e) {
    for (const auto& [u, i] : flapped) {
      log.revive_link(u, i);
      model.stage(slot_of(u, i), false);
    }
    flapped.clear();
    for (std::size_t k = 0; k < longs.size() / 5; ++k) {
      const auto [u, i] = longs[rng.next_below(longs.size())];
      const bool revived_this_batch = !model.committed_alive(slot_of(u, i)) &&
                                      log.shadow().link_alive(u, i);
      cancelled += revived_this_batch ? 1 : 0;
      log.kill_link(u, i);
      model.stage(slot_of(u, i), true);
      flapped.emplace_back(u, i);
    }
    ASSERT_LE(model.max_flips(), 2);
    log.commit(static_cast<double>(e));
    expect_same_lists(log.delta(static_cast<std::size_t>(e)),
                      model.erase_staged(), "epoch " + std::to_string(e));
    model.commit();
  }
  EXPECT_GT(cancelled, 100u);
}

TEST(ChurnLog, SeekValidatesEpochAndGraph) {
  const auto g = make_graph(32, 2, 11);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(1.0);
  FailureView view = log.baseline();
  EXPECT_THROW(log.seek(view, 2), std::invalid_argument);  // beyond the log
  const auto other = make_graph(32, 2, 12);
  FailureView foreign = FailureView::all_alive(other);
  EXPECT_THROW(log.seek(foreign, 0), std::invalid_argument);
}

TEST(ChurnLog, NonZeroBaselinesReplayFromTheirOwnState) {
  const auto g = make_graph(128, 3, 13);
  util::Rng rng(14);
  const auto baseline = FailureView::with_node_failures(g, 0.3, rng);
  ChurnLog log(baseline);
  // Reviving a baseline-dead node is a real change; killing it is a no-op.
  NodeId dead = graph::kInvalidNode;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!baseline.node_alive(u)) {
      dead = u;
      break;
    }
  }
  ASSERT_NE(dead, graph::kInvalidNode);
  log.kill_node(dead);
  EXPECT_TRUE(log.staged_empty());
  log.revive_node(dead);
  EXPECT_EQ(log.staged_changes(), 1u);
  log.commit(1.0);

  FailureView view = baseline;
  log.seek(view, 1);
  EXPECT_TRUE(view.node_alive(dead));
  EXPECT_EQ(view.alive_count(), baseline.alive_count() + 1);
  expect_views_identical(view, log.materialize(1), "non-zero baseline");
}

TEST(ChurnLog, RejectsMidLogBaselines) {
  const auto g = make_graph(32, 2, 15);
  ChurnLog log(g);
  log.kill_node(1);
  log.commit(1.0);
  FailureView advanced = log.materialize(1);
  EXPECT_THROW(ChurnLog{advanced}, std::invalid_argument);
}

}  // namespace
}  // namespace p2p::churn
