#include "churn/churn_log.h"

#include "util/require.h"

namespace p2p::churn {

namespace {

/// One stable O(batch) pass over a staged list: keeps an entry only if its
/// bit still differs between the last commit and the shadow (a double flip
/// nets out to nothing) and only the first entry of a re-staged bit.
/// `differs(x)` tests the bit; `flip(x)` toggles it in the shadow, which
/// marks a kept bit consumed for the rest of the pass. Every kept bit is
/// flipped back before returning, so the shadow ends unchanged.
template <typename T, typename Differs, typename Flip>
void keep_net_changes(std::vector<T>& batch, Differs differs, Flip flip) {
  std::size_t kept = 0;
  for (const T x : batch) {
    if (!differs(x)) continue;
    flip(x);
    batch[kept++] = x;
  }
  batch.resize(kept);
  for (const T x : batch) flip(x);
}

}  // namespace

ChurnLog::ChurnLog(const failure::FailureView& baseline)
    : baseline_(baseline),
      committed_(baseline),
      shadow_(baseline),
      graph_generation_(baseline.graph().structural_generation()) {
  util::require(baseline.epoch() == 0,
                "ChurnLog: baseline must be an epoch-0 view");
}

void ChurnLog::check_generation() const {
  util::require(graph().structural_generation() == graph_generation_,
                "ChurnLog: graph changed structurally; the log's link slots "
                "are stale");
}

void ChurnLog::kill_node(graph::NodeId u) {
  util::require_in_range(u < graph().size(),
                         "ChurnLog::kill_node: node out of range");
  if (!shadow_.node_alive(u)) return;  // no-op against the running state
  shadow_.kill_node(u);
  // Alive in the shadow but dead at the last commit means this batch staged
  // a revive — the kill cancels it, and commit() drops the revive's entry;
  // otherwise this kill is a fresh change.
  if (committed_.node_alive(u)) {
    staged_.node_kills.push_back(u);
    ++staged_net_;
  } else {
    --staged_net_;
  }
}

void ChurnLog::revive_node(graph::NodeId u) {
  util::require_in_range(u < graph().size(),
                         "ChurnLog::revive_node: node out of range");
  if (shadow_.node_alive(u)) return;
  shadow_.revive_node(u);
  if (!committed_.node_alive(u)) {
    staged_.node_revives.push_back(u);
    ++staged_net_;
  } else {
    --staged_net_;
  }
}

void ChurnLog::kill_link(graph::NodeId u, std::size_t link_index) {
  check_generation();
  util::require_in_range(u < graph().size(),
                         "ChurnLog::kill_link: node out of range");
  util::require_in_range(link_index < graph().out_degree(u),
                         "ChurnLog::kill_link: link index out of range");
  const auto slot =
      static_cast<std::uint32_t>(graph().edge_base(u) + link_index);
  if (!shadow_.link_alive_at(slot)) return;
  shadow_.kill_link_slot(slot);
  if (committed_.link_alive_at(slot)) {
    staged_.link_kills.push_back(slot);
    ++staged_net_;
  } else {
    --staged_net_;
  }
}

void ChurnLog::revive_link(graph::NodeId u, std::size_t link_index) {
  check_generation();
  util::require_in_range(u < graph().size(),
                         "ChurnLog::revive_link: node out of range");
  util::require_in_range(link_index < graph().out_degree(u),
                         "ChurnLog::revive_link: link index out of range");
  const auto slot =
      static_cast<std::uint32_t>(graph().edge_base(u) + link_index);
  if (shadow_.link_alive_at(slot)) return;
  shadow_.revive_link_slot(slot);
  if (!committed_.link_alive_at(slot)) {
    staged_.link_revives.push_back(slot);
    ++staged_net_;
  } else {
    --staged_net_;
  }
}

std::size_t ChurnLog::commit(double when) {
  util::require(deltas_.empty() || when >= deltas_.back().when,
                "ChurnLog::commit: timestamps must be non-decreasing");
  const auto node_differs = [this](graph::NodeId u) {
    return committed_.node_alive(u) != shadow_.node_alive(u);
  };
  const auto flip_node = [this](graph::NodeId u) {
    if (shadow_.node_alive(u)) {
      shadow_.kill_node(u);
    } else {
      shadow_.revive_node(u);
    }
  };
  const auto link_differs = [this](std::uint32_t slot) {
    return committed_.link_alive_at(slot) != shadow_.link_alive_at(slot);
  };
  const auto flip_link = [this](std::uint32_t slot) {
    if (shadow_.link_alive_at(slot)) {
      shadow_.kill_link_slot(slot);
    } else {
      shadow_.revive_link_slot(slot);
    }
  };
  keep_net_changes(staged_.node_kills, node_differs, flip_node);
  keep_net_changes(staged_.node_revives, node_differs, flip_node);
  keep_net_changes(staged_.link_kills, link_differs, flip_link);
  keep_net_changes(staged_.link_revives, link_differs, flip_link);
  util::require(staged_.change_count() == staged_net_,
                "ChurnLog::commit: filtered batch disagrees with the net "
                "staged-change count");
  staged_.when = when;
  total_changes_ += staged_net_;
  committed_.apply(staged_);  // O(changes); also re-checks normalization
  deltas_.push_back(std::move(staged_));
  staged_ = FailureDelta{};
  staged_net_ = 0;
  return deltas_.size();
}

void ChurnLog::seek(failure::FailureView& view, std::uint64_t target_epoch) const {
  check_generation();
  util::require(&view.graph() == &graph(),
                "ChurnLog::seek: view belongs to a different graph");
  util::require(target_epoch <= deltas_.size(),
                "ChurnLog::seek: target epoch beyond the log");
  util::require(view.epoch() <= deltas_.size(),
                "ChurnLog::seek: view epoch beyond the log (wrong log?)");
  while (view.epoch() < target_epoch) view.apply(deltas_[view.epoch()]);
  while (view.epoch() > target_epoch) view.revert(deltas_[view.epoch() - 1]);
}

failure::FailureView ChurnLog::materialize(std::uint64_t epoch) const {
  check_generation();
  util::require(epoch <= deltas_.size(),
                "ChurnLog::materialize: epoch beyond the log");
  failure::FailureView view = baseline_;
  for (std::uint64_t e = 0; e < epoch; ++e) view.apply(deltas_[e]);
  return view;
}

}  // namespace p2p::churn
