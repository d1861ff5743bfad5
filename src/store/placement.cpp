#include "store/placement.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/require.h"

namespace p2p::store {

namespace {

using graph::NodeId;
using metric::Distance;

/// One (distance, id) selection candidate; the (d, id) lexicographic order is
/// the placement order ((distance, position) — node ids ascend with
/// positions, so comparing ids compares positions).
struct Cand {
  Distance d;
  NodeId id;
  [[nodiscard]] bool before(const Cand& other) const noexcept {
    return d != other.d ? d < other.d : id < other.id;
  }
};

constexpr Distance kInfDist = std::numeric_limits<Distance>::max();

/// 1-D walk: the k nearest nodes of p form a contiguous run of the
/// position-sorted node order, so two cursors expanding outward from the
/// nearest node visit candidates in exact (distance, position) order.
std::size_t nearest_live_1d(const failure::FailureView& view, metric::Point p,
                            std::size_t count, std::span<NodeId> out) {
  const graph::OverlayGraph& g = view.graph();
  const metric::Space& space = g.space();
  const auto m = static_cast<std::int64_t>(g.size());
  const bool ring = space.kind() == metric::Space::Kind::kRing;

  const auto start = static_cast<std::int64_t>(g.node_nearest(p));
  auto wrap = [m](std::int64_t i) noexcept { return ((i % m) + m) % m; };
  auto cand_at = [&](std::int64_t i) noexcept {
    const auto id = static_cast<NodeId>(i);
    return Cand{space.distance(g.position(id), p), id};
  };

  // Cursor "next" positions: left emits start, start-1, ...; right emits
  // start+1, start+2, ... Together they consider each node exactly once
  // while `consumed` stays below m.
  std::int64_t left = start;
  std::int64_t right = start + 1;
  std::size_t consumed = 0;
  std::size_t emitted = 0;
  while (emitted < count && consumed < static_cast<std::size_t>(m)) {
    const bool left_ok = ring || left >= 0;
    const bool right_ok = ring || right < m;
    Cand cl = left_ok ? cand_at(wrap(left)) : Cand{kInfDist, 0};
    Cand cr = right_ok ? cand_at(wrap(right)) : Cand{kInfDist, 0};
    if (!right_ok || (left_ok && cl.before(cr))) {
      --left;
      ++consumed;
      if (view.node_alive(cl.id)) out[emitted++] = cl.id;
    } else {
      ++right;
      ++consumed;
      if (view.node_alive(cr.id)) out[emitted++] = cr.id;
    }
  }
  return emitted;
}

/// Torus scan: bounded insertion keeps the best `count` live candidates in
/// (d, id) order, which are then written to out.
std::size_t nearest_live_scan(const failure::FailureView& view,
                              metric::Point p, std::size_t count,
                              std::span<NodeId> out) {
  const graph::OverlayGraph& g = view.graph();
  const metric::Space& space = g.space();
  std::vector<Cand> best;
  best.reserve(count + 1);
  for (NodeId id = 0; id < g.size(); ++id) {
    if (!view.node_alive(id)) continue;
    const Cand c{space.distance(g.position(id), p), id};
    if (best.size() == count && !c.before(best.back())) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), c,
                                 [](const Cand& a, const Cand& b) {
                                   return a.before(b);
                                 }),
                c);
    if (best.size() > count) best.pop_back();
  }
  for (std::size_t i = 0; i < best.size(); ++i) out[i] = best[i].id;
  return best.size();
}

void check_args(const failure::FailureView& view, metric::Point p,
                std::size_t count, std::span<NodeId> out) {
  util::require(view.graph().size() > 0, "nearest_live: empty graph");
  util::require(view.graph().space().contains(p),
                "nearest_live: point outside the space");
  util::require(count <= kMaxReplicas, "nearest_live: count > kMaxReplicas");
  util::require(out.size() >= count, "nearest_live: out span too small");
}

}  // namespace

std::size_t nearest_live(const failure::FailureView& view, metric::Point p,
                         std::size_t count, std::span<NodeId> out) {
  check_args(view, p, count, out);
  if (count == 0) return 0;
  if (view.graph().space().one_dimensional()) {
    return nearest_live_1d(view, p, count, out);
  }
  return nearest_live_scan(view, p, count, out);
}

std::vector<graph::NodeId> replica_set(const failure::FailureView& view,
                                       metric::Point p, std::size_t k) {
  std::vector<NodeId> out(std::min(k, kMaxReplicas));
  out.resize(nearest_live(view, p, out.size(), out));
  return out;
}

}  // namespace p2p::store
