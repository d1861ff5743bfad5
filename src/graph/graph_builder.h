// Overlay construction: the one-shot builds of §4.3 and the mutable
// GraphBuilder.
//
// build_overlay realizes the random graph of §4.3 directly: every node links
// to its nearest neighbour on either side plus ℓ long-distance neighbours
// drawn from the configured distribution. This is the "ideal network" of
// Figure 7; the incremental §5 heuristic lives in core/construction.h.
// build_overlay and build_kleinberg_overlay write the frozen CSR directly:
// they draw every node's long links into a flat table, count each node's
// short, forward and reverse links, lay the slices out by a prefix sum, fill
// them, and freeze — a few flat passes, each fanned across an optional pool.
//
// GraphBuilder accumulates links in per-node buffers (short links first,
// then long links); freeze() packs them into the immutable CSR OverlayGraph.
// It serves hand-built graphs and the §5 heuristic, and is the reference the
// one-shot builds are tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/link_distribution.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::graph {

/// Mutable first phase of overlay construction; freeze() yields the CSR
/// OverlayGraph. All short links of a node must be added before its first
/// long link.
class GraphBuilder {
 public:
  /// A builder whose node i sits at grid position i (fully populated grid).
  explicit GraphBuilder(metric::Space space);

  /// A builder over a sparse, strictly increasing set of occupied positions.
  /// Preconditions: positions sorted strictly increasing, all within space.
  GraphBuilder(metric::Space space, std::vector<metric::Point> positions);

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t size() const noexcept { return adjacency_.size(); }

  /// Grid position of node u. Precondition: u < size().
  [[nodiscard]] metric::Point position(NodeId u) const noexcept {
    return positions_.empty() ? static_cast<metric::Point>(u) : positions_[u];
  }

  /// The node occupying grid position p exactly, or kInvalidNode.
  [[nodiscard]] NodeId node_at(metric::Point p) const noexcept {
    return detail::node_at(space_, positions_, p);
  }

  /// The node whose position is closest to p (ties break to the lower
  /// position). Precondition: size() > 0 and space().contains(p).
  [[nodiscard]] NodeId node_nearest(metric::Point p) const noexcept {
    return detail::node_nearest(space_, positions_, p);
  }

  [[nodiscard]] std::size_t short_degree(NodeId u) const noexcept {
    return short_degree_[u];
  }
  [[nodiscard]] std::size_t out_degree(NodeId u) const noexcept {
    return adjacency_[u].size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept { return link_count_; }

  /// Long-distance out-neighbours of u accumulated so far.
  [[nodiscard]] std::span<const NodeId> long_neighbors(NodeId u) const noexcept {
    return {adjacency_[u].data() + short_degree_[u],
            adjacency_[u].size() - short_degree_[u]};
  }

  /// Reserves capacity for `per_node` links on every node (a build-speed
  /// hint; ℓ + 2 is the natural choice for the paper's overlays).
  void reserve_links(std::size_t per_node);

  /// Appends a short (immediate-neighbour) link u -> v. Short links must be
  /// added before any long link of u. Throws std::logic_error otherwise.
  void add_short_link(NodeId u, NodeId v);

  /// Appends a long-distance link u -> v.
  void add_long_link(NodeId u, NodeId v);

  /// True when u already has any link to v.
  [[nodiscard]] bool has_link(NodeId u, NodeId v) const noexcept;

  /// Wires every node to its nearest occupied neighbour on each side
  /// (wrapping on a ring). Call before any long links are added. 1-D spaces
  /// only (throws on a torus — lattice wiring is build_kleinberg_overlay's).
  void wire_short_links();

  /// Adds the reverse of every long link not already present, making the
  /// whole overlay usable in both directions (see BuildSpec::bidirectional).
  void make_bidirectional();

  /// Packs the accumulated links into a frozen OverlayGraph in the layout
  /// `opts` selects. The builder is consumed: left empty (size 0) afterwards.
  [[nodiscard]] OverlayGraph freeze(FreezeOptions opts = {});

  /// As freeze(), fanning the edge packing (per-node slice copies into the
  /// flat CSR array, then the header/spill or compact encode passes) across
  /// `pool`. Bit-identical to the serial overload: every slice lands at an
  /// offset fixed by the serial prefix sum.
  [[nodiscard]] OverlayGraph freeze(util::ThreadPool& pool,
                                    FreezeOptions opts = {});

 private:
  void check_node(NodeId u) const;

  [[nodiscard]] OverlayGraph freeze_impl(util::ThreadPool* pool,
                                         FreezeOptions opts);

  metric::Space space_;
  std::vector<metric::Point> positions_;        // empty when dense
  std::vector<std::vector<NodeId>> adjacency_;  // short links first
  std::vector<std::uint32_t> short_degree_;
  std::size_t link_count_ = 0;
};

/// Parameters of an ideal overlay build.
struct BuildSpec {
  /// Number of grid points of the metric space.
  std::uint64_t grid_size = 1024;

  metric::Space1D::Kind topology = metric::Space1D::Kind::kRing;

  /// How long-distance links are generated.
  enum class LinkModel {
    kPowerLaw,    ///< ℓ links, P ∝ d^-exponent (the paper's main model)
    kBaseBFull,   ///< offsets {j·bⁱ} both directions (Theorem 14)
    kBaseBPowers  ///< offsets {bⁱ} both directions (Theorem 16)
  };
  LinkModel link_model = LinkModel::kPowerLaw;

  /// Long links per node for kPowerLaw (drawn independently with
  /// replacement, as in Theorem 13).
  std::size_t long_links = 1;

  /// Power-law exponent r (1 = the paper's distribution; 0 = uniform).
  double exponent = 1.0;

  /// Base b of the deterministic strategies.
  unsigned base = 2;

  /// Binomial node presence (§4.3.4.1): each grid point holds a node
  /// independently with this probability. 1.0 = fully populated.
  double presence = 1.0;

  /// How long links resolve when the sampled grid point has no node
  /// (only relevant when presence < 1).
  enum class SparseLinkMode {
    kRejection,  ///< re-draw until an occupied point is hit: the distribution
                 ///< conditioned on existence (Theorem 17's model)
    kSnap        ///< connect to the node closest to the sampled point
                 ///< (§5's basin-of-attraction behaviour)
  };
  SparseLinkMode sparse_mode = SparseLinkMode::kRejection;

  /// When set, every long link is usable in both directions (the reverse
  /// link is added unless already present). §2 models links as "n knows m's
  /// network address"; once contacted, both endpoints know each other, so
  /// the §6 experiments treat the overlay as bidirectional. The §4 theorems
  /// analyze directed out-links, so the analytical benches keep this off.
  bool bidirectional = false;

  /// Frozen representation of the built graph (see FreezeOptions::layout).
  EdgeLayout layout = EdgeLayout::kStandard;
};

/// Builds a frozen overlay per `spec`. All randomness comes from `rng`: each
/// node samples its long links from a private util::substream, so the result
/// depends only on (spec, rng). Node u's slice holds its short links, then
/// its long links in draw order, then (bidirectional) the reverse links it
/// gained, in ascending source order — the graph GraphBuilder yields for
/// wire_short_links, add_long_link per draw, make_bidirectional and freeze.
///
/// Throws std::invalid_argument on malformed specs (grid_size < 2,
/// presence outside (0,1], exponent < 0, base < 2).
[[nodiscard]] OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng);

/// As above, fanning every per-node pass — long-link sampling, link counting,
/// the reverse-link transpose, the slice fill and the freeze — across
/// `pool`. Bit-identical to the serial overload for any thread count.
/// Must not be called from inside a task already running on `pool`.
[[nodiscard]] OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng,
                                         util::ThreadPool& pool);

/// Builds Kleinberg's small-world torus (§2, [5]) as a frozen CSR overlay on
/// the shared routing hot path: side × side nodes, each wired to its four
/// lattice neighbours (short links; the two distinct ones at side 2, where
/// ±1 coincide) plus `long_links` long-range links drawn with
/// P ∝ d^-exponent under wrapped Manhattan distance. Long links are
/// directed, as in Kleinberg's model; lattice links exist both ways by
/// symmetry. Randomness follows the build_overlay contract: one substream
/// per node, so the graph depends only on (side, long_links, exponent, rng)
/// and serial and pooled builds are bit-identical.
///
/// Preconditions (throws std::invalid_argument): side >= 2, exponent >= 0,
/// long_links == 0 allowed (bare lattice).
[[nodiscard]] OverlayGraph build_kleinberg_overlay(std::uint32_t side,
                                                   std::size_t long_links,
                                                   double exponent, util::Rng& rng);

/// As above, fanning the build's per-node passes across `pool`.
[[nodiscard]] OverlayGraph build_kleinberg_overlay(std::uint32_t side,
                                                   std::size_t long_links,
                                                   double exponent, util::Rng& rng,
                                                   util::ThreadPool& pool);

}  // namespace p2p::graph
