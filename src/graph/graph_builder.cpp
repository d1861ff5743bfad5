#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/require.h"

namespace p2p::graph {

// ---------------------------------------------------------------------------
// GraphBuilder

GraphBuilder::GraphBuilder(metric::Space space)
    : space_(space),
      adjacency_(space.size()),
      short_degree_(space.size(), 0) {}

GraphBuilder::GraphBuilder(metric::Space space, std::vector<metric::Point> positions)
    : space_(space), positions_(std::move(positions)) {
  util::require(!positions_.empty(), "GraphBuilder: need at least one node");
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    util::require(space_.contains(positions_[i]),
                  "GraphBuilder: position outside the space");
    if (i > 0) {
      util::require(positions_[i - 1] < positions_[i],
                    "GraphBuilder: positions must be strictly increasing");
    }
  }
  adjacency_.resize(positions_.size());
  short_degree_.assign(positions_.size(), 0);
}

void GraphBuilder::check_node(NodeId u) const {
  util::require_in_range(u < adjacency_.size(), "GraphBuilder: node id out of range");
}

void GraphBuilder::reserve_links(std::size_t per_node) {
  for (auto& adj : adjacency_) adj.reserve(per_node);
}

void GraphBuilder::add_short_link(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (short_degree_[u] != adjacency_[u].size()) {
    throw std::logic_error("GraphBuilder: short links must precede long links");
  }
  adjacency_[u].push_back(v);
  ++short_degree_[u];
  ++link_count_;
}

void GraphBuilder::add_long_link(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  adjacency_[u].push_back(v);
  ++link_count_;
}

bool GraphBuilder::has_link(NodeId u, NodeId v) const noexcept {
  const auto& adj = adjacency_[u];
  return std::find(adj.begin(), adj.end(), v) != adj.end();
}

namespace {

/// Frees v's storage (assigning {} would keep its capacity).
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

/// True when per-node passes over n nodes fan out across `pool`: it has
/// workers to spare and n is large enough to repay the fan-out.
bool fans_out(const util::ThreadPool* pool, std::size_t n) {
  return pool != nullptr && pool->thread_count() > 1 && n >= 1024;
}

/// Runs body(lo, hi) over the node range [0, n), fanned per fans_out. Chunk
/// boundaries never change a result: every pass writes per-node slots fixed
/// by the node's id or by a prefix sum, and node u's randomness comes from
/// its own substream.
template <typename Body>
void for_nodes(util::ThreadPool* pool, std::size_t n, Body&& body) {
  if (fans_out(pool, n)) {
    pool->parallel_chunks(n, pool->thread_count() * 8, body);
  } else {
    body(0, n);
  }
}

/// Node u's short links among n index-ordered nodes of a 1-D space, in
/// wiring order: the next node, then the previous one. Index neighbours are
/// the nearest occupied grid points on either side; a ring wraps once it has
/// more than two nodes (with two, the u+1 branch already wires 0 <-> 1 once
/// each way). Writes them to out; returns how many.
std::size_t side_neighbors(std::size_t n, bool ring, NodeId u, NodeId* out) {
  std::size_t k = 0;
  if (u + 1 < n) {
    out[k++] = u + 1;
  } else if (ring && n > 2) {
    out[k++] = 0;
  }
  if (u > 0) {
    out[k++] = u - 1;
  } else if (ring && n > 2) {
    out[k++] = static_cast<NodeId>(n - 1);
  }
  return k;
}

}  // namespace

void GraphBuilder::wire_short_links() {
  // A 1-D notion; the torus wires its lattice in build_kleinberg_overlay.
  util::require(space_.one_dimensional(),
                "wire_short_links: side neighbours are only defined on a "
                "one-dimensional space (use build_kleinberg_overlay for the "
                "torus lattice)");
  const std::size_t n = size();
  const bool ring = space_.kind() == metric::Space::Kind::kRing;
  NodeId shorts[2];
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t k = side_neighbors(n, ring, u, shorts);
    for (std::size_t i = 0; i < k; ++i) add_short_link(u, shorts[i]);
  }
}

void GraphBuilder::make_bidirectional() {
  std::vector<NodeId> scratch;
  for (NodeId u = 0; u < size(); ++u) {
    // Snapshot u's current long neighbours before mutating anything.
    const auto longs = long_neighbors(u);
    scratch.assign(longs.begin(), longs.end());
    for (const NodeId v : scratch) {
      if (!has_link(v, u)) add_long_link(v, u);
    }
  }
}

OverlayGraph GraphBuilder::freeze(FreezeOptions opts) {
  return freeze_impl(nullptr, opts);
}

OverlayGraph GraphBuilder::freeze(util::ThreadPool& pool, FreezeOptions opts) {
  return freeze_impl(&pool, opts);
}

OverlayGraph GraphBuilder::freeze_impl(util::ThreadPool* pool, FreezeOptions opts) {
  util::require(link_count_ <= std::numeric_limits<std::uint32_t>::max(),
                "GraphBuilder::freeze: edge slot index overflow");
  const std::size_t n = adjacency_.size();
  std::vector<std::uint32_t> slice_sizes(n);
  std::vector<std::uint32_t> offsets(n);
  std::uint32_t offset = 0;
  for (std::size_t u = 0; u < n; ++u) {
    slice_sizes[u] = static_cast<std::uint32_t>(adjacency_[u].size());
    offsets[u] = offset;
    offset += slice_sizes[u];
  }
  // Every slice's destination is fixed by the prefix sum above, so packing
  // is embarrassingly parallel and bit-identical to the serial copy.
  std::vector<NodeId> edges(link_count_);
  for_nodes(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      std::copy(adjacency_[u].begin(), adjacency_[u].end(),
                edges.begin() + offsets[u]);
    }
  });
  std::vector<metric::Point> positions = std::move(positions_);
  std::vector<std::uint32_t> short_degree = std::move(short_degree_);
  // Leave the builder empty rather than half-moved-from, and release the
  // per-node buffers before the frozen form allocates.
  release(adjacency_);
  positions_.clear();
  short_degree_.clear();
  link_count_ = 0;
  return detail::freeze_csr(space_, std::move(positions), std::move(slice_sizes),
                            std::move(short_degree), std::move(edges), opts, pool);
}

// ---------------------------------------------------------------------------
// Ideal (one-shot) construction

namespace {

/// The nodes of an overlay under construction: dense (node u at position u)
/// when `positions` is empty, else the sorted occupied positions.
struct Nodes {
  metric::Space space;
  std::vector<metric::Point> positions;

  [[nodiscard]] std::size_t count() const noexcept {
    return positions.empty() ? space.size() : positions.size();
  }
  [[nodiscard]] metric::Point position(NodeId u) const noexcept {
    return positions.empty() ? static_cast<metric::Point>(u) : positions[u];
  }
  [[nodiscard]] NodeId at(metric::Point p) const noexcept {
    return detail::node_at(space, positions, p);
  }
  [[nodiscard]] NodeId nearest(metric::Point p) const noexcept {
    return detail::node_nearest(space, positions, p);
  }
};

/// Forward long links in flat form: row u of the count × width table holds
/// node u's targets in link order, kInvalidNode marking an empty slot.
struct LinkTable {
  std::size_t width = 0;
  std::vector<NodeId> targets;

  [[nodiscard]] const NodeId* row(std::size_t u) const noexcept {
    return targets.data() + u * width;
  }
};

std::vector<metric::Point> draw_present_positions(std::uint64_t grid_size,
                                                  double presence, util::Rng& rng) {
  std::vector<metric::Point> positions;
  positions.reserve(static_cast<std::size_t>(static_cast<double>(grid_size) * presence) + 16);
  // Re-draw until at least two nodes exist; with any sane presence this runs
  // once. (Theorem 17's analysis assumes a non-degenerate network.)
  for (int attempt = 0; attempt < 1024; ++attempt) {
    positions.clear();
    for (std::uint64_t p = 0; p < grid_size; ++p) {
      if (rng.next_bool(presence)) positions.push_back(static_cast<metric::Point>(p));
    }
    if (positions.size() >= 2) return positions;
  }
  util::require(false, "build_overlay: presence too small to populate the grid");
  return positions;  // unreachable
}

/// Samples node u's long-link targets into `out[0..long_links)` using u's
/// private rng; a slot is kInvalidNode when the draw produced no link.
void sample_power_law_targets(const Nodes& nodes, const BuildSpec& spec,
                              const PowerLawLinkSampler& sampler, NodeId u,
                              util::Rng& rng, NodeId* out) {
  const bool sparse = spec.presence < 1.0;
  constexpr int kMaxRejections = 256;
  const metric::Point src = nodes.position(u);
  for (std::size_t k = 0; k < spec.long_links; ++k) {
    NodeId target = kInvalidNode;
    if (!sparse) {
      target = nodes.at(sampler.sample_target(rng, src));
    } else if (spec.sparse_mode == BuildSpec::SparseLinkMode::kRejection) {
      for (int tries = 0; tries < kMaxRejections; ++tries) {
        const NodeId candidate = nodes.at(sampler.sample_target(rng, src));
        if (candidate != kInvalidNode) {
          target = candidate;
          break;
        }
      }
      if (target == kInvalidNode) {
        // Degenerate sparsity: fall back to snapping so the build finishes.
        target = nodes.nearest(sampler.sample_target(rng, src));
      }
    } else {
      target = nodes.nearest(sampler.sample_target(rng, src));
    }
    out[k] = target == u ? kInvalidNode : target;
  }
}

/// Draws every node's power-law long links (spec.long_links per node, with
/// replacement). Node u samples from util::substream(base, u), so the table
/// depends only on (spec, rng) and not on the pool.
LinkTable power_law_links(const Nodes& nodes, const BuildSpec& spec, util::Rng& rng,
                          util::ThreadPool* pool) {
  LinkTable links{.width = spec.long_links, .targets = {}};
  if (spec.long_links == 0) return links;  // before the base draw: no rng use
  const PowerLawLinkSampler sampler(nodes.space, spec.exponent);
  const std::uint64_t base = rng();
  links.targets.resize(nodes.count() * spec.long_links);
  for_nodes(pool, nodes.count(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      util::Rng node_rng = util::substream(base, u);
      sample_power_law_targets(nodes, spec, sampler, static_cast<NodeId>(u), node_rng,
                               links.targets.data() + u * spec.long_links);
    }
  });
  return links;
}

/// The deterministic base-b link sets: node u tries every offset in both
/// directions and keeps each target it is not yet linked to (short links
/// included), in offset order.
template <typename ShortFn>
LinkTable base_b_links(const Nodes& nodes, const BuildSpec& spec,
                       const ShortFn& shorts, util::ThreadPool* pool) {
  const auto offsets = spec.link_model == BuildSpec::LinkModel::kBaseBFull
                           ? base_b_full_offsets(nodes.space.size(), spec.base)
                           : base_b_power_offsets(nodes.space.size(), spec.base);
  const bool snap = spec.presence < 1.0 &&
                    spec.sparse_mode == BuildSpec::SparseLinkMode::kSnap;
  LinkTable links{.width = 2 * offsets.size(), .targets = {}};
  links.targets.assign(nodes.count() * links.width, kInvalidNode);
  for_nodes(pool, nodes.count(), [&](std::size_t lo, std::size_t hi) {
    NodeId linked[4];
    for (std::size_t u = lo; u < hi; ++u) {
      const auto id = static_cast<NodeId>(u);
      const std::size_t short_count = shorts(id, linked);
      NodeId* const row = links.targets.data() + u * links.width;
      NodeId* out = row;
      const metric::Point src = nodes.position(id);
      for (const std::uint64_t off : offsets) {
        for (const int sign : {+1, -1}) {
          const auto target_pos =
              nodes.space.offset(src, sign * static_cast<std::int64_t>(off));
          if (!target_pos) continue;  // fell off the line
          NodeId target = nodes.at(*target_pos);
          if (target == kInvalidNode && snap) target = nodes.nearest(*target_pos);
          if (target == kInvalidNode || target == id ||
              std::find(linked, linked + short_count, target) != linked + short_count ||
              std::find(row, out, target) != out) {
            continue;
          }
          *out++ = target;
        }
      }
    }
  });
  return links;
}

/// Calls visit(u, v) for every forward link u -> v in `links`, split by
/// target into one contiguous node range per pool worker (one range when the
/// passes do not fan out). Each range scans every row in ascending u, so the
/// calls for one target arrive in ascending source order, and no two ranges
/// share a target — the visitors need no atomics. Each range re-reads the
/// whole table, but sequentially; the random writes it splits cost more.
template <typename Visit>
void for_links_by_target(const LinkTable& links, std::size_t n, util::ThreadPool* pool,
                         Visit&& visit) {
  const std::size_t parts = fans_out(pool, n) ? pool->thread_count() : 1;
  const auto run = [&](std::size_t part) {
    const auto lo = static_cast<NodeId>(n * part / parts);
    const auto hi = static_cast<NodeId>(n * (part + 1) / parts);
    for (std::size_t u = 0; u < n; ++u) {
      const NodeId* row = links.row(u);
      for (std::size_t k = 0; k < links.width; ++k) {
        // kInvalidNode >= hi, so empty slots never match.
        if (row[k] >= lo && row[k] < hi) visit(static_cast<NodeId>(u), row[k]);
      }
    }
  };
  if (parts > 1) {
    pool->parallel_for(parts, run);
  } else {
    run(0);
  }
}

/// Assembles the frozen overlay over `nodes` from its short links
/// (shorts(u, out) writes node u's, at most four, and returns the count) and
/// its forward long links. With `bidirectional`, node v also gains a reverse
/// link v -> u for every u whose forward row holds v, unless v already links
/// to u; those reverse links follow v's forward row in ascending u, the
/// order GraphBuilder::make_bidirectional appends them in.
///
/// Four passes, each over all nodes: count every node's links, take their
/// prefix sum, fill the slices, and freeze. The reverse links come from a
/// transpose of the forward rows (count, then scatter each source into its
/// target's segment), filtered per node against the node's own links, so
/// no pass reads another node's row at random.
template <typename ShortFn>
OverlayGraph assemble(Nodes nodes, const ShortFn& shorts, LinkTable links,
                      bool bidirectional, FreezeOptions opts,
                      util::ThreadPool* pool) {
  const std::size_t n = nodes.count();
  const std::size_t width = links.width;
  std::vector<std::uint32_t> short_degree(n);
  std::vector<std::uint32_t> degree(n);
  const auto copy_forward = [&](std::size_t u, NodeId* out) {
    return std::copy_if(links.row(u), links.row(u) + width, out,
                        [](NodeId t) { return t != kInvalidNode; });
  };

  // (a) Count short and forward links.
  for_nodes(pool, n, [&](std::size_t lo, std::size_t hi) {
    NodeId out[4];
    for (std::size_t u = lo; u < hi; ++u) {
      short_degree[u] = static_cast<std::uint32_t>(shorts(static_cast<NodeId>(u), out));
      const NodeId* row = links.row(u);
      degree[u] = short_degree[u] + static_cast<std::uint32_t>(
                                        width - std::count(row, row + width, kInvalidNode));
    }
  });

  // Reverse-link sources of node v, once transposed and filtered:
  // rev_sources[rev_base[v] .. rev_base[v] + rev_count[v]).
  std::vector<std::uint32_t> rev_count(bidirectional ? n : 0);
  std::vector<std::uint32_t> rev_base;
  std::vector<NodeId> rev_sources;
  if (bidirectional) {
    for_links_by_target(links, n, pool, [&](NodeId, NodeId v) { ++rev_count[v]; });
    rev_base.resize(n + 1);
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < n; ++v) {
      rev_base[v] = static_cast<std::uint32_t>(total);
      total += rev_count[v];
      util::require(total <= std::numeric_limits<std::uint32_t>::max(),
                    "build: edge slot index overflow");
      rev_count[v] = rev_base[v];  // the scatter's cursor
    }
    rev_base[n] = static_cast<std::uint32_t>(total);
    rev_sources.resize(total);
    for_links_by_target(links, n, pool, [&](NodeId u, NodeId v) {
      rev_sources[rev_count[v]++] = u;
    });
    // Segments are sorted; drop repeats (a row may name v twice) and the
    // sources v already links to.
    for_nodes(pool, n, [&](std::size_t lo, std::size_t hi) {
      std::vector<NodeId> own(4 + width);
      for (std::size_t v = lo; v < hi; ++v) {
        NodeId* const own_begin = own.data();
        NodeId* const own_end =
            copy_forward(v, own_begin + shorts(static_cast<NodeId>(v), own_begin));
        NodeId* const first = rev_sources.data() + rev_base[v];
        NodeId* const last = std::remove_if(
            first, std::unique(first, rev_sources.data() + rev_base[v + 1]),
            [&](NodeId u) { return std::find(own_begin, own_end, u) != own_end; });
        rev_count[v] = static_cast<std::uint32_t>(last - first);
        degree[v] += rev_count[v];
      }
    });
  }

  // (b) Slice offsets.
  std::vector<std::uint32_t> offset(n);
  std::uint64_t total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    offset[u] = static_cast<std::uint32_t>(total);
    total += degree[u];
    util::require(total <= std::numeric_limits<std::uint32_t>::max(),
                  "build: edge slot index overflow");
  }

  // (c) Fill: short links, then forward links, then reverse links.
  std::vector<NodeId> edges(total);
  for_nodes(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      NodeId* out = edges.data() + offset[u];
      out = copy_forward(u, out + shorts(static_cast<NodeId>(u), out));
      if (bidirectional) {
        std::copy_n(rev_sources.data() + rev_base[u], rev_count[u], out);
      }
    }
  });

  // (d) Freeze, with the build's scratch released first.
  release(links.targets);
  release(rev_count);
  release(rev_base);
  release(rev_sources);
  release(offset);
  return detail::freeze_csr(nodes.space, std::move(nodes.positions), std::move(degree),
                            std::move(short_degree), std::move(edges), opts, pool);
}

/// Shared implementation of the two public overloads (pool may be null).
OverlayGraph build_overlay_impl(const BuildSpec& spec, util::Rng& rng,
                                util::ThreadPool* pool) {
  util::require(spec.grid_size >= 2, "build_overlay: grid_size must be >= 2");
  util::require(spec.presence > 0.0 && spec.presence <= 1.0,
                "build_overlay: presence must be in (0,1]");
  util::require(spec.exponent >= 0.0, "build_overlay: exponent must be >= 0");
  util::require(spec.base >= 2 || spec.link_model == BuildSpec::LinkModel::kPowerLaw,
                "build_overlay: base must be >= 2");

  const metric::Space1D space = spec.topology == metric::Space1D::Kind::kRing
                                    ? metric::Space1D::ring(spec.grid_size)
                                    : metric::Space1D::line(spec.grid_size);
  Nodes nodes{.space = space, .positions = {}};
  if (spec.presence < 1.0) {
    nodes.positions = draw_present_positions(spec.grid_size, spec.presence, rng);
  }
  const bool ring = spec.topology == metric::Space1D::Kind::kRing;
  const auto shorts = [n = nodes.count(), ring](NodeId u, NodeId* out) {
    return side_neighbors(n, ring, u, out);
  };
  LinkTable links = spec.link_model == BuildSpec::LinkModel::kPowerLaw
                        ? power_law_links(nodes, spec, rng, pool)
                        : base_b_links(nodes, spec, shorts, pool);
  return assemble(std::move(nodes), shorts, std::move(links), spec.bidirectional,
                  FreezeOptions{.layout = spec.layout}, pool);
}

}  // namespace

OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng) {
  return build_overlay_impl(spec, rng, nullptr);
}

OverlayGraph build_overlay(const BuildSpec& spec, util::Rng& rng,
                           util::ThreadPool& pool) {
  return build_overlay_impl(spec, rng, &pool);
}

namespace {

OverlayGraph build_kleinberg_overlay_impl(std::uint32_t side,
                                          std::size_t long_links, double exponent,
                                          util::Rng& rng, util::ThreadPool* pool) {
  util::require(side >= 2, "build_kleinberg_overlay: side must be >= 2");
  util::require(exponent >= 0.0, "build_kleinberg_overlay: exponent must be >= 0");
  const metric::Torus2D torus(side);
  util::require(torus.size() <= std::numeric_limits<NodeId>::max(),
                "build_kleinberg_overlay: torus larger than the node id space");

  // Four lattice neighbours per node (wrapping, so every node has all four).
  // These are the "short" links a failure model keeps alive, exactly like
  // the ±1 links of the 1-D overlays. At side 2 the ±1 neighbours coincide,
  // so only the two distinct ones are wired: duplicate slots would make
  // slot-keyed link kills silent no-ops (the twin slot stays alive).
  const bool tiny = side == 2;
  const auto shorts = [&torus, tiny](NodeId u, NodeId* out) {
    const auto [row, col] = torus.coords(static_cast<metric::Point>(u));
    const auto r = static_cast<std::int64_t>(row);
    const auto c = static_cast<std::int64_t>(col);
    std::size_t k = 0;
    out[k++] = static_cast<NodeId>(torus.at(r + 1, c));
    if (!tiny) out[k++] = static_cast<NodeId>(torus.at(r - 1, c));
    out[k++] = static_cast<NodeId>(torus.at(r, c + 1));
    if (!tiny) out[k++] = static_cast<NodeId>(torus.at(r, c - 1));
    return k;
  };
  // Long-range links through the same sampler and per-node substreams as the
  // 1-D builds; only the long-link fields of the spec are read (the torus is
  // always fully populated).
  BuildSpec link_spec;
  link_spec.long_links = long_links;
  link_spec.exponent = exponent;
  Nodes nodes{.space = metric::Space(torus), .positions = {}};
  LinkTable links = power_law_links(nodes, link_spec, rng, pool);
  return assemble(std::move(nodes), shorts, std::move(links), false, FreezeOptions{},
                  pool);
}

}  // namespace

OverlayGraph build_kleinberg_overlay(std::uint32_t side, std::size_t long_links,
                                     double exponent, util::Rng& rng) {
  return build_kleinberg_overlay_impl(side, long_links, exponent, rng, nullptr);
}

OverlayGraph build_kleinberg_overlay(std::uint32_t side, std::size_t long_links,
                                     double exponent, util::Rng& rng,
                                     util::ThreadPool& pool) {
  return build_kleinberg_overlay_impl(side, long_links, exponent, rng, &pool);
}

}  // namespace p2p::graph
