#include "graph/overlay_graph.h"

#include <algorithm>
#include <limits>

#include "util/require.h"
#include "util/thread_pool.h"

namespace p2p::graph {

namespace detail {

NodeId node_at(const metric::Space& space,
               std::span<const metric::Point> positions, metric::Point p) noexcept {
  if (positions.empty()) {
    return space.contains(p) ? static_cast<NodeId>(p) : kInvalidNode;
  }
  const auto it = std::lower_bound(positions.begin(), positions.end(), p);
  if (it == positions.end() || *it != p) return kInvalidNode;
  return static_cast<NodeId>(it - positions.begin());
}

NodeId node_nearest(const metric::Space& space,
                    std::span<const metric::Point> positions,
                    metric::Point p) noexcept {
  if (positions.empty()) {
    return space.contains(p) ? static_cast<NodeId>(p) : kInvalidNode;
  }
  NodeId best = kInvalidNode;
  metric::Distance best_d = 0;
  const auto consider = [&](std::size_t idx) {
    const auto id = static_cast<NodeId>(idx);
    const metric::Distance d = space.distance(positions[idx], p);
    if (best == kInvalidNode || d < best_d ||
        (d == best_d && positions[idx] < positions[best])) {
      best = id;
      best_d = d;
    }
  };
  if (!space.one_dimensional()) {
    // Flattened row-major order is not metric order on a torus, so the
    // sorted-positions bisection below does not apply; scan.
    for (std::size_t idx = 0; idx < positions.size(); ++idx) consider(idx);
    return best;
  }
  const auto it = std::lower_bound(positions.begin(), positions.end(), p);
  // Candidate indices around the insertion point; on a ring also the two ends
  // (wraparound neighbours).
  if (it != positions.end()) consider(static_cast<std::size_t>(it - positions.begin()));
  if (it != positions.begin())
    consider(static_cast<std::size_t>(it - positions.begin()) - 1);
  if (space.kind() == metric::Space::Kind::kRing) {
    consider(0);
    consider(positions.size() - 1);
  }
  return best;
}

}  // namespace detail

namespace {

/// Zigzag map: 0,-1,1,-2,... -> 0,1,2,3,...
inline std::uint64_t zigzag64(std::int64_t d) noexcept {
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

/// u16 words the compact encoding of link u -> v occupies.
inline std::size_t encoded_words(NodeId u, NodeId v) noexcept {
  return zigzag64(static_cast<std::int64_t>(v) - static_cast<std::int64_t>(u)) <
                 detail::kEscapeWord
             ? 1
             : 3;
}

/// Appends the encoding of u -> v at p; returns the advanced cursor.
inline std::uint16_t* encode_link(std::uint16_t* p, NodeId u, NodeId v) noexcept {
  const std::uint64_t zz =
      zigzag64(static_cast<std::int64_t>(v) - static_cast<std::int64_t>(u));
  if (zz < detail::kEscapeWord) {
    *p++ = static_cast<std::uint16_t>(zz);
    return p;
  }
  *p++ = detail::kEscapeWord;
  *p++ = static_cast<std::uint16_t>(v & 0xFFFFu);
  *p++ = static_cast<std::uint16_t>(v >> 16);
  return p;
}

/// Runs body(lo, hi) over [0, jobs): fanned across `pool` when there is one
/// and the job is large enough to repay the fan-out, inline otherwise.
template <typename Body>
void fan(util::ThreadPool* pool, std::size_t jobs, Body&& body) {
  if (pool != nullptr && jobs >= 1024) {
    pool->parallel_chunks(jobs, pool->thread_count() * 4, body);
  } else {
    body(0, jobs);
  }
}

}  // namespace

OverlayGraph detail::freeze_csr(metric::Space space,
                                std::vector<metric::Point> positions,
                                std::vector<std::uint32_t> degrees,
                                std::vector<std::uint32_t> short_degree,
                                std::vector<NodeId> edges, FreezeOptions opts,
                                util::ThreadPool* pool) {
  util::require(edges.size() <= std::numeric_limits<std::uint32_t>::max(),
                "freeze: edge slot index overflow");
  if (opts.layout == EdgeLayout::kCompact) {
    return OverlayGraph::freeze_compact(space, std::move(positions), degrees,
                                        short_degree, edges, opts.huge_pages, pool);
  }
  return OverlayGraph(space, std::move(positions), std::move(degrees),
                      std::move(short_degree), std::move(edges), pool);
}

OverlayGraph::OverlayGraph(metric::Space space, std::vector<metric::Point> positions,
                           std::vector<std::uint32_t> slice_sizes,
                           std::vector<std::uint32_t> short_degree,
                           std::vector<NodeId> edges, util::ThreadPool* pool)
    : space_(space),
      positions_(std::move(positions)),
      short_degree_(std::move(short_degree)),
      edges_(std::move(edges)),
      link_count_(edges_.size()) {
  const std::size_t n = slice_sizes.size();
  node_count_ = n;
  headers_.resize(n + 1);
  std::uint32_t offset = 0;
  std::uint32_t tail = 0;
  for (std::size_t u = 0; u < n; ++u) {
    NodeHeader& h = headers_[u];
    const std::uint32_t degree = slice_sizes[u];
    h.offset = offset;
    h.tail = tail;
    h.degree = degree;
    tail += degree > kInlineEdges ? degree - static_cast<std::uint32_t>(kInlineEdges) : 0;
    offset += degree;
  }
  headers_[n].offset = offset;
  headers_[n].tail = tail;
  tail_.resize(tail);
  // Every node's inline prefix and spill land at bases fixed above, so the
  // copies fan out with no effect on the result.
  fan(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      NodeHeader& h = headers_[u];
      const std::uint32_t inl =
          h.degree < kInlineEdges ? h.degree : static_cast<std::uint32_t>(kInlineEdges);
      std::copy_n(edges_.begin() + h.offset, inl, h.inline_edges);
      std::copy(edges_.begin() + h.offset + inl, edges_.begin() + h.offset + h.degree,
                tail_.begin() + h.tail);
    }
  });
}

OverlayGraph::OverlayGraph(metric::Space space, std::vector<metric::Point> positions,
                           CompactTag) noexcept
    : space_(space),
      positions_(std::move(positions)),
      layout_(EdgeLayout::kCompact) {}

OverlayGraph::OverlayGraph(const OverlayGraph& other)
    : space_(other.space_),
      positions_(other.positions_),
      node_count_(other.node_count_),
      layout_(other.layout_),
      headers_(other.headers_),
      short_degree_(other.short_degree_),
      edges_(other.edges_),
      tail_(other.tail_),
      link_count_(other.link_count_) {
  if (other.layout_ == EdgeLayout::kCompact) {
    auto* ch = arena_.allocate_array<CompactHeader>(node_count_ + 1);
    std::copy_n(other.cheaders_, node_count_ + 1, ch);
    auto* stream = arena_.allocate_array<std::uint16_t>(other.enc_words_);
    std::copy_n(other.enc_, other.enc_words_, stream);
    cheaders_ = ch;
    enc_ = stream;
    enc_words_ = other.enc_words_;
  }
}

OverlayGraph& OverlayGraph::operator=(const OverlayGraph& other) {
  if (this != &other) *this = OverlayGraph(other);
  return *this;
}

OverlayGraph OverlayGraph::freeze_compact(
    metric::Space space, std::vector<metric::Point> positions,
    const std::vector<std::uint32_t>& slice_sizes,
    const std::vector<std::uint32_t>& short_degree,
    const std::vector<NodeId>& edges, bool huge_pages, util::ThreadPool* pool) {
  const std::size_t n = slice_sizes.size();
  OverlayGraph g(space, std::move(positions), CompactTag{});
  g.node_count_ = n;
  g.arena_ = util::Arena(util::Arena::kDefaultChunkBytes, huge_pages);
  g.link_count_ = edges.size();

  // Slot bases (shared keying with the standard layout).
  std::vector<std::uint64_t> slot_off(n + 1);
  slot_off[0] = 0;
  for (std::size_t u = 0; u < n; ++u) slot_off[u + 1] = slot_off[u] + slice_sizes[u];
  util::require(slot_off[n] == edges.size(),
                "freeze_compact: slice sizes disagree with the edge array");

  // Pass 1: per-node encoded length, rounded up to a whole 2-word unit so
  // the u32 `enc` header field addresses streams past 2^32 words.
  std::vector<std::uint32_t> unit_len(n);
  fan(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      std::size_t words = 0;
      const std::size_t base = slot_off[u];
      for (std::size_t i = 0; i < slice_sizes[u]; ++i) {
        words += encoded_words(static_cast<NodeId>(u), edges[base + i]);
      }
      unit_len[u] = static_cast<std::uint32_t>((words + 1) / 2);
    }
  });

  std::vector<std::uint64_t> enc_unit_off(n + 1);
  enc_unit_off[0] = 0;
  for (std::size_t u = 0; u < n; ++u) enc_unit_off[u + 1] = enc_unit_off[u] + unit_len[u];
  util::require(enc_unit_off[n] <= std::numeric_limits<std::uint32_t>::max(),
                "freeze_compact: encoded stream exceeds the addressable range");
  const std::uint64_t total_words = enc_unit_off[n] * 2;

  auto* ch = g.arena_.allocate_array<CompactHeader>(n + 1);
  auto* stream = g.arena_.allocate_array<std::uint16_t>(
      static_cast<std::size_t>(total_words));

  // Pass 2: headers + encoding (parallel: workers first-touch their span of
  // the arena pages, which matters once shards pin their build pools).
  fan(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      CompactHeader& h = ch[u];
      h.offset = static_cast<std::uint32_t>(slot_off[u]);
      h.enc = static_cast<std::uint32_t>(enc_unit_off[u]);
      h.degree = slice_sizes[u];
      h.short_degree = static_cast<std::uint16_t>(short_degree[u]);
      h.reserved = 0;
      std::uint16_t* p = stream + enc_unit_off[u] * 2;
      std::uint16_t* const end = stream + enc_unit_off[u + 1] * 2;
      const std::size_t base = slot_off[u];
      for (std::size_t i = 0; i < slice_sizes[u]; ++i) {
        p = encode_link(p, static_cast<NodeId>(u), edges[base + i]);
      }
      if (p != end) *p = 0;  // even-unit padding word
    }
  });
  ch[n] = CompactHeader{static_cast<std::uint32_t>(slot_off[n]),
                        static_cast<std::uint32_t>(enc_unit_off[n]), 0, 0, 0};

  g.cheaders_ = ch;
  g.enc_ = stream;
  g.enc_words_ = total_words;
  return g;
}

bool OverlayGraph::has_link(NodeId u, NodeId v) const noexcept {
  const auto adj = neighbors(u);
  return std::find(adj.begin(), adj.end(), v) != adj.end();
}

std::vector<std::uint32_t> OverlayGraph::in_degrees() const {
  std::vector<std::uint32_t> degrees(size(), 0);
  for (NodeId u = 0; u < size(); ++u) {
    for (const NodeId v : neighbors(u)) ++degrees[v];
  }
  return degrees;
}

std::vector<metric::Distance> OverlayGraph::long_link_lengths() const {
  std::vector<metric::Distance> lengths;
  lengths.reserve(link_count_);
  for (NodeId u = 0; u < size(); ++u) {
    for (NodeId v : long_neighbors(u)) {
      lengths.push_back(node_distance(u, v));
    }
  }
  return lengths;
}

OverlayGraph::MemoryBreakdown OverlayGraph::memory_breakdown() const noexcept {
  MemoryBreakdown m;
  m.positions = positions_.size() * sizeof(metric::Point);
  if (layout_ == EdgeLayout::kCompact) {
    m.headers = (node_count_ + 1) * sizeof(CompactHeader);
    m.edges = static_cast<std::size_t>(enc_words_) * sizeof(std::uint16_t);
  } else {
    m.headers = headers_.size() * sizeof(NodeHeader);
    m.edges = edges_.size() * sizeof(NodeId);
    m.tail = tail_.size() * sizeof(NodeId);
    m.short_degrees = short_degree_.size() * sizeof(std::uint32_t);
  }
  return m;
}

std::size_t OverlayGraph::standard_layout_bytes() const noexcept {
  const std::size_t n = node_count_;
  std::size_t spill = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t deg = out_degree(u);
    if (deg > kInlineEdges) spill += deg - kInlineEdges;
  }
  return (n + 1) * sizeof(NodeHeader) + n * sizeof(std::uint32_t) +
         edge_slots() * sizeof(NodeId) + spill * sizeof(NodeId);
}

}  // namespace p2p::graph
