// Unit + property tests for the graph substrate: overlay store, link
// distributions and the ideal builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/link_distribution.h"
#include "graph/overlay_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::graph {
namespace {

using metric::Space1D;

// A graph is immutable once built: no edgeless public constructor, and no
// way to add, rewire or drop a link afterwards.
template <class G>
concept Mutable = requires(G& g) { g.add_long_link(NodeId{}, NodeId{}); };
static_assert(!std::is_constructible_v<OverlayGraph, metric::Space>);
static_assert(!Mutable<OverlayGraph>);
static_assert(Mutable<GraphBuilder>);

TEST(OverlayGraph, DensePositionsAreIdentity) {
  const OverlayGraph g = GraphBuilder(Space1D::ring(8)).freeze();
  EXPECT_EQ(g.size(), 8u);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.position(u), static_cast<metric::Point>(u));
  EXPECT_EQ(g.node_at(5), 5u);
  EXPECT_EQ(g.node_nearest(5), 5u);
}

TEST(OverlayGraph, SparsePositionsMapCorrectly) {
  const OverlayGraph g = GraphBuilder(Space1D::line(100), {3, 10, 50, 99}).freeze();
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.position(2), 50);
  EXPECT_EQ(g.node_at(10), 1u);
  EXPECT_EQ(g.node_at(11), kInvalidNode);
}

TEST(OverlayGraph, NodeNearestPicksClosest) {
  const OverlayGraph g = GraphBuilder(Space1D::line(100), {3, 10, 50, 99}).freeze();
  EXPECT_EQ(g.node_nearest(4), 0u);
  EXPECT_EQ(g.node_nearest(7), 1u);   // 7 is 4 from 3, 3 from 10
  EXPECT_EQ(g.node_nearest(30), 1u);  // 20 from 10, 20 from 50 -> lower position
  EXPECT_EQ(g.node_nearest(80), 3u);
}

TEST(OverlayGraph, NodeNearestWrapsOnRing) {
  const OverlayGraph g = GraphBuilder(Space1D::ring(100), {10, 90}).freeze();
  EXPECT_EQ(g.node_nearest(99), 1u);  // 9 from 90, 11 from 10 via wrap
  EXPECT_EQ(g.node_nearest(1), 0u);   // 9 from 10, 11 from 90 via wrap
}

TEST(OverlayGraph, NeighborSpansSplitShortAndLong) {
  GraphBuilder b(Space1D::line(5));
  b.add_short_link(2, 1);
  b.add_short_link(2, 3);
  b.add_long_link(2, 0);
  const OverlayGraph g = b.freeze();
  EXPECT_EQ(g.short_degree(2), 2u);
  EXPECT_EQ(g.out_degree(2), 3u);
  ASSERT_EQ(g.long_neighbors(2).size(), 1u);
  EXPECT_EQ(g.long_neighbors(2)[0], 0u);
  EXPECT_EQ(g.link_count(), 3u);
}

TEST(OverlayGraph, InDegreesCountIncomingLinks) {
  GraphBuilder b(Space1D::line(4));
  b.add_long_link(0, 2);
  b.add_long_link(1, 2);
  b.add_long_link(3, 2);
  b.add_long_link(2, 0);
  const auto in = b.freeze().in_degrees();
  EXPECT_EQ(in[2], 3u);
  EXPECT_EQ(in[0], 1u);
  EXPECT_EQ(in[1], 0u);
}

TEST(OverlayGraph, LongLinkLengths) {
  GraphBuilder b(Space1D::ring(10));
  b.add_short_link(0, 1);
  b.add_long_link(0, 4);  // length 4
  b.add_long_link(0, 9);  // length 1 on the ring
  const auto lengths = b.freeze().long_link_lengths();
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 4u);
  EXPECT_EQ(lengths[1], 1u);
}

TEST(GraphBuilder, ShortLinksMustPrecedeLongLinks) {
  GraphBuilder b(Space1D::line(4));
  b.add_short_link(0, 1);
  b.add_long_link(0, 2);
  EXPECT_THROW(b.add_short_link(0, 3), std::logic_error);
}

TEST(GraphBuilder, RejectsUnsortedSparsePositions) {
  EXPECT_THROW(GraphBuilder(Space1D::line(10), {5, 3}), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space1D::line(10), {3, 3}), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(Space1D::line(10), {3, 11}), std::invalid_argument);
}

// -- Power-law sampler --------------------------------------------------------

TEST(PowerLawLinkSampler, NeverReturnsSource) {
  const PowerLawLinkSampler s(Space1D::ring(64), 1.0);
  util::Rng rng(1);
  for (int i = 0; i < 5000; ++i) EXPECT_NE(s.sample_target(rng, 17), 17);
}

TEST(PowerLawLinkSampler, ProbabilitiesSumToOneOnRing) {
  const PowerLawLinkSampler s(Space1D::ring(16), 1.0);
  double total = 0.0;
  for (metric::Point v = 0; v < 16; ++v) total += s.probability(3, v);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PowerLawLinkSampler, ProbabilitiesSumToOneOnLine) {
  for (const metric::Point src : {0, 5, 15}) {
    const PowerLawLinkSampler s(Space1D::line(16), 1.0);
    double total = 0.0;
    for (metric::Point v = 0; v < 16; ++v) total += s.probability(src, v);
    EXPECT_NEAR(total, 1.0, 1e-12) << "src=" << src;
  }
}

TEST(PowerLawLinkSampler, InverseDistanceShapeOnRing) {
  const PowerLawLinkSampler s(Space1D::ring(64), 1.0);
  // P(distance d) should be proportional to 1/d for each individual node.
  const double p1 = s.probability(0, 1);
  const double p4 = s.probability(0, 4);
  const double p16 = s.probability(0, 16);
  EXPECT_NEAR(p1 / p4, 4.0, 1e-9);
  EXPECT_NEAR(p4 / p16, 4.0, 1e-9);
}

TEST(PowerLawLinkSampler, ExponentZeroIsUniform) {
  const PowerLawLinkSampler s(Space1D::ring(32), 0.0);
  const double p = s.probability(0, 1);
  for (metric::Point v = 1; v < 32; ++v) {
    EXPECT_NEAR(s.probability(0, v), p, 1e-12);
  }
}

TEST(PowerLawLinkSampler, EmpiricalMatchesExactOnRing) {
  const Space1D space = Space1D::ring(128);
  const PowerLawLinkSampler s(space, 1.0);
  util::Rng rng(7);
  constexpr int kDraws = 400'000;
  std::vector<double> freq(128, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    freq[static_cast<std::size_t>(s.sample_target(rng, 0))] += 1.0;
  }
  for (metric::Point v = 1; v < 128; ++v) {
    const double p = s.probability(0, v);
    const double sigma = std::sqrt(p * (1 - p) / kDraws);
    EXPECT_NEAR(freq[static_cast<std::size_t>(v)] / kDraws, p, 6 * sigma + 1e-4)
        << "v=" << v;
  }
}

TEST(PowerLawLinkSampler, EmpiricalMatchesExactOnLineEdges) {
  // A node at the line's edge has only one side to link to.
  const Space1D space = Space1D::line(64);
  const PowerLawLinkSampler s(space, 1.0);
  util::Rng rng(9);
  constexpr int kDraws = 200'000;
  std::vector<double> freq(64, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    const metric::Point t = s.sample_target(rng, 0);
    ASSERT_GT(t, 0);
    freq[static_cast<std::size_t>(t)] += 1.0;
  }
  for (metric::Point v = 1; v < 64; ++v) {
    const double p = s.probability(0, v);
    const double sigma = std::sqrt(p * (1 - p) / kDraws);
    EXPECT_NEAR(freq[static_cast<std::size_t>(v)] / kDraws, p, 6 * sigma + 1e-4);
  }
}

TEST(PowerLawLinkSampler, TinySpaces) {
  util::Rng rng(11);
  const PowerLawLinkSampler ring2(Space1D::ring(2), 1.0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ring2.sample_target(rng, 0), 1);
  const PowerLawLinkSampler ring3(Space1D::ring(3), 1.0);
  for (int i = 0; i < 20; ++i) EXPECT_NE(ring3.sample_target(rng, 1), 1);
  const PowerLawLinkSampler line2(Space1D::line(2), 1.0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(line2.sample_target(rng, 1), 0);
}

TEST(PowerLawLinkSampler, RejectsBadParameters) {
  EXPECT_THROW(PowerLawLinkSampler(Space1D::ring(1), 1.0), std::invalid_argument);
  EXPECT_THROW(PowerLawLinkSampler(Space1D::ring(8), -0.5), std::invalid_argument);
}

TEST(PowerLawLinkSampler, GuidedSearchMatchesFullInverseCdf) {
  // Every draw must land exactly where a plain std::upper_bound over the
  // whole prefix-sum table puts it. The reference replays each draw's first
  // uniforms on a clone of the rng and rebuilds the table from scratch; on
  // the torus it checks the drawn radius (the only searched quantity).
  constexpr int kDraws = 1'000'000;
  const auto prefix_table = [](const metric::Space& space, double r) {
    std::vector<double> prefix(space.diameter() + 1, 0.0);
    for (metric::Distance d = 1; d <= space.diameter(); ++d) {
      const double weight =
          space.one_dimensional()
              ? 1.0
              : static_cast<double>(space.as_torus().ring_size(d));
      prefix[d] = prefix[d - 1] + weight * std::pow(static_cast<double>(d), -r);
    }
    return prefix;
  };
  // upper_bound over prefix[1..limit], clamped to limit.
  const auto full_search = [](const std::vector<double>& prefix, double v,
                              metric::Distance limit) {
    const auto it = std::upper_bound(
        prefix.begin() + 1, prefix.begin() + static_cast<std::ptrdiff_t>(limit) + 1, v);
    return std::min<metric::Distance>(
        static_cast<metric::Distance>(it - prefix.begin()), limit);
  };
  const auto check = [&](const metric::Space& space, double r,
                         const std::vector<metric::Point>& sources,
                         const std::string& label) {
    const PowerLawLinkSampler sampler(space, r);
    const std::vector<double> prefix = prefix_table(space, r);
    util::Rng rng(61);
    for (int i = 0; i < kDraws; ++i) {
      const metric::Point src = sources[static_cast<std::size_t>(i) % sources.size()];
      util::Rng clone = rng;
      const metric::Point got = sampler.sample_target(rng, src);
      if (space.kind() == metric::Space::Kind::kTorus2D) {
        const metric::Distance d =
            full_search(prefix, clone.next_double() * prefix.back(), space.diameter());
        if (space.distance(src, got) != d) {
          FAIL() << label << " draw " << i << ": radius " << space.distance(src, got)
                 << ", want " << d;
        }
        continue;
      }
      metric::Point want = 0;
      if (space.kind() == metric::Space::Kind::kLine) {
        const auto left = static_cast<metric::Distance>(src);
        const auto right = space.size() - 1 - left;
        const bool go_left =
            clone.next_double() * (prefix[left] + prefix[right]) < prefix[left];
        const metric::Distance limit = go_left ? left : right;
        const metric::Distance d =
            full_search(prefix, clone.next_double() * prefix[limit], limit);
        want = go_left ? src - static_cast<metric::Point>(d)
                       : src + static_cast<metric::Point>(d);
      } else {
        const std::uint64_t n = space.size();
        const metric::Distance half = n / 2;
        const double antipode_w =
            n % 2 == 0 ? std::pow(static_cast<double>(half), -r) : 0.0;
        const double u = clone.next_double() * (2.0 * prefix[half] - antipode_w);
        const bool clockwise = u < prefix[half];
        const metric::Distance d =
            clockwise ? full_search(prefix, u, half)
                      : full_search(prefix, u - prefix[half],
                                    n % 2 == 0 ? half - 1 : half);
        want = *space.offset(src, clockwise ? static_cast<std::int64_t>(d)
                                            : -static_cast<std::int64_t>(d));
      }
      // A plain compare per draw: an assertion each would dominate the run.
      if (got != want) FAIL() << label << " draw " << i << ": " << got << ", want " << want;
    }
  };
  for (const double r : {0.0, 0.5, 1.0, 2.0}) {
    const std::string tag = " r=" + std::to_string(r);
    for (const std::uint64_t n : {2ULL, 3ULL, 5ULL, 1'000'000ULL}) {
      check(Space1D::ring(n), r, {0, static_cast<metric::Point>(n / 2)},
            "ring n=" + std::to_string(n) + tag);
    }
    for (const std::uint64_t n : {2ULL, 5ULL, 1'000'000ULL}) {
      const auto last = static_cast<metric::Point>(n - 1);
      check(Space1D::line(n), r, {0, static_cast<metric::Point>(n / 2), last},
            "line n=" + std::to_string(n) + tag);
    }
    for (const std::uint32_t side : {2u, 3u, 64u}) {
      const metric::Torus2D torus(side);
      check(metric::Space(torus), r,
            {0, static_cast<metric::Point>(torus.size() / 2)},
            "torus side=" + std::to_string(side) + tag);
    }
  }
}

// -- Deterministic link sets ---------------------------------------------------

TEST(BaseBOffsets, FullSetBase2) {
  // {1, 2, 4, 8} for n = 16 (digits {1} times powers below n).
  EXPECT_EQ(base_b_full_offsets(16, 2),
            (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(BaseBOffsets, FullSetBase4) {
  // digits {1,2,3} x powers {1,4,16} -> {1,2,3,4,8,12,16,32,48} for n = 64.
  EXPECT_EQ(base_b_full_offsets(64, 4),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 8, 12, 16, 32, 48}));
}

TEST(BaseBOffsets, PowersOnlySet) {
  EXPECT_EQ(base_b_power_offsets(100, 10), (std::vector<std::uint64_t>{1, 10}));
  EXPECT_EQ(base_b_power_offsets(101, 10),
            (std::vector<std::uint64_t>{1, 10, 100}));
}

TEST(BaseBOffsets, CanExpressEveryDistance) {
  // Greedy digit elimination must be able to cover any distance below n.
  const std::uint64_t n = 1000;
  for (const unsigned base : {2u, 3u, 10u}) {
    const auto offsets = base_b_full_offsets(n, base);
    for (std::uint64_t target : {1ULL, 7ULL, 999ULL, 512ULL}) {
      std::uint64_t remaining = target;
      std::size_t steps = 0;
      while (remaining > 0 && steps < 64) {
        // largest offset <= remaining
        const auto it =
            std::upper_bound(offsets.begin(), offsets.end(), remaining);
        ASSERT_NE(it, offsets.begin());
        remaining -= *std::prev(it);
        ++steps;
      }
      EXPECT_EQ(remaining, 0u) << "base=" << base << " target=" << target;
    }
  }
}

TEST(BaseBOffsets, RejectBadParameters) {
  EXPECT_THROW(base_b_full_offsets(10, 1), std::invalid_argument);
  EXPECT_THROW(base_b_full_offsets(1, 2), std::invalid_argument);
  EXPECT_THROW(base_b_power_offsets(10, 0), std::invalid_argument);
}

// -- Unified sampler on the Kleinberg torus -----------------------------------

TEST(TorusSampler, NeverReturnsSourceAndStaysInGrid) {
  const metric::Torus2D torus(8);
  const PowerLawLinkSampler s(metric::Space(torus), 2.0);
  util::Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const metric::Point t = s.sample_target(rng, 11);
    EXPECT_NE(t, 11);
    EXPECT_TRUE(torus.contains(t));
  }
}

TEST(TorusSampler, RadiusDistributionMatchesWeights) {
  const metric::Torus2D torus(9);
  const double r = 2.0;
  const PowerLawLinkSampler s(metric::Space(torus), r);
  util::Rng rng(17);
  constexpr int kDraws = 200'000;
  std::vector<double> by_radius(torus.diameter() + 1, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    by_radius[torus.distance(0, s.sample_target(rng, 0))] += 1.0;
  }
  double norm = 0.0;
  for (metric::Distance d = 1; d <= torus.diameter(); ++d) {
    norm += static_cast<double>(torus.ring_size(d)) * std::pow(d, -r);
  }
  for (metric::Distance d = 1; d <= torus.diameter(); ++d) {
    const double expect =
        static_cast<double>(torus.ring_size(d)) * std::pow(d, -r) / norm;
    const double sigma = std::sqrt(expect * (1 - expect) / kDraws);
    EXPECT_NEAR(by_radius[d] / kDraws, expect, 6 * sigma + 2e-3) << "d=" << d;
  }
}

// -- Ideal builder --------------------------------------------------------------

TEST(GraphBuilder, ShortLinksWireNearestNeighbours) {
  util::Rng rng(19);
  BuildSpec spec;
  spec.grid_size = 16;
  spec.long_links = 1;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(g.short_degree(u), 2u) << "ring nodes have two immediate links";
    const auto neigh = g.neighbors(u);
    const NodeId next = static_cast<NodeId>((u + 1) % g.size());
    const NodeId prev = static_cast<NodeId>((u + g.size() - 1) % g.size());
    EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), next) != neigh.end());
    EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), prev) != neigh.end());
  }
}

TEST(GraphBuilder, LineEndpointsHaveOneShortLink) {
  util::Rng rng(23);
  BuildSpec spec;
  spec.grid_size = 16;
  spec.topology = Space1D::Kind::kLine;
  const OverlayGraph g = build_overlay(spec, rng);
  EXPECT_EQ(g.short_degree(0), 1u);
  EXPECT_EQ(g.short_degree(15), 1u);
  EXPECT_EQ(g.short_degree(7), 2u);
}

TEST(GraphBuilder, LongLinkCountMatchesSpec) {
  util::Rng rng(29);
  BuildSpec spec;
  spec.grid_size = 256;
  spec.long_links = 5;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(g.long_neighbors(u).size(), 5u);
  }
}

TEST(GraphBuilder, BinomialPresenceThinsTheGrid) {
  util::Rng rng(31);
  BuildSpec spec;
  spec.grid_size = 4096;
  spec.presence = 0.5;
  const OverlayGraph g = build_overlay(spec, rng);
  EXPECT_GT(g.size(), 1800u);
  EXPECT_LT(g.size(), 2300u);
  // Every node still has its two ring short links to *existing* neighbours.
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_GE(g.out_degree(u), g.short_degree(u));
  }
}

TEST(GraphBuilder, SparseLinksOnlyTargetExistingNodes) {
  util::Rng rng(37);
  BuildSpec spec;
  spec.grid_size = 1024;
  spec.presence = 0.3;
  spec.long_links = 3;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      EXPECT_LT(v, g.size());
    }
  }
}

TEST(GraphBuilder, BaseBFullLinksBothDirections) {
  util::Rng rng(41);
  BuildSpec spec;
  spec.grid_size = 64;
  spec.link_model = BuildSpec::LinkModel::kBaseBFull;
  spec.base = 2;
  const OverlayGraph g = build_overlay(spec, rng);
  // Node 32 on a 64-ring: offsets 1..32 both ways; offset 1 duplicates the
  // short links, so long links include ±2, ±4, ±8, ±16, ±32(=antipode).
  const auto neigh = g.neighbors(32);
  EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), 34u) != neigh.end());
  EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), 30u) != neigh.end());
  EXPECT_TRUE(std::find(neigh.begin(), neigh.end(), 0u) != neigh.end());
}

TEST(GraphBuilder, RejectsBadSpecs) {
  util::Rng rng(43);
  BuildSpec spec;
  spec.grid_size = 1;
  EXPECT_THROW(build_overlay(spec, rng), std::invalid_argument);
  spec.grid_size = 16;
  spec.presence = 0.0;
  EXPECT_THROW(build_overlay(spec, rng), std::invalid_argument);
  spec.presence = 1.0;
  spec.exponent = -1.0;
  EXPECT_THROW(build_overlay(spec, rng), std::invalid_argument);
}

TEST(GraphBuilder, BidirectionalAddsEveryReverseLink) {
  util::Rng rng(53);
  BuildSpec spec;
  spec.grid_size = 256;
  spec.long_links = 4;
  spec.bidirectional = true;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const NodeId v : g.long_neighbors(u)) {
      EXPECT_TRUE(g.has_link(v, u)) << u << " -> " << v << " lacks a reverse";
    }
  }
}

TEST(GraphBuilder, BidirectionalAddsNoDuplicates) {
  util::Rng rng(59);
  BuildSpec spec;
  spec.grid_size = 128;
  spec.long_links = 3;
  spec.bidirectional = true;
  const OverlayGraph g = build_overlay(spec, rng);
  for (NodeId u = 0; u < g.size(); ++u) {
    const auto longs = g.long_neighbors(u);
    // A reverse link is added only when absent, so each (u, v) long pair
    // appears at most twice total only if the forward side was drawn twice.
    std::size_t reverse_added = 0;
    for (const NodeId v : longs) {
      if (g.has_link(v, u)) ++reverse_added;
    }
    EXPECT_EQ(reverse_added, longs.size());
  }
}

TEST(GraphBuilder, AggregateLinkLengthsFollowInverseLaw) {
  // The builder's empirical length distribution must match 1/d: the exact
  // check behind Figure 5's "ideal" curve.
  util::Rng rng(47);
  BuildSpec spec;
  spec.grid_size = 512;
  spec.long_links = 8;
  const OverlayGraph g = build_overlay(spec, rng);
  const auto lengths = g.long_link_lengths();
  std::vector<double> count(g.space().diameter() + 1, 0.0);
  for (const auto d : lengths) count[d] += 1.0;
  // Compare mass at d=1 vs d=16: ratio should be ~16 (both sides of ring).
  ASSERT_GT(count[16], 0.0);
  const double ratio = count[1] / count[16];
  EXPECT_GT(ratio, 16.0 * 0.7);
  EXPECT_LT(ratio, 16.0 * 1.4);
}

// ---------------------------------------------------------------------------
// Pool-parallel builder paths must be bit-identical to their serial twins.

void expect_graphs_identical(const OverlayGraph& got, const OverlayGraph& want,
                             const std::string& label) {
  ASSERT_EQ(got.layout(), want.layout()) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.link_count(), want.link_count()) << label;
  ASSERT_EQ(got.edge_slots(), want.edge_slots()) << label;
  for (NodeId u = 0; u < got.size(); ++u) {
    ASSERT_EQ(got.position(u), want.position(u)) << label << " node " << u;
    ASSERT_EQ(got.short_degree(u), want.short_degree(u)) << label << " node " << u;
    ASSERT_EQ(got.edge_base(u), want.edge_base(u)) << label << " node " << u;
    const auto a = got.neighbors(u);
    const auto b = want.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << label << " node " << u;
    auto want_it = b.begin();
    std::size_t i = 0;
    for (const NodeId v : a) {
      ASSERT_EQ(v, *want_it++) << label << " node " << u << " link " << i++;
    }
  }
}

/// A builder with duplicate long links and uneven degrees.
GraphBuilder tricky_builder(std::uint64_t n, std::uint64_t seed) {
  GraphBuilder b(Space1D::ring(n));
  b.wire_short_links();
  util::Rng rng(seed);
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t links = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < links; ++k) {
      NodeId v = static_cast<NodeId>(rng.next_below(n));
      if (v == u) v = static_cast<NodeId>((u + 1) % n);
      b.add_long_link(u, v);  // duplicates allowed, as in sampling w/ replacement
    }
  }
  return b;
}

TEST(GraphBuilderParallel, FreezeMatchesSerial) {
  util::ThreadPool pool(4);
  GraphBuilder serial = tricky_builder(2048, 21);
  GraphBuilder parallel = tricky_builder(2048, 21);
  const OverlayGraph a = serial.freeze();
  const OverlayGraph b = parallel.freeze(pool);
  expect_graphs_identical(b, a, "freeze");
}

TEST(GraphBuilderParallel, BidirectionalBuildOverlayMatchesSerial) {
  BuildSpec spec;
  spec.grid_size = 4096;
  spec.long_links = 6;
  spec.bidirectional = true;
  util::Rng rng_a(24), rng_b(24);
  util::ThreadPool pool(4);
  const OverlayGraph a = build_overlay(spec, rng_a);
  const OverlayGraph b = build_overlay(spec, rng_b, pool);
  expect_graphs_identical(b, a, "build_overlay bidirectional");
}

// ---------------------------------------------------------------------------
// Reference builds: build_overlay and build_kleinberg_overlay assembled
// through a GraphBuilder — wire the short links, append each node's long
// links as drawn, make_bidirectional, freeze. The flat builds must match
// them bit for bit.

std::vector<metric::Point> reference_positions(const BuildSpec& spec, util::Rng& rng) {
  std::vector<metric::Point> positions;
  for (int attempt = 0; attempt < 1024; ++attempt) {
    positions.clear();
    for (std::uint64_t p = 0; p < spec.grid_size; ++p) {
      if (rng.next_bool(spec.presence)) positions.push_back(static_cast<metric::Point>(p));
    }
    if (positions.size() >= 2) break;
  }
  return positions;
}

void reference_power_law_links(GraphBuilder& g, const BuildSpec& spec, util::Rng& rng) {
  if (spec.long_links == 0) return;
  const PowerLawLinkSampler sampler(g.space(), spec.exponent);
  const std::uint64_t base = rng();
  for (NodeId u = 0; u < g.size(); ++u) {
    util::Rng node_rng = util::substream(base, u);
    const metric::Point src = g.position(u);
    for (std::size_t k = 0; k < spec.long_links; ++k) {
      NodeId target = kInvalidNode;
      if (spec.presence == 1.0) {
        target = g.node_at(sampler.sample_target(node_rng, src));
      } else if (spec.sparse_mode == BuildSpec::SparseLinkMode::kRejection) {
        for (int tries = 0; tries < 256 && target == kInvalidNode; ++tries) {
          target = g.node_at(sampler.sample_target(node_rng, src));
        }
        if (target == kInvalidNode) {
          target = g.node_nearest(sampler.sample_target(node_rng, src));
        }
      } else {
        target = g.node_nearest(sampler.sample_target(node_rng, src));
      }
      if (target != kInvalidNode && target != u) g.add_long_link(u, target);
    }
  }
}

void reference_base_b_links(GraphBuilder& g, const BuildSpec& spec) {
  const auto offsets = spec.link_model == BuildSpec::LinkModel::kBaseBFull
                           ? base_b_full_offsets(g.space().size(), spec.base)
                           : base_b_power_offsets(g.space().size(), spec.base);
  for (NodeId u = 0; u < g.size(); ++u) {
    for (const std::uint64_t off : offsets) {
      for (const int sign : {+1, -1}) {
        const auto pos = g.space().offset(g.position(u),
                                          sign * static_cast<std::int64_t>(off));
        if (!pos) continue;
        NodeId target = g.node_at(*pos);
        if (target == kInvalidNode && spec.presence < 1.0 &&
            spec.sparse_mode == BuildSpec::SparseLinkMode::kSnap) {
          target = g.node_nearest(*pos);
        }
        if (target != kInvalidNode && target != u && !g.has_link(u, target)) {
          g.add_long_link(u, target);
        }
      }
    }
  }
}

OverlayGraph reference_build_overlay(const BuildSpec& spec, util::Rng& rng) {
  const Space1D space = spec.topology == Space1D::Kind::kRing
                            ? Space1D::ring(spec.grid_size)
                            : Space1D::line(spec.grid_size);
  GraphBuilder builder = spec.presence < 1.0
                             ? GraphBuilder(space, reference_positions(spec, rng))
                             : GraphBuilder(space);
  builder.wire_short_links();
  if (spec.link_model == BuildSpec::LinkModel::kPowerLaw) {
    reference_power_law_links(builder, spec, rng);
  } else {
    reference_base_b_links(builder, spec);
  }
  if (spec.bidirectional) builder.make_bidirectional();
  return builder.freeze({.layout = spec.layout});
}

OverlayGraph reference_kleinberg_overlay(std::uint32_t side, std::size_t long_links,
                                         double exponent, util::Rng& rng) {
  const metric::Torus2D torus(side);
  GraphBuilder builder{metric::Space(torus)};
  for (NodeId u = 0; u < builder.size(); ++u) {
    const auto [row, col] = torus.coords(static_cast<metric::Point>(u));
    const auto r = static_cast<std::int64_t>(row);
    const auto c = static_cast<std::int64_t>(col);
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r + 1, c)));
    if (side > 2) builder.add_short_link(u, static_cast<NodeId>(torus.at(r - 1, c)));
    builder.add_short_link(u, static_cast<NodeId>(torus.at(r, c + 1)));
    if (side > 2) builder.add_short_link(u, static_cast<NodeId>(torus.at(r, c - 1)));
  }
  BuildSpec link_spec;
  link_spec.long_links = long_links;
  link_spec.exponent = exponent;
  reference_power_law_links(builder, link_spec, rng);
  return builder.freeze();
}

TEST(BuildOverlay, MatchesGraphBuilderReference) {
  util::ThreadPool pool1(1), pool2(2), pool4(4);
  util::ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool4};
  std::uint64_t seed = 100;
  // Builds `spec` serially and on every pool; each must equal the reference.
  const auto check = [&](const BuildSpec& spec, const std::string& label) {
    ++seed;
    util::Rng ref_rng(seed);
    const OverlayGraph want = reference_build_overlay(spec, ref_rng);
    const std::uint64_t next_draw = ref_rng();
    for (util::ThreadPool* pool : pools) {
      util::Rng rng(seed);
      const OverlayGraph got =
          pool == nullptr ? build_overlay(spec, rng) : build_overlay(spec, rng, *pool);
      expect_graphs_identical(
          got, want,
          label + " threads=" + std::to_string(pool ? pool->thread_count() : 0));
      ASSERT_EQ(rng(), next_draw) << label << ": rng streams diverged";
    }
  };
  struct Presence {
    double p;
    BuildSpec::SparseLinkMode mode;
  };
  const Presence presences[] = {{1.0, BuildSpec::SparseLinkMode::kRejection},
                                {0.4, BuildSpec::SparseLinkMode::kRejection},
                                {0.4, BuildSpec::SparseLinkMode::kSnap}};
  for (const auto topology : {Space1D::Kind::kRing, Space1D::Kind::kLine})
    for (const std::uint64_t n : {2ULL, 3ULL, 64ULL, 4097ULL})
      for (const bool bidirectional : {false, true})
        for (const Presence& presence : presences)
          for (const EdgeLayout layout : {EdgeLayout::kStandard, EdgeLayout::kCompact}) {
            BuildSpec spec;
            spec.grid_size = n;
            spec.topology = topology;
            spec.bidirectional = bidirectional;
            spec.presence = presence.p;
            spec.sparse_mode = presence.mode;
            spec.layout = layout;
            const std::string label =
                std::string(topology == Space1D::Kind::kRing ? "ring" : "line") +
                " n=" + std::to_string(n) + " bidir=" + std::to_string(bidirectional) +
                " presence=" + std::to_string(presence.p) +
                " snap=" +
                std::to_string(presence.mode == BuildSpec::SparseLinkMode::kSnap) +
                " compact=" + std::to_string(layout == EdgeLayout::kCompact);
            for (const std::size_t links : {0u, 1u, 6u}) {
              for (const double r : {0.0, 1.0, 2.0}) {
                spec.long_links = links;
                spec.exponent = r;
                check(spec, label + " l=" + std::to_string(links) +
                                " r=" + std::to_string(r));
              }
            }
            spec.base = 3;
            spec.link_model = BuildSpec::LinkModel::kBaseBFull;
            check(spec, label + " base-b full");
            spec.link_model = BuildSpec::LinkModel::kBaseBPowers;
            check(spec, label + " base-b powers");
          }
  for (const std::uint32_t side : {2u, 3u, 64u}) {
    ++seed;
    util::Rng ref_rng(seed);
    const OverlayGraph want = reference_kleinberg_overlay(side, 3, 2.0, ref_rng);
    for (util::ThreadPool* pool : pools) {
      util::Rng rng(seed);
      const OverlayGraph got = pool == nullptr
                                   ? build_kleinberg_overlay(side, 3, 2.0, rng)
                                   : build_kleinberg_overlay(side, 3, 2.0, rng, *pool);
      expect_graphs_identical(got, want, "torus side=" + std::to_string(side));
    }
  }
}

/// FNV-1a over every node's position, short degree, degree and links.
std::uint64_t graph_hash(const OverlayGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.size());
  for (NodeId u = 0; u < g.size(); ++u) {
    mix(static_cast<std::uint64_t>(g.position(u)));
    mix(g.short_degree(u));
    mix(g.out_degree(u));
    for (const NodeId v : g.neighbors(u)) mix(v);
  }
  return h;
}

TEST(BuildOverlay, LargeBidirectionalRingHashIsPinned) {
  // Pins the exact graph — sampler draws, link order, reverse links — of a
  // 1e5-node bidirectional ring with ℓ = ⌈lg n⌉, serial and pooled.
  BuildSpec spec;
  spec.grid_size = 100'000;
  spec.long_links = 17;
  spec.bidirectional = true;
  constexpr std::uint64_t kPinned = 0xf74db3736baaf1a3ULL;
  util::Rng serial_rng(1302);
  EXPECT_EQ(graph_hash(build_overlay(spec, serial_rng)), kPinned);
  util::ThreadPool pool(4);
  util::Rng pooled_rng(1302);
  EXPECT_EQ(graph_hash(build_overlay(spec, pooled_rng, pool)), kPinned);
}

}  // namespace
}  // namespace p2p::graph
