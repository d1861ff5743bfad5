// Long-distance link distributions.
//
// The paper's core construction draws each long-distance neighbour v of u
// with probability proportional to 1/d(u,v) — the inverse power-law
// distribution with exponent 1 (§4.3). PowerLawLinkSampler implements the
// exact distribution P ∝ d(u,v)^-r for any exponent r >= 0 over any
// metric::Space: the line and the ring (r = 1 is the paper's model) and the
// Kleinberg 2-D torus under Manhattan distance (r = 2 is the
// dimension-matched exponent of [5]). One sampler, every topology — the
// cross-topology baselines draw their links from the same machinery.
//
// The deterministic strategies of Theorems 14 and 16 use fixed offset sets
// (digits times powers of a base b); base_b_full_offsets / base_b_power_offsets
// generate those sets.
#pragma once

#include <cstdint>
#include <vector>

#include "metric/space.h"
#include "util/rng.h"

namespace p2p::graph {

/// Exact sampler for P[target = v | source = u] ∝ d(u,v)^-r over a
/// metric::Space.
///
/// Build cost O(diameter), memory O(diameter) shared by all nodes of the
/// space. Each draw is an inverse-CDF search of a prefix-sum table, narrowed
/// by a bucket guide to the few entries between two bucket boundaries, so a
/// draw costs one guide lookup plus a binary search over a short range. On
/// the torus the table weights each radius d by
/// ring_size(d) — the number of points at that distance, position
/// independent by translation invariance — so a draw picks a radius first
/// and then a uniform point at that radius.
class PowerLawLinkSampler {
 public:
  /// Preconditions: space.size() >= 2, exponent >= 0.
  PowerLawLinkSampler(metric::Space space, double exponent);

  /// Draws a target position != source. Precondition: space().contains(source).
  [[nodiscard]] metric::Point sample_target(util::Rng& rng, metric::Point source) const;

  /// Exact probability that `target` is drawn for `source` (for tests).
  [[nodiscard]] double probability(metric::Point source, metric::Point target) const;

  [[nodiscard]] const metric::Space& space() const noexcept { return space_; }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  /// The smallest d in [1, limit] with prefix_[d] > v, or limit when there
  /// is none: std::upper_bound over prefix_[1..limit] clamped to limit, with
  /// the search confined to v's guide bucket. Precondition: 1 <= limit <=
  /// diameter, v >= 0.
  [[nodiscard]] metric::Distance inverse_cdf(double v,
                                             metric::Distance limit) const noexcept;

  /// Lower value bound of guide bucket b.
  [[nodiscard]] double bucket_floor(std::size_t b) const noexcept {
    return static_cast<double>(b) * bucket_width_;
  }

  [[nodiscard]] metric::Point sample_torus_target(util::Rng& rng,
                                                  metric::Point source) const;

  metric::Space space_;
  double exponent_;
  // 1-D: prefix_[d] = sum_{i=1..d} i^-r. Torus: prefix_[d] additionally
  // weights each radius by ring_size(i). prefix_[0] = 0 in both.
  std::vector<double> prefix_;
  // guide_[b] is the smallest d >= 1 with prefix_[d] > bucket_floor(b)
  // (diameter + 1 when none), for b < buckets; guide_[buckets] is
  // diameter + 1. A value in bucket b has its upper_bound index in
  // [guide_[b], guide_[b + 1]].
  std::vector<std::uint32_t> guide_;
  double bucket_width_ = 0.0;      // prefix_.back() / buckets
  double inv_bucket_width_ = 0.0;  // buckets / prefix_.back()
  // Ring only: total mass of one source, 2 prefix_[n/2] minus the
  // antipode's weight when n is even (it names a single node).
  double ring_total_ = 0.0;
};

/// Offsets {j * b^i : 1 <= j < b, 0 <= i < ceil(log_b n)} truncated to < n —
/// the Theorem 14 deterministic link set (digit elimination in base b).
/// Preconditions: base >= 2, n >= 2.
[[nodiscard]] std::vector<std::uint64_t> base_b_full_offsets(std::uint64_t n, unsigned base);

/// Offsets {b^i : 0 <= i <= floor(log_b n)} truncated to < n — the simplified
/// Theorem 16 link set. Preconditions: base >= 2, n >= 2.
[[nodiscard]] std::vector<std::uint64_t> base_b_power_offsets(std::uint64_t n, unsigned base);

}  // namespace p2p::graph
