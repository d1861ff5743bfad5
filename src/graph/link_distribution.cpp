#include "graph/link_distribution.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/require.h"

namespace p2p::graph {

PowerLawLinkSampler::PowerLawLinkSampler(metric::Space space, double exponent)
    : space_(space), exponent_(exponent) {
  util::require(space_.size() >= 2, "PowerLawLinkSampler: need >= 2 grid points");
  util::require(exponent >= 0.0, "PowerLawLinkSampler: exponent must be >= 0");
  const metric::Distance diam = space_.diameter();
  prefix_.resize(diam + 1);
  prefix_[0] = 0.0;
  if (space_.one_dimensional()) {
    for (metric::Distance d = 1; d <= diam; ++d) {
      prefix_[d] = prefix_[d - 1] + std::pow(static_cast<double>(d), -exponent_);
    }
  } else {
    // Torus: weight each radius by its point count so a radius draw followed
    // by a uniform point at that radius is the exact per-point distribution.
    const metric::Torus2D torus = space_.as_torus();
    for (metric::Distance d = 1; d <= diam; ++d) {
      const double w = static_cast<double>(torus.ring_size(d)) *
                       std::pow(static_cast<double>(d), -exponent_);
      prefix_[d] = prefix_[d - 1] + w;
    }
  }
  if (space_.kind() == metric::Space::Kind::kRing) {
    const std::uint64_t n = space_.size();
    const metric::Distance half = n / 2;
    const double antipode_w =
        n % 2 == 0 ? std::pow(static_cast<double>(half), -exponent_) : 0.0;
    ring_total_ = 2.0 * prefix_[half] - antipode_w;
  }
  // Bucket guide over [0, prefix_.back()): one bucket per table entry up to
  // 2^16 buckets, which keeps the guide within L2 while leaving only a few
  // entries per bucket on the paper's 1/d tables.
  util::require(diam < std::numeric_limits<std::uint32_t>::max(),
                "PowerLawLinkSampler: diameter exceeds the guide's index range");
  const std::size_t buckets =
      std::bit_ceil(std::min<std::size_t>(diam, std::size_t{1} << 16));
  bucket_width_ = prefix_.back() / static_cast<double>(buckets);
  inv_bucket_width_ = static_cast<double>(buckets) / prefix_.back();
  guide_.resize(buckets + 1);
  std::size_t d = 1;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double lower = bucket_floor(b);
    while (d <= diam && prefix_[d] <= lower) ++d;
    guide_[b] = static_cast<std::uint32_t>(d);
  }
  guide_[buckets] = static_cast<std::uint32_t>(diam + 1);
}

metric::Distance PowerLawLinkSampler::inverse_cdf(
    double v, metric::Distance limit) const noexcept {
  // Find v's bucket: the estimate from the width can be off by one either
  // way through rounding, so step until bucket_floor(b) <= v < the next
  // bucket's floor (the last bucket is open above).
  const std::size_t buckets = guide_.size() - 1;
  std::size_t b = std::min(static_cast<std::size_t>(v * inv_bucket_width_),
                           buckets - 1);
  while (b > 0 && v < bucket_floor(b)) --b;
  while (b + 1 < buckets && v >= bucket_floor(b + 1)) ++b;
  // The answer lies in [guide_[b], guide_[b + 1]]: everything before
  // guide_[b] is <= bucket_floor(b) <= v, and prefix_[guide_[b + 1]] exceeds
  // the next floor, which exceeds v.
  const std::size_t lo = guide_[b];
  const std::size_t hi = std::min<std::size_t>(guide_[b + 1], limit);
  if (lo > hi) return limit;
  const auto it = std::upper_bound(prefix_.begin() + static_cast<std::ptrdiff_t>(lo),
                                   prefix_.begin() + static_cast<std::ptrdiff_t>(hi) + 1,
                                   v);
  const auto d = static_cast<metric::Distance>(it - prefix_.begin());
  return d > limit ? limit : d;
}

metric::Point PowerLawLinkSampler::sample_torus_target(util::Rng& rng,
                                                       metric::Point source) const {
  const metric::Torus2D torus = space_.as_torus();
  // Draw the radius first (P ∝ ring_size(d) * d^-r), then a uniform point at
  // that radius.
  const metric::Distance d =
      inverse_cdf(rng.next_double() * prefix_.back(), prefix_.size() - 1);

  const auto s = static_cast<std::int64_t>(torus.side());
  const std::uint64_t half = static_cast<std::uint64_t>(s) / 2;
  // Count of offsets at wrapped axis-distance `x` within one period.
  const auto axis_count = [&](std::uint64_t x) -> std::uint64_t {
    if (x == 0) return 1;
    if (x < half) return 2;
    if (x == half) return (s % 2 == 0) ? 1 : 2;
    return 0;
  };
  const std::uint64_t max_axis = half;  // floor(s/2) for either parity
  // Choose the row component rd of the Manhattan distance with weight
  // axis_count(rd) * axis_count(d - rd).
  double total = 0.0;
  const std::uint64_t rd_max = std::min<std::uint64_t>(d, max_axis);
  for (std::uint64_t rd = 0; rd <= rd_max; ++rd) {
    total += static_cast<double>(axis_count(rd) * axis_count(d - rd));
  }
  double pick = rng.next_double() * total;
  std::uint64_t rd = 0;
  for (std::uint64_t r = 0; r <= rd_max; ++r) {
    const double w = static_cast<double>(axis_count(r) * axis_count(d - r));
    if (pick < w) {
      rd = r;
      break;
    }
    pick -= w;
    rd = r;  // fall back to the last valid radius on FP underflow
  }
  const std::uint64_t cd = d - rd;
  const auto signed_offset = [&](std::uint64_t dist) -> std::int64_t {
    const std::uint64_t options = axis_count(dist);
    if (options == 1) {
      return dist == 0 ? 0 : static_cast<std::int64_t>(dist);
    }
    return rng.next_bool(0.5) ? static_cast<std::int64_t>(dist)
                              : -static_cast<std::int64_t>(dist);
  };
  const auto [row, col] = torus.coords(source);
  return torus.at(static_cast<std::int64_t>(row) + signed_offset(rd),
                  static_cast<std::int64_t>(col) + signed_offset(cd));
}

metric::Point PowerLawLinkSampler::sample_target(util::Rng& rng,
                                                 metric::Point source) const {
  util::require(space_.contains(source), "sample_target: source outside space");
  if (space_.kind() == metric::Space::Kind::kTorus2D) {
    return sample_torus_target(rng, source);
  }
  if (space_.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<metric::Distance>(source);
    const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
    const double mass_left = prefix_[left];
    const double mass_right = prefix_[right];
    const bool go_left = rng.next_double() * (mass_left + mass_right) < mass_left;
    const metric::Distance limit = go_left ? left : right;
    const metric::Distance d =
        inverse_cdf(rng.next_double() * prefix_[limit], limit);
    return go_left ? source - static_cast<metric::Point>(d)
                   : source + static_cast<metric::Point>(d);
  }
  // Ring: every magnitude 1..floor(n/2) exists on both sides, except that for
  // even n the antipodal magnitude n/2 names a single node. Sampling by
  // magnitude with doubled weights and halving the antipodal weight keeps the
  // per-node distribution exact.
  const std::uint64_t n = space_.size();
  const metric::Distance half = n / 2;
  const double u = rng.next_double() * ring_total_;
  // The clockwise side carries full weight for each magnitude; the
  // counter-clockwise side excludes the antipode when n is even.
  const bool clockwise = u < prefix_[half];
  const metric::Distance d =
      clockwise ? inverse_cdf(u, half)
                : inverse_cdf(u - prefix_[half], n % 2 == 0 ? half - 1 : half);
  const auto delta = clockwise ? static_cast<std::int64_t>(d) : -static_cast<std::int64_t>(d);
  return *space_.offset(source, delta);
}

double PowerLawLinkSampler::probability(metric::Point source, metric::Point target) const {
  util::require(space_.contains(source) && space_.contains(target),
                "probability: point outside space");
  if (source == target) return 0.0;
  const double w = std::pow(static_cast<double>(space_.distance(source, target)),
                            -exponent_);
  if (space_.kind() == metric::Space::Kind::kTorus2D) {
    // prefix_.back() is sum_d ring_size(d) d^-r — the per-point normalizer,
    // identical for every source by translation invariance.
    return w / prefix_.back();
  }
  if (space_.kind() == metric::Space::Kind::kLine) {
    const auto left = static_cast<metric::Distance>(source);
    const auto right = space_.size() - 1 - static_cast<metric::Distance>(source);
    return w / (prefix_[left] + prefix_[right]);
  }
  return w / ring_total_;
}

std::vector<std::uint64_t> base_b_full_offsets(std::uint64_t n, unsigned base) {
  util::require(base >= 2, "base_b_full_offsets: base must be >= 2");
  util::require(n >= 2, "base_b_full_offsets: n must be >= 2");
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t power = 1; power < n; power *= base) {
    for (std::uint64_t digit = 1; digit < base; ++digit) {
      const std::uint64_t off = digit * power;
      if (off < n) offsets.push_back(off);
    }
    if (power > n / base) break;  // next multiplication would overflow past n
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

std::vector<std::uint64_t> base_b_power_offsets(std::uint64_t n, unsigned base) {
  util::require(base >= 2, "base_b_power_offsets: base must be >= 2");
  util::require(n >= 2, "base_b_power_offsets: n must be >= 2");
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t power = 1; power < n; power *= base) {
    offsets.push_back(power);
    if (power > n / base) break;
  }
  return offsets;
}

}  // namespace p2p::graph
