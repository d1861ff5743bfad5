// Replica placement: the k nearest *live* nodes to a point of the overlay
// metric — the successor-style neighbourhood a replicated object lives on.
//
// §1 of the paper promises "hash table-like functionality"; the robust-DHT
// literature (DistHash in PAPERS.md) replicates each object on the k members
// closest to its hashed point so that no single crash loses a key. Placement
// here is a pure function of (FailureView, point, k): the same view bits
// always select the same replica set, so any two nodes that agree on the
// failure view agree on every object's replica set — no placement metadata
// is exchanged, exactly like consistent hashing's successor lists.
//
// Ordering is (metric distance, position) ascending, the same tie-break
// node_nearest uses, so replica_set(view, p, 1)[0] is the key's legacy
// single-homed owner and growing k only ever appends.
//
// Complexity: on the line and the ring the k nearest nodes of any point form
// a contiguous run of the position-sorted node order, so selection is a
// two-cursor outward walk from the nearest node — O(k + dead skipped),
// independent of n. On the torus the flattened order is not metric order and
// selection is an O(n·k) bounded-insertion scan. Torus-placed stores are a
// test/demo-scale configuration; the availability benches run on the ring.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "failure/failure_model.h"
#include "graph/overlay_graph.h"
#include "metric/space.h"

namespace p2p::store {

/// Upper bound on one selection request (primaries + failover standbys).
/// Keeps per-op replica state in fixed-size arrays on the quorum hot path.
inline constexpr std::size_t kMaxReplicas = 64;

/// Fills out[0..] with the up-to-`count` nearest live nodes to `p`, ordered
/// by (distance, position) ascending, and returns how many were written
/// (< count only when fewer than `count` nodes are alive). Allocation-free.
/// Preconditions: view's graph is non-empty, space contains p,
/// count <= kMaxReplicas <= out.size().
std::size_t nearest_live(const failure::FailureView& view, metric::Point p,
                         std::size_t count, std::span<graph::NodeId> out);

/// Allocating convenience wrapper: the k-replica set of a key point.
[[nodiscard]] std::vector<graph::NodeId> replica_set(
    const failure::FailureView& view, metric::Point p, std::size_t k);

}  // namespace p2p::store
