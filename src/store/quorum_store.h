// Quorum-replicated key-value objects over the routing core — the "hash
// table-like functionality" §1 of the paper promises, hardened the way the
// robust-DHT literature (DistHash in PAPERS.md) hardens it: every object
// lives on the k nearest live nodes to its hashed point (store/placement.h),
// and reads/writes are quorum operations against that replica set.
//
// Execution model. The store simulates the data plane on top of the real
// control plane: replica sub-queries are genuine routed searches through
// Router::route_batch over the caller's FailureView (a dead or partitioned
// replica is unreachable because greedy routing cannot reach it, not because
// a flag says so), while replica *storage* is process-local state the
// simulator owns. Per sub-query latency is the sum of per-hop
// sim::LatencyModel draws; a sub-query whose routed latency exceeds
// timeout_ms is lost in flight (a timed-out write is NOT applied — the
// message died, it does not arrive late), which is what makes the
// slow-replica column of the failure matrix distinct from the dead-replica
// column (README "Replicated objects").
//
// Quorum state machine, per operation:
//   1. placement: cand = the (k + max_failovers) nearest live nodes; the
//      first k are primaries, the rest standbys. The first wave is k
//      replicas for a put, R for a get.
//   2. route once, then forward: wave 0 routes one head sub-query from the
//      client to cand[0]. Once it lands (write or read there), cand[0]
//      forwards to the rest of the first wave, each forward a routed
//      sub-query launched at the head's completion, so its hops and latency
//      add to the op's. If the head is lost, the client routes to the rest
//      of the first wave itself (after backoff_ms) and the head fails over
//      as in 3. A forward that is lost promotes no standby: the client
//      retries the same replica after backoff_ms, with no hint — the gap
//      that stopped it sits next to the replica, where the primary has no
//      other link closer to it, while the client arrives from elsewhere.
//   3. each failed client-routed sub-query (routing stuck/TTL, or latency >
//      timeout) fails over to the next unused standby, routed from the
//      client with backoff_ms added — a sloppy quorum: a standby ack counts
//      toward W, and (hinted_handoff) the write is remembered as a hint
//      against the failed primary, delivered when deliver_hints() sees the
//      primary alive again.
//   4. a put is ok at acks >= W (the version is then committed in the
//      directory); a get is ok at responses >= R, returning the max version
//      observed (per-key monotonic seq, writer id as tiebreak).
//   5. (read_repair) an ok get pushes the returned version to any live
//      primary holding an older or missing copy.
//
// Storage layout: one directory record per key holds the key's
// issued/committed version counters and every node's copy of the key, so a
// quorum op resolves its record once and reads, writes, commits and repairs
// through it; a per-node digest list is the work list crash amnesia
// (forget) walks. The version counters model the client-side causal
// metadata a real deployment carries in its requests; they are bookkeeping,
// not a replica — losing a node drops only that node's copies.
//
// Concurrency: run_batch may be called from many threads at once (the
// StoreService stripes one op span across workers, each binding its own
// pinned-snapshot Router). Records live in 64 key stripes and the per-node
// digest lists in 64 node stripes, each stripe under its own lock. Reading
// or updating a copy takes the key stripe alone; a node taking its first
// copy of a key takes its node stripe, then the key stripe (the only nested
// order), so forget never misses a copy written before it started.
// Concurrent writers to the same replica merge by max version, so replicas
// are convergent last-writer-wins registers. With a static view and distinct
// keys per stripe, per-op results are bit-identical across worker counts
// (same contract as RoutingService; tests/store_service_test.cpp pins it).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/router.h"
#include "failure/failure_model.h"
#include "graph/overlay_graph.h"
#include "sim/network_sim.h"
#include "store/placement.h"
#include "store/store_telemetry.h"
#include "util/rng.h"

namespace p2p::store {

/// Object version: per-key monotonic sequence with the coordinating node as
/// a total-order tiebreak. seq 0 is "never written".
struct Version {
  std::uint64_t seq = 0;
  graph::NodeId writer = 0;

  friend bool operator==(const Version&, const Version&) = default;
  [[nodiscard]] bool newer_than(const Version& o) const noexcept {
    return seq != o.seq ? seq > o.seq : writer > o.writer;
  }
};

struct QuorumConfig {
  /// Replication degree, read quorum, write quorum (R, W <= k).
  std::size_t k = 3;
  std::size_t r = 2;
  std::size_t w = 2;
  /// Standby replicas available for failover, beyond the k primaries.
  /// k + max_failovers <= kMaxReplicas.
  std::size_t max_failovers = 2;
  /// Per-hop latency draw for replica sub-queries.
  sim::LatencyModel latency{1.0, 2.0};
  /// A sub-query slower than this is lost in flight.
  double timeout_ms = 120.0;
  /// Added launch delay per failover attempt.
  double backoff_ms = 5.0;
  bool read_repair = true;
  bool hinted_handoff = true;
  /// Pipeline shape for the routed sub-query batches.
  core::BatchConfig batch;
};

enum class OpType : std::uint8_t { kGet, kPut };

/// One client operation: `client` is the coordinating node the op's head
/// sub-query, retries and failovers route from.
struct Op {
  OpType type = OpType::kGet;
  graph::NodeId client = 0;
  std::string key;
  std::string value;  ///< puts only
};

/// Outcome of one quorum operation.
struct OpResult {
  bool ok = false;     ///< quorum reached (acks >= W / responses >= R)
  bool found = false;  ///< gets: some replica returned a value
  bool stale = false;  ///< gets: returned version < latest committed
  std::uint32_t acks = 0;
  std::uint32_t responses = 0;
  std::uint32_t subqueries = 0;
  std::uint32_t failovers = 0;
  std::uint64_t hops = 0;    ///< routed hops across all sub-queries
  double latency_ms = 0.0;   ///< completion of the op's last sub-query
  Version version{};         ///< committed version (put) / returned (get)
  std::string value;         ///< gets only
};

/// One anti-entropy pass (repair_sweep).
struct SweepStats {
  std::size_t examined = 0;
  /// Keys whose current live primary set is missing the latest committed
  /// version while some live node still holds it.
  std::size_t degraded = 0;
  /// Degraded keys restored to full live replication by this pass.
  std::size_t repaired = 0;
  /// Keys whose latest committed version survives on no live node (only a
  /// revival — and then a hint or sweep — can bring these back).
  std::size_t lost = 0;
};

class QuorumStore {
 public:
  /// The graph must outlive the store. Throws std::invalid_argument on an
  /// inconsistent config (r/w outside [1, k], k + max_failovers beyond
  /// kMaxReplicas).
  explicit QuorumStore(const graph::OverlayGraph& g, QuorumConfig config = {});

  QuorumStore(const QuorumStore&) = delete;
  QuorumStore& operator=(const QuorumStore&) = delete;

  [[nodiscard]] const QuorumConfig& config() const noexcept { return config_; }
  [[nodiscard]] const graph::OverlayGraph& graph() const noexcept {
    return *graph_;
  }

  /// Executes ops[i] into results[i] as routed quorum operations against
  /// `router`'s (graph, view). The router must be over graph(). Op i draws
  /// its latency stream from util::substream families of (seed_base, i), so
  /// a (ops, view, seed_base) triple is deterministic; thread-safe against
  /// concurrent run_batch/forget/deliver_hints/repair_sweep calls.
  void run_batch(const core::Router& router, std::span<const Op> ops,
                 std::span<OpResult> results, std::uint64_t seed_base,
                 StoreTelemetry telem = {});

  /// Directly installs key=value on its current k primaries and commits the
  /// version — the non-routed preload path for replays and benches.
  Version install(const failure::FailureView& view, std::string_view key,
                  std::string_view value, graph::NodeId writer = 0);

  /// Crash amnesia: a node that failed loses its replica contents. Replays
  /// call this for every killed node; a later revival comes back empty.
  void forget(graph::NodeId node);

  /// Delivers pending hinted-handoff writes whose target is alive in `view`;
  /// returns how many were delivered.
  std::size_t deliver_hints(const failure::FailureView& view,
                            StoreTelemetry telem = {});

  /// One anti-entropy pass: for every committed key, re-derive the k-primary
  /// set under `view` and push the latest committed version to live
  /// primaries missing it (sourced from any live holder).
  SweepStats repair_sweep(const failure::FailureView& view,
                          StoreTelemetry telem = {});

  // -- Introspection (tests, analysis) --------------------------------------

  /// Latest committed version of `key`, if any write ever reached quorum.
  [[nodiscard]] std::optional<Version> latest_committed(
      std::string_view key) const;

  /// The replica of `key` held at `node`, if any.
  [[nodiscard]] std::optional<std::pair<Version, std::string>> replica(
      graph::NodeId node, std::string_view key) const;

  /// Committed keys in the directory.
  [[nodiscard]] std::size_t key_count() const noexcept {
    return keys_committed_.load(std::memory_order_relaxed);
  }

  /// Undelivered hinted-handoff writes.
  [[nodiscard]] std::size_t pending_hints() const;

 private:
  static constexpr std::size_t kStripes = 64;

  struct alignas(64) PaddedMutex {
    std::mutex m;
  };

  /// One node's copy of a key.
  struct Copy {
    graph::NodeId node = 0;
    Version version;
    std::string value;
  };

  /// A key's directory record. Records are never erased and unordered_map
  /// nodes never move, so a KeyInfo& stays valid across lock releases; every
  /// field access still holds the key-stripe lock.
  struct KeyInfo {
    /// Highest version seq ever issued for the key (>= committed.seq);
    /// concurrent puts to one key get distinct seqs.
    std::uint64_t issued = 0;
    Version committed;
    /// Every node's copy, in first-copy order (the repair-source order).
    std::vector<Copy> copies;

    [[nodiscard]] const Copy* copy_at(graph::NodeId node) const noexcept {
      for (const Copy& c : copies) {
        if (c.node == node) return &c;
      }
      return nullptr;
    }
    [[nodiscard]] Copy* copy_at(graph::NodeId node) noexcept {
      return const_cast<Copy*>(std::as_const(*this).copy_at(node));
    }
  };

  struct Hint {
    graph::NodeId target = 0;
    std::uint64_t digest = 0;
    Version version;
    std::string value;
  };

  struct OpState;

  [[nodiscard]] static std::size_t node_stripe(graph::NodeId u) noexcept {
    return u % kStripes;
  }
  [[nodiscard]] static std::size_t key_stripe(std::uint64_t digest) noexcept {
    return digest % kStripes;
  }
  [[nodiscard]] metric::Point point_of(std::uint64_t digest) const noexcept;

  /// The record of `digest`, created empty if absent.
  KeyInfo& record(std::uint64_t digest);

  /// The record of `digest`, or nullptr; never creates one.
  KeyInfo* find_record(std::uint64_t digest);

  /// Issues the next version of the key (bumps its issued counter).
  Version issue(KeyInfo& ki, std::uint64_t digest, graph::NodeId writer);

  /// Stores (version, value) as `node`'s copy in `ki`, the record of
  /// `digest`, if newer than what the node holds. Takes the key stripe, or
  /// the node stripe then the key stripe for a first copy. Returns true when
  /// the copy changed.
  bool write(KeyInfo& ki, std::uint64_t digest, graph::NodeId node,
             const Version& version, std::string_view value);

  /// Commits `version` as the key's latest if it is the newest committed.
  void commit(KeyInfo& ki, std::uint64_t digest, const Version& version);

  const graph::OverlayGraph* graph_;
  QuorumConfig config_;

  /// Per-key records, stripe-locked by digest.
  std::array<std::unordered_map<std::uint64_t, KeyInfo>, kStripes> directory_;
  mutable std::array<PaddedMutex, kStripes> key_mutex_;

  /// held_[u]: digests of the keys node u holds a copy of (forget's work
  /// list), stripe-locked by node id. A digest is appended together with
  /// the copy, under both locks.
  std::vector<std::vector<std::uint64_t>> held_;
  std::array<PaddedMutex, kStripes> node_mutex_;

  mutable std::mutex hints_mutex_;
  std::vector<Hint> hints_;

  std::atomic<std::size_t> keys_committed_{0};
};

}  // namespace p2p::store
