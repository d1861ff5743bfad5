#include "store/quorum_store.h"

#include <algorithm>

#include "dht/hash.h"
#include "util/require.h"

namespace p2p::store {

namespace {

using graph::NodeId;

/// Per-hint accounting overhead charged to repair/hint traffic on top of the
/// value bytes (version + addressing).
constexpr std::size_t kRecordOverhead = 16;

/// In-flight replica sub-query of one wave.
struct SubQuery {
  std::uint32_t op = 0;
  /// Where the route starts: the op's client, or the primary for a forward.
  NodeId from = 0;
  NodeId replica = 0;
  /// The failed primary this standby stands in for (hinted handoff), or
  /// kInvalidNode for a primary attempt.
  NodeId hint_for = graph::kInvalidNode;
  /// Virtual launch time within the op (forwards start when the head
  /// lands; retries and failovers after the failed attempt plus backoff).
  double launch_ms = 0.0;
  /// The op's one route from its client to the primary, cand[0].
  bool head = false;
};

}  // namespace

/// Mutable per-op state across waves.
struct QuorumStore::OpState {
  /// The key's record: resolved at op start (a put creates it); a get whose
  /// key had none looks again at read time.
  KeyInfo* record = nullptr;
  /// Placement candidates, a slice of the batch's flat buffer.
  std::span<NodeId> cand;
  std::size_t cand_count = 0;
  std::size_t primaries = 0;
  /// First-wave replicas: k for a put, R for a get (fewer if placement
  /// found fewer live nodes).
  std::size_t fanout = 0;
  std::size_t next_standby = 0;
  std::uint64_t digest = 0;
  Version put_version;
  util::Rng lat_rng{0};
  std::uint32_t acks = 0;
  std::uint32_t responses = 0;
  std::uint32_t subqueries = 0;
  std::uint32_t failovers = 0;
  std::uint64_t hops = 0;
  double latency_ms = 0.0;
  bool quorum = false;
  bool found = false;
  Version best;
  std::string best_value;
};

QuorumStore::QuorumStore(const graph::OverlayGraph& g, QuorumConfig config)
    : graph_(&g), config_(config), held_(g.size()) {
  util::require(config_.k >= 1, "QuorumStore: k must be >= 1");
  util::require(config_.r >= 1 && config_.r <= config_.k,
                "QuorumStore: R must be in [1, k]");
  util::require(config_.w >= 1 && config_.w <= config_.k,
                "QuorumStore: W must be in [1, k]");
  util::require(config_.k + config_.max_failovers <= kMaxReplicas,
                "QuorumStore: k + max_failovers exceeds kMaxReplicas");
  util::require(config_.timeout_ms > 0.0, "QuorumStore: timeout must be > 0");
}

metric::Point QuorumStore::point_of(std::uint64_t digest) const noexcept {
  return static_cast<metric::Point>(digest % graph_->space().size());
}

QuorumStore::KeyInfo& QuorumStore::record(std::uint64_t digest) {
  std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
  return directory_[key_stripe(digest)][digest];
}

QuorumStore::KeyInfo* QuorumStore::find_record(std::uint64_t digest) {
  std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
  auto& shard = directory_[key_stripe(digest)];
  const auto it = shard.find(digest);
  return it == shard.end() ? nullptr : &it->second;
}

Version QuorumStore::issue(KeyInfo& ki, std::uint64_t digest, NodeId writer) {
  std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
  return Version{++ki.issued, writer};
}

bool QuorumStore::write(KeyInfo& ki, std::uint64_t digest, NodeId node,
                        const Version& version, std::string_view value) {
  const auto update = [&](Copy& c) {
    if (!version.newer_than(c.version)) return false;
    c.version = version;
    c.value.assign(value);
    return true;
  };
  {
    std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
    if (Copy* c = ki.copy_at(node)) return update(*c);
  }
  // First copy: the digest joins held_[node] under the same locks, so a
  // concurrent forget(node) either sees both or neither.
  std::lock_guard node_lock(node_mutex_[node_stripe(node)].m);
  std::lock_guard key_lock(key_mutex_[key_stripe(digest)].m);
  if (Copy* c = ki.copy_at(node)) return update(*c);  // lost a first-copy race
  ki.copies.push_back(Copy{node, version, std::string(value)});
  held_[node].push_back(digest);
  return true;
}

void QuorumStore::commit(KeyInfo& ki, std::uint64_t digest,
                         const Version& version) {
  std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
  if (ki.committed.seq == 0) {
    keys_committed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (version.newer_than(ki.committed)) ki.committed = version;
  // A committed seq must never outrun the issue counter (install() commits
  // versions it issued itself; run_batch issues before routing).
  if (version.seq > ki.issued) ki.issued = version.seq;
}

void QuorumStore::run_batch(const core::Router& router, std::span<const Op> ops,
                            std::span<OpResult> results,
                            std::uint64_t seed_base, StoreTelemetry telem) {
  util::require(results.size() >= ops.size(),
                "QuorumStore: results span shorter than ops");
  util::require(&router.graph() == graph_,
                "QuorumStore: router is over a different graph");
  const failure::FailureView& view = router.view();
  const std::size_t want = config_.k + config_.max_failovers;

  // Latency streams live in a substream family distinct from the routing
  // one: op i's per-hop draws depend only on (seed_base, i), never on wave
  // composition.
  const std::uint64_t lat_base = util::splitmix64(seed_base ^ 0x9d5c0f1e6b7a3d42ULL);

  std::vector<OpState> states(ops.size());
  std::vector<NodeId> cand(ops.size() * want);
  std::vector<SubQuery> inflight;
  std::vector<SubQuery> next;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    OpState& st = states[i];
    util::require_in_range(op.client < graph_->size(),
                           "QuorumStore: op client out of range");
    st.digest = dht::key_digest(op.key);
    st.lat_rng = util::substream(lat_base, i);
    st.cand = std::span<NodeId>(cand).subspan(i * want, want);
    st.cand_count = nearest_live(view, point_of(st.digest), want, st.cand);
    st.primaries = std::min(config_.k, st.cand_count);
    st.next_standby = st.primaries;
    if (op.type == OpType::kPut) {
      st.record = &record(st.digest);
      st.put_version = issue(*st.record, st.digest, op.client);
    } else {
      st.record = find_record(st.digest);
    }
    st.fanout = op.type == OpType::kPut ? st.primaries
                                        : std::min(config_.r, st.primaries);
    if (st.fanout > 0) {
      inflight.push_back(SubQuery{static_cast<std::uint32_t>(i), op.client,
                                  st.cand[0], graph::kInvalidNode, 0.0, true});
    }
  }
  // Queues cand[1..fanout) of op `i`, routed from `from`.
  const auto fan_out = [&](std::uint32_t i, NodeId from, double launch_ms) {
    const OpState& st = states[i];
    for (std::size_t t = 1; t < st.fanout; ++t) {
      next.push_back(SubQuery{i, from, st.cand[t], graph::kInvalidNode,
                              launch_ms, false});
    }
  };

  std::vector<core::Query> queries;
  std::vector<core::RouteResult> rres;
  std::size_t wave = 0;
  while (!inflight.empty()) {
    queries.clear();
    queries.reserve(inflight.size());
    for (const SubQuery& sq : inflight) {
      queries.push_back(core::Query{sq.from, graph_->position(sq.replica)});
    }
    rres.assign(inflight.size(), core::RouteResult{});
    util::Rng wave_rng = util::substream(seed_base, wave);
    router.route_batch(queries, rres, wave_rng, config_.batch);

    next.clear();
    for (std::size_t j = 0; j < inflight.size(); ++j) {
      const SubQuery& sq = inflight[j];
      const Op& op = ops[sq.op];
      OpState& st = states[sq.op];
      // A forward from a client that is itself the primary is client-routed.
      const bool forward = sq.from != op.client;
      ++st.subqueries;
      telem.recorder.add(telem.metrics.subqueries);
      if (forward) telem.recorder.add(telem.metrics.forwards);
      st.hops += rres[j].hops;

      bool success = false;
      double cost = config_.timeout_ms;  // a lost sub-query is waited out
      if (rres[j].delivered()) {
        double lat = 0.0;
        for (std::size_t h = 0; h < rres[j].hops; ++h) {
          lat += config_.latency.sample(st.lat_rng);
        }
        if (lat <= config_.timeout_ms) {
          success = true;
          cost = lat;
        } else {
          telem.recorder.add(telem.metrics.timeouts);
        }
      } else {
        telem.recorder.add(telem.metrics.unreachable);
      }
      const double done_ms = sq.launch_ms + cost;
      st.latency_ms = std::max(st.latency_ms, done_ms);

      if (success) {
        if (sq.head) fan_out(sq.op, sq.replica, done_ms);
        if (op.type == OpType::kPut) {
          write(*st.record, st.digest, sq.replica, st.put_version, op.value);
          ++st.acks;
          st.quorum = st.acks >= config_.w;
          if (config_.hinted_handoff && sq.hint_for != graph::kInvalidNode) {
            std::lock_guard lock(hints_mutex_);
            hints_.push_back(
                Hint{sq.hint_for, st.digest, st.put_version, op.value});
            telem.recorder.add(telem.metrics.hints_stored);
          }
        } else {
          ++st.responses;
          st.quorum = st.responses >= config_.r;
          if (st.record == nullptr) st.record = find_record(st.digest);
          if (st.record != nullptr) {
            std::lock_guard lock(key_mutex_[key_stripe(st.digest)].m);
            if (const Copy* c = st.record->copy_at(sq.replica)) {
              if (!st.found || c->version.newer_than(st.best)) {
                st.best = c->version;
                st.best_value.assign(c->value);
              }
              st.found = true;
            }
          }
        }
      } else if (forward) {
        // A lost forward usually died at a gap next to its replica, where
        // the primary has no other link closer to it; the client's route
        // arrives from elsewhere, so it retries the same replica. No
        // standby, no hint.
        telem.recorder.add(telem.metrics.forward_retries);
        next.push_back(SubQuery{sq.op, op.client, sq.replica,
                                graph::kInvalidNode,
                                done_ms + config_.backoff_ms, false});
      } else {
        // A lost head never reached the primary: the client fans out itself.
        if (sq.head) fan_out(sq.op, op.client, done_ms + config_.backoff_ms);
        if (!st.quorum && st.next_standby < st.cand_count) {
          // Failover: promote the next standby, routed from the client and
          // inheriting the hint target of the primary this attempt chain
          // started from.
          const NodeId standby = st.cand[st.next_standby++];
          const NodeId hint_for =
              sq.hint_for != graph::kInvalidNode ? sq.hint_for : sq.replica;
          ++st.failovers;
          telem.recorder.add(telem.metrics.failovers);
          next.push_back(SubQuery{sq.op, op.client, standby, hint_for,
                                  done_ms + config_.backoff_ms, false});
        }
      }
    }
    inflight.swap(next);
    ++wave;
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    OpState& st = states[i];
    OpResult& res = results[i];
    res = OpResult{};
    res.acks = st.acks;
    res.responses = st.responses;
    res.subqueries = st.subqueries;
    res.failovers = st.failovers;
    res.hops = st.hops;
    res.latency_ms = st.latency_ms;
    telem.recorder.observe(telem.metrics.op_hops, st.hops);
    telem.recorder.observe(
        telem.metrics.op_latency_us,
        static_cast<std::uint64_t>(st.latency_ms * 1000.0));

    if (op.type == OpType::kPut) {
      telem.recorder.add(telem.metrics.puts);
      telem.recorder.observe(telem.metrics.op_acks, st.acks);
      res.ok = st.acks >= config_.w;
      res.version = st.put_version;
      if (res.ok) {
        commit(*st.record, st.digest, st.put_version);
      } else {
        telem.recorder.add(telem.metrics.put_quorum_fail);
      }
      continue;
    }

    telem.recorder.add(telem.metrics.gets);
    telem.recorder.observe(telem.metrics.op_acks, st.responses);
    res.ok = st.responses >= config_.r;
    res.found = st.found;
    if (!res.ok) telem.recorder.add(telem.metrics.get_quorum_fail);
    if (!st.found) {
      telem.recorder.add(telem.metrics.not_found);
      continue;
    }
    res.version = st.best;
    {
      std::lock_guard lock(key_mutex_[key_stripe(st.digest)].m);
      res.stale = st.record->committed.newer_than(st.best);
    }
    if (res.stale) telem.recorder.add(telem.metrics.stale_reads);
    if (config_.read_repair && res.ok) {
      // Push the returned version to live primaries holding less. write()
      // merges by max version, so repairing with a stale read is harmless.
      for (std::size_t t = 0; t < st.primaries; ++t) {
        const NodeId p = st.cand[t];
        if (!view.node_alive(p)) continue;
        if (write(*st.record, st.digest, p, st.best, st.best_value)) {
          telem.recorder.add(telem.metrics.repair_pushes);
          telem.recorder.add(telem.metrics.repair_bytes,
                             st.best_value.size() + kRecordOverhead);
        }
      }
    }
    res.value = std::move(st.best_value);
  }
  telem.recorder.set(telem.metrics.keys, key_count());
}

Version QuorumStore::install(const failure::FailureView& view,
                             std::string_view key, std::string_view value,
                             NodeId writer) {
  const std::uint64_t digest = dht::key_digest(key);
  KeyInfo& ki = record(digest);
  const Version version = issue(ki, digest, writer);
  std::array<NodeId, kMaxReplicas> cand{};
  const std::size_t n = nearest_live(view, point_of(digest), config_.k,
                                     std::span<NodeId>(cand));
  for (std::size_t t = 0; t < n; ++t) {
    write(ki, digest, cand[t], version, value);
  }
  commit(ki, digest, version);
  return version;
}

void QuorumStore::forget(NodeId node) {
  std::vector<std::uint64_t> digests;
  {
    std::lock_guard lock(node_mutex_[node_stripe(node)].m);
    digests.swap(held_[node]);
  }
  for (const std::uint64_t digest : digests) {
    std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
    // Every listed digest has a record: records are never erased.
    auto& copies = directory_[key_stripe(digest)].find(digest)->second.copies;
    const auto it = std::find_if(copies.begin(), copies.end(), [node](const Copy& c) {
      return c.node == node;
    });
    if (it != copies.end()) copies.erase(it);
  }
}

std::size_t QuorumStore::deliver_hints(const failure::FailureView& view,
                                       StoreTelemetry telem) {
  std::vector<Hint> pending;
  {
    std::lock_guard lock(hints_mutex_);
    pending.swap(hints_);
  }
  std::size_t delivered = 0;
  std::vector<Hint> keep;
  for (Hint& h : pending) {
    if (!view.node_alive(h.target)) {
      keep.push_back(std::move(h));
      continue;
    }
    write(record(h.digest), h.digest, h.target, h.version, h.value);
    ++delivered;
    telem.recorder.add(telem.metrics.hints_delivered);
    telem.recorder.add(telem.metrics.repair_bytes,
                       h.value.size() + kRecordOverhead);
  }
  if (!keep.empty()) {
    std::lock_guard lock(hints_mutex_);
    hints_.insert(hints_.end(), std::make_move_iterator(keep.begin()),
                  std::make_move_iterator(keep.end()));
  }
  return delivered;
}

SweepStats QuorumStore::repair_sweep(const failure::FailureView& view,
                                     StoreTelemetry telem) {
  /// A live primary with no copy at all: filled after the stripe's walk,
  /// since a first copy takes the node stripe before the key stripe.
  struct FirstCopy {
    KeyInfo* ki = nullptr;
    std::uint64_t digest = 0;
    NodeId target = 0;
    Version version;
    std::string value;
  };
  const auto pushed = [&](std::size_t value_bytes) {
    telem.recorder.add(telem.metrics.repair_pushes);
    telem.recorder.add(telem.metrics.repair_bytes,
                       value_bytes + kRecordOverhead);
  };
  SweepStats stats;
  std::array<NodeId, kMaxReplicas> cand{};
  std::vector<NodeId> missing;
  std::vector<FirstCopy> firsts;
  for (std::size_t s = 0; s < kStripes; ++s) {
    {
      std::lock_guard lock(key_mutex_[s].m);
      for (auto& [digest, ki] : directory_[s]) {
        if (ki.committed.seq == 0) continue;
        ++stats.examined;
        const std::size_t n = nearest_live(view, point_of(digest), config_.k,
                                           std::span<NodeId>(cand));
        missing.clear();
        for (std::size_t t = 0; t < n; ++t) {
          const Copy* c = ki.copy_at(cand[t]);
          if (c == nullptr || ki.committed.newer_than(c->version)) {
            missing.push_back(cand[t]);
          }
        }
        if (missing.empty()) continue;

        // Source: the first live copy, in first-copy order, at least as new
        // as the committed version.
        const auto source = std::find_if(
            ki.copies.begin(), ki.copies.end(), [&](const Copy& c) {
              return view.node_alive(c.node) &&
                     !ki.committed.newer_than(c.version);
            });
        if (source == ki.copies.end()) {
          ++stats.lost;
          continue;
        }
        ++stats.degraded;
        for (const NodeId target : missing) {
          // A stale copy is strictly older than the source: overwrite it in
          // place (no append, so `source` stays valid).
          if (Copy* c = ki.copy_at(target)) {
            c->version = source->version;
            c->value = source->value;
            pushed(c->value.size());
          } else {
            firsts.push_back(
                FirstCopy{&ki, digest, target, source->version, source->value});
          }
        }
        ++stats.repaired;
      }
    }
    for (const FirstCopy& f : firsts) {
      if (write(*f.ki, f.digest, f.target, f.version, f.value)) {
        pushed(f.value.size());
      }
    }
    firsts.clear();
  }
  telem.recorder.set(telem.metrics.degraded_keys, stats.degraded + stats.lost);
  telem.recorder.set(telem.metrics.keys, key_count());
  return stats;
}

std::optional<Version> QuorumStore::latest_committed(
    std::string_view key) const {
  const std::uint64_t digest = dht::key_digest(key);
  std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
  const auto& shard = directory_[key_stripe(digest)];
  const auto it = shard.find(digest);
  if (it == shard.end() || it->second.committed.seq == 0) return std::nullopt;
  return it->second.committed;
}

std::optional<std::pair<Version, std::string>> QuorumStore::replica(
    NodeId node, std::string_view key) const {
  const std::uint64_t digest = dht::key_digest(key);
  std::lock_guard lock(key_mutex_[key_stripe(digest)].m);
  const auto& shard = directory_[key_stripe(digest)];
  const auto it = shard.find(digest);
  if (it == shard.end()) return std::nullopt;
  const Copy* c = it->second.copy_at(node);
  if (c == nullptr) return std::nullopt;
  return std::make_pair(c->version, c->value);
}

std::size_t QuorumStore::pending_hints() const {
  std::lock_guard lock(hints_mutex_);
  return hints_.size();
}

}  // namespace p2p::store
