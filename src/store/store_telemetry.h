// Telemetry surface of the replicated object store: every quorum outcome the
// ISSUE's acceptance criteria name (quorum achieved/failed, repair bytes,
// staleness, failover count) flows through telemetry::Registry handles — no
// ad-hoc tallies on the store hot path.
//
// Same shape as service/service_telemetry.h: a Metrics struct registered once
// (create()), and a per-writer-thread bundle pairing a Recorder with the
// handles. The store records per *operation*, not per hop — the routing layer
// underneath already has its own RouteTelemetry; these keys cover what the
// quorum layer adds on top.
#pragma once

#include <string>

#include "telemetry/metric_registry.h"

namespace p2p::store {

/// Registered store metric handles. Key table (also in README):
///   store.puts / store.gets           quorum operations started
///   store.put_quorum_fail             puts that ended with acks < W
///   store.get_quorum_fail             gets that ended with responses < R
///   store.subqueries                  routed replica sub-queries issued
///   store.forwards                    sub-queries routed from the primary
///   store.forward_retries             undelivered forwards the client retried
///   store.failovers                   standby replicas promoted mid-op
///   store.timeouts                    sub-queries lost to latency > timeout
///   store.unreachable                 sub-queries lost to routing failure
///                                     (forwards included)
///   store.stale_reads                 gets that observed < latest committed
///   store.not_found                   gets for keys with no surviving value
///   store.repair_pushes/.repair_bytes read-repair + sweep traffic
///   store.hints_stored/.hints_delivered  hinted-handoff lifecycle
///   store.op_latency_us / .op_hops / .op_acks  per-op distributions
///   store.keys / store.degraded_keys  directory size / last sweep's damage
struct StoreMetrics {
  telemetry::Counter puts;
  telemetry::Counter gets;
  telemetry::Counter put_quorum_fail;
  telemetry::Counter get_quorum_fail;
  telemetry::Counter subqueries;
  telemetry::Counter forwards;
  telemetry::Counter forward_retries;
  telemetry::Counter failovers;
  telemetry::Counter timeouts;
  telemetry::Counter unreachable;
  telemetry::Counter stale_reads;
  telemetry::Counter not_found;
  telemetry::Counter repair_pushes;
  telemetry::Counter repair_bytes;
  telemetry::Counter hints_stored;
  telemetry::Counter hints_delivered;
  telemetry::Histogram op_latency_us;
  telemetry::Histogram op_hops;
  telemetry::Histogram op_acks;
  telemetry::Gauge keys;
  telemetry::Gauge degraded_keys;

  static StoreMetrics create(telemetry::Registry& reg,
                             const std::string& prefix = "store") {
    StoreMetrics m;
    m.puts = reg.counter(prefix + ".puts");
    m.gets = reg.counter(prefix + ".gets");
    m.put_quorum_fail = reg.counter(prefix + ".put_quorum_fail");
    m.get_quorum_fail = reg.counter(prefix + ".get_quorum_fail");
    m.subqueries = reg.counter(prefix + ".subqueries");
    m.forwards = reg.counter(prefix + ".forwards");
    m.forward_retries = reg.counter(prefix + ".forward_retries");
    m.failovers = reg.counter(prefix + ".failovers");
    m.timeouts = reg.counter(prefix + ".timeouts");
    m.unreachable = reg.counter(prefix + ".unreachable");
    m.stale_reads = reg.counter(prefix + ".stale_reads");
    m.not_found = reg.counter(prefix + ".not_found");
    m.repair_pushes = reg.counter(prefix + ".repair_pushes");
    m.repair_bytes = reg.counter(prefix + ".repair_bytes");
    m.hints_stored = reg.counter(prefix + ".hints_stored");
    m.hints_delivered = reg.counter(prefix + ".hints_delivered");
    m.op_latency_us = reg.histogram(prefix + ".op_latency_us", 2.0,
                                    std::uint64_t{1} << 30);
    m.op_hops = reg.histogram(prefix + ".op_hops");
    m.op_acks = reg.histogram(prefix + ".op_acks", 2.0, 256);
    m.keys = reg.gauge(prefix + ".keys");
    m.degraded_keys = reg.gauge(prefix + ".degraded_keys");
    return m;
  }
};

/// One writer thread's store telemetry: a shard-bound Recorder plus the
/// shared handles. Copyable; a default-constructed bundle drops everything
/// (the registry-less path costs two null checks per op).
struct StoreTelemetry {
  telemetry::Recorder recorder;
  StoreMetrics metrics;
};

}  // namespace p2p::store
