// Envelope: one message between executors. Data tuples, the acking
// protocol's control messages, and executor-internal signals all flow as
// envelopes so that every kind of traffic exercises the same queues and
// network links (acker placement is real traffic the scheduler sees).
#pragma once

#include <bit>
#include <cstdint>

#include "sched/types.h"
#include "topo/tuple.h"

namespace tstorm::runtime {

enum class MsgKind : std::uint8_t {
  kData,         // a tuple, anchored to root_id with XOR edge id xor_val
  kAckInit,      // spout -> acker: xor_val = XOR of initial edge ids
  kAck,          // bolt -> acker: xor_val = input edge ^ emitted edges
  kAckComplete,  // acker -> spout: tuple tree fully processed
  kEmitSignal,   // spout-internal: rate-controlled emission slot
  kReplay,       // tracker -> spout: re-emit a failed tuple
  kTick,         // bolt-internal: periodic tick tuple
  kBarrier,      // checkpoint barrier (root_id = checkpoint round id)
  kStateRestore,  // executor-internal: rehydrate from a durable snapshot
};

struct Envelope {
  MsgKind kind = MsgKind::kData;
  sched::TaskId src = -1;
  sched::TaskId dst = -1;
  topo::TupleRef tuple;  // kData / kReplay only (pooled, intrusive refcount)
  std::uint64_t root_id = 0;
  std::uint64_t xor_val = 0;
  /// Assignment version of the sending worker; the dispatcher routes by it
  /// during reassignment (paper section IV-D).
  sched::AssignmentVersion version = 0;
  /// Replay attempt counter (kReplay).
  int attempt = 0;
  /// Exactly-once lineage (StateConfig::enabled only; 0 otherwise).
  /// kData: deterministic path of this emission within its tuple tree —
  /// identical across replay attempts, the key of the stateful bolts'
  /// dedup sets. kReplay: the tree uid (attempt-0 root id) the re-emission
  /// must derive its paths from. kBarrier: the round's retention stamp, a
  /// sim time in its bit pattern (see stamp()).
  std::uint64_t path = 0;
  /// Tuple tracing: start time of the envelope's current phase (network
  /// hop, then queue wait, then execute); < 0 when the root is not
  /// sampled. Stamped by Cluster::send, advanced by the executor hooks.
  double trace_t0 = -1.0;

  /// kBarrier: every tree its upstream spouts emitted before this time
  /// was resolved when the barrier left them (TupleTracker::
  /// oldest_unresolved, the least over the spouts behind the channel).
  [[nodiscard]] double stamp() const { return std::bit_cast<double>(path); }
  void set_stamp(double t) { path = std::bit_cast<std::uint64_t>(t); }

  /// Approximate wire size.
  [[nodiscard]] std::uint64_t bytes() const {
    // kind + ids + anchor info.
    std::uint64_t b = 28;
    if (tuple) b += tuple->bytes();
    return b;
  }
};

}  // namespace tstorm::runtime
