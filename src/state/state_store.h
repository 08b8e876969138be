// Keyed operator state. A StateStore is the task-local map a StatefulBolt
// mutates from execute(): topo::Value keys to topo::Value values in an
// open-addressing table whose capacity plateaus at the key-space
// high-water mark, so steady-state updates perform no heap allocation
// (the same guarantee sim::FlatMap gives the runtime's bookkeeping —
// FlatMap itself needs trivially-copyable keys, which Value is not, so
// the keyed table reimplements its probing with stored hashes).
//
// The store also owns the runtime-facing half of exactly-once state:
//   * a dedup set of applied update paths (deterministic lineage ids of
//     tuple-tree branches) that suppresses re-application of replayed
//     updates; the hosting executor sweeps it at each checkpoint round,
//     retiring the entries of trees that can no longer reach the task;
//   * value-semantic Snapshots taken at barrier alignment, written to the
//     simulated durable store, and restored into a fresh executor after
//     reassignment. State and dedup set snapshot/restore atomically, so
//     "update applied" and "update remembered as applied" can never be
//     split by a crash.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flat_map.h"
#include "topo/tuple.h"

namespace tstorm::state {

/// splitmix64 finalizer: the path/id mixer. Deterministic, well-mixed,
/// cheap enough for the per-emission routing path.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Lineage path of a spout root emission: stable across replay attempts
/// because it derives from the tree uid (the attempt-0 root id), never
/// from the per-attempt root id. Never returns 0 (the dedup sentinel).
[[nodiscard]] constexpr std::uint64_t root_path(std::uint64_t uid) noexcept {
  const std::uint64_t p = mix64(uid);
  return p != 0 ? p : 1;
}

/// Lineage path of the `ordinal`-th emission while processing an input
/// envelope with path `parent`. Bolt logic is deterministic given its
/// state keys, so attempt N and attempt N+1 of the same tree assign the
/// same paths to the same logical updates — the dedup invariant.
[[nodiscard]] constexpr std::uint64_t child_path(
    std::uint64_t parent, std::uint64_t ordinal) noexcept {
  const std::uint64_t p = mix64(parent ^ (ordinal + 0x517cc1b727220a95ULL));
  return p != 0 ? p : 1;
}

/// Value-semantic copy of a store: keyed entries + dedup set + serialized
/// size. Built once per checkpoint (allocation at checkpoint rate, not
/// tuple rate); shipped through the network model to the durable store.
struct Snapshot {
  std::vector<std::pair<topo::Value, topo::Value>> entries;
  std::vector<std::pair<std::uint64_t, double>> dedup;
  /// Approximate serialized size (drives write transmission time).
  std::uint64_t bytes = 0;
};

class StateStore {
 public:
  StateStore() = default;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// --- Keyed API (StatefulBolt-facing). ---
  [[nodiscard]] const topo::Value* get(const topo::Value& key) const;
  void put(const topo::Value& key, topo::Value value);
  /// Adds `by` to an integer-valued key (insert-at-zero when absent) and
  /// returns the new total. The workhorse of every counting bolt.
  std::int64_t increment(const topo::Value& key, std::int64_t by = 1);
  /// Invokes fn(const Value& key, const Value& value) per entry, in
  /// unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.hash != 0) fn(s.key, s.value);
    }
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Approximate serialized size of the keyed entries, maintained
  /// incrementally (no walk at checkpoint time).
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  /// --- Replay mode (runtime-facing). ---
  /// While set, mutations are suppressed — put() drops its value and
  /// increment() returns the stored total unchanged (the suppressed
  /// update is already in it) — while reads see post-application state.
  /// The hosting executor wraps re-execution of a dedup-suppressed
  /// duplicate in this mode, so the bolt re-emits its children without
  /// re-applying its state effects.
  void set_replay(bool on) { replay_ = on; }
  [[nodiscard]] bool in_replay() const { return replay_; }

  /// --- Exactly-once dedup (runtime-facing). ---
  /// Records that the update with lineage id `path` was applied at `now`.
  /// Returns false — and refreshes the timestamp — when the path was
  /// already applied (a replayed duplicate to suppress). An entry's time
  /// is never earlier than its tree's first emission, which is what lets
  /// the sweep below retire it by a barrier's stamp: once the stamp passes
  /// the entry's last touch, the tree was resolved before the stamping
  /// barrier left its spouts, and a refresh only delays that further.
  bool dedup_insert(std::uint64_t path, double now);
  /// Drops dedup entries last touched before `horizon`.
  void sweep_dedup(double horizon);
  [[nodiscard]] std::size_t dedup_size() const { return dedup_.size(); }

  /// --- Checkpoint / restore. ---
  [[nodiscard]] Snapshot snapshot() const;
  /// Replaces the full contents (keyed entries and dedup set) with the
  /// snapshot's. The pre-restore contents are discarded.
  void restore(const Snapshot& snap);
  void clear();

 private:
  struct Slot {
    std::uint64_t hash = 0;  // 0 = empty (hash_value output 0 maps to 1)
    topo::Value key;
    topo::Value value;
  };

  [[nodiscard]] static std::uint64_t slot_hash(const topo::Value& key);
  /// Index of the key's slot, or of the empty slot where it would insert.
  [[nodiscard]] std::size_t probe(const topo::Value& key,
                                  std::uint64_t h) const;
  topo::Value& slot_for(const topo::Value& key);
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t bytes_ = 0;
  bool replay_ = false;
  /// Applied-update paths -> last-touched time. Paths are never 0.
  sim::FlatMap<std::uint64_t, double, 0> dedup_;
};

}  // namespace tstorm::state
