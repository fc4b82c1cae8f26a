//===- EventLog.h - Framework event tracing ---------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "detailed log system for tracing framework events" the paper names
/// as its mitigation for the increased-complexity risk (§4.4). Events are
/// recorded in fixed-capacity lock-free rings and can be drained or
/// snapshotted for inspection; Table 6 (most common transitions) is
/// produced from the Transition events recorded here.
///
/// Record path (DESIGN.md §6.1, support/SeqlockRing.h): record() is
/// wait-free apart from one atomic fetch_add — a ticket claims a slot,
/// the payload is published under a per-slot sequence version, and
/// writers never block on readers or on each other. Site names and
/// detail strings are interned once (mutex-guarded cold path) and events
/// carry 32-bit ids, so recording allocates nothing and copies no
/// strings. When a ring wraps, the oldest events are overwritten and
/// droppedCount() reports how many were lost.
///
/// Topology-aware sharding (DESIGN.md §10): the log is one ring per
/// NUMA node, so the ticket counter a recorder hammers lives on its own
/// socket and never bounces across the interconnect. record() routes to
/// the caller's node ring; consumers merge the rings by timestamp while
/// preserving each ring's ticket order, and drop accounting stays exact
/// per ring (nodeDroppedCounts() exposes the split). On single-node
/// machines there is exactly one ring and behaviour is identical to the
/// pre-sharded log.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_EVENTLOG_H
#define CSWITCH_SUPPORT_EVENTLOG_H

#include "support/SeqlockRing.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cswitch {

/// Kind of framework event.
enum class EventKind {
  ContextCreated,    ///< An allocation context was registered.
  MonitoringRound,   ///< A context started monitoring a fresh window.
  Evaluation,        ///< A context evaluated its window.
  Transition,        ///< A context switched its variant.
  AdaptiveMigration, ///< An adaptive instance migrated its representation.
  WarmStart,         ///< A context seeded its variant from the store.
  Store              ///< Selection-store activity (load/persist problems).
};

/// Returns a stable name for \p Kind (e.g. "transition").
const char *eventKindName(EventKind Kind);

/// One recorded framework event, resolved for consumption. The strings
/// are materialized from the intern table at snapshot/drain time; the
/// ring itself only stores the ids.
struct Event {
  EventKind Kind;
  std::string Context; ///< Context/site name, or variant name for migrations.
  std::string Detail;  ///< Free-form detail, e.g. "ArrayList -> AdaptiveList".
  /// Unique per event: the ring-local ticket in the low bits with the
  /// ring (node) index folded into bits 48+. On a single-node log this
  /// is the plain ticket. Orders events within one node; cross-node
  /// order comes from TimestampNanos.
  uint64_t SequenceNumber = 0;
  /// Record time in monotonicNanos() units (the steady clock), so
  /// drained events can be laid out on a timeline (the Perfetto
  /// decision-timeline export) and correlated with latency histograms
  /// captured on the same clock.
  uint64_t TimestampNanos = 0;
  uint32_t ContextId = 0; ///< Interned id of Context.
  uint32_t DetailId = 0;  ///< Interned id of Detail.
  uint32_t Node = 0;      ///< NUMA node (ring) the event was recorded on.
};

/// Lock-free, bounded, process-wide event log: one ring per NUMA node.
///
/// Bounded so that long benchmark runs cannot grow it without limit;
/// when a ring is full, its oldest events are overwritten
/// (droppedCount() reports how many, nodeDroppedCounts() per ring). The
/// record path takes no mutex and performs no allocation: it is one
/// relaxed fetch_add on the caller's node's ticket counter, one
/// steady-clock read (the timestamp that anchors the decision
/// timeline), one compare-and-swap that opens the slot, three payload
/// word stores and the publishing release store. Consumers (snapshot /
/// drain / clear) serialize against each other on a mutex but never
/// against recorders; slots overwritten mid-read are detected by their
/// sequence version and skipped.
class EventLog {
public:
  /// Returns the process-wide log instance.
  static EventLog &global();

  /// \p Capacity is the total slot budget, split evenly over the rings
  /// and rounded up per ring to a power of two. \p Nodes = 0 means one
  /// ring per NUMA node of Topology::system(); pass an explicit count
  /// to pin the ring layout (tests of per-ring semantics pass 1).
  explicit EventLog(size_t Capacity = 65536, unsigned Nodes = 0);

  EventLog(const EventLog &) = delete;
  EventLog &operator=(const EventLog &) = delete;

  //===--------------------------------------------------------------===//
  // Interning (cold path, mutex-guarded)
  //===--------------------------------------------------------------===//

  /// Interns \p Text and returns its stable id. Interning the same text
  /// twice returns the same id. Id 0 is always the empty string.
  uint32_t intern(std::string_view Text);

  /// Returns the text interned under \p Id ("" for unknown ids).
  std::string textOf(uint32_t Id) const;

  //===--------------------------------------------------------------===//
  // Record path (lock-free, allocation-free)
  //===--------------------------------------------------------------===//

  /// Appends an event carrying pre-interned ids to the calling thread's
  /// node ring. Lock-free: one atomic fetch_add claims the slot; a
  /// per-slot sequence version publishes the payload. Returns
  /// immediately without any work when recording is disabled.
  void record(EventKind Kind, uint32_t ContextId, uint32_t DetailId = 0);

  /// record() onto an explicit node's ring (folded modulo the ring
  /// count). Tests of the merge/drop protocol use this to target rings
  /// deterministically regardless of the machine's real topology.
  void recordOnNode(unsigned Node, EventKind Kind, uint32_t ContextId,
                    uint32_t DetailId = 0);

  /// Convenience overload that interns both strings first (cold paths
  /// and tests; the framework's hot paths pre-intern and use the id
  /// overload).
  void record(EventKind Kind, std::string_view Context,
              std::string_view Detail);

  /// Globally enables/disables recording. While disabled, record() is a
  /// single relaxed load and nothing is counted.
  void setEnabled(bool Enabled) {
    this->Enabled.store(Enabled, std::memory_order_relaxed);
  }

  /// True when recording is enabled (the default).
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  //===--------------------------------------------------------------===//
  // Consumption (serialized on a consumer mutex; never blocks recorders)
  //===--------------------------------------------------------------===//

  /// Returns a snapshot of the retained events, merged across rings in
  /// timestamp order with each ring's ticket order preserved. Events
  /// overwritten while the snapshot runs are skipped.
  std::vector<Event> snapshot() const;

  /// Returns the retained events of kind \p Kind in merged order.
  std::vector<Event> snapshotOfKind(EventKind Kind) const;

  /// Consuming read: returns the events recorded since the previous
  /// drain() (or clear()), merged across rings, and advances each
  /// ring's drain cursor past them. A ring's cursor stops before any
  /// event whose writer is still mid-publication, so a drain never
  /// loses an event that is about to arrive — the next drain picks it
  /// up.
  std::vector<Event> drain();

  /// Forgets all recorded events (dropped counts and drain cursors are
  /// reset too). The intern table is retained: ids stay valid.
  void clear();

  /// Events lost because a ring wrapped (since clear()), summed over
  /// rings.
  uint64_t droppedCount() const;

  /// Per-ring wrap losses, indexed by node (size nodeCount()).
  std::vector<uint64_t> nodeDroppedCounts() const;

  /// Total events recorded since clear() (including dropped ones).
  uint64_t totalRecorded() const;

  /// Total slot capacity over all rings.
  size_t capacity() const { return RingCap * Nodes; }

  /// Number of per-node rings.
  unsigned nodeCount() const { return Nodes; }

private:
  /// One event as the ring stores it: 24 bytes, three payload words, so
  /// a slot (version word included) is 32 bytes.
  struct Payload {
    uint64_t Ts;
    uint32_t Context;
    uint32_t Detail;
    uint32_t Kind;
  };
  static_assert(SeqlockRing<Payload>::SlotBytes == 32,
                "an event slot is 32 bytes: version plus three words");

  /// One per-node ring: the slot ring (whose ticket counter is the
  /// single point of contention on the record path, now per node) plus
  /// the consumer-side window state. Cache-line aligned so one node's
  /// ticket counter never shares a line with another's.
  struct alignas(64) Ring {
    explicit Ring(size_t Capacity) : Slots(Capacity) {}
    /// Tickets are never reset (clear() moves Base instead so in-flight
    /// recorders keep working).
    SeqlockRing<Payload> Slots;
    /// Logical beginning of the ring (advanced by clear()).
    std::atomic<uint64_t> Base{0};
    uint64_t DrainCursor = 0; ///< Guarded by ConsumerMutex.
  };

  /// Raw (still id-based) event collected from a ring.
  struct RawEvent {
    Payload Data;
    uint64_t Ticket;
    uint32_t Node;
  };

  /// The record path, targeted at ring \p Node.
  void recordOnRing(unsigned Node, EventKind Kind, uint32_t ContextId,
                    uint32_t DetailId);

  /// Appends ring \p Node's validated events with tickets in [Lo, Hi)
  /// to \p Out in ticket order, skipping overwritten ones. An event
  /// whose writer is still mid-publication is skipped too, unless
  /// \p StopAtPending, in which case collection stops there. \returns
  /// the ticket collection stopped at (the next drain cursor).
  uint64_t collect(unsigned Node, uint64_t Lo, uint64_t Hi,
                   bool StopAtPending, std::vector<RawEvent> &Out) const;

  /// Merges per-ring collections (each ticket-ordered) into one
  /// timestamp-ordered stream; ties break by node index, so the merge
  /// is deterministic and each ring's internal order survives.
  static std::vector<RawEvent>
  merge(std::vector<std::vector<RawEvent>> PerRing);

  /// Resolves raw events into Events (one intern-table lock for all).
  std::vector<Event> resolve(const std::vector<RawEvent> &Raw) const;

  /// Oldest ticket of ring \p R that can still be retained given
  /// \p Hi = R.Next.
  uint64_t windowStart(const Ring &R, uint64_t Hi) const {
    uint64_t Lo = R.Base.load(std::memory_order_relaxed);
    if (Hi - Lo > RingCap)
      Lo = Hi - RingCap;
    return Lo;
  }

  size_t RingCap; ///< Power-of-two slot count per ring.
  unsigned Nodes; ///< Ring count (>= 1).
  std::vector<std::unique_ptr<Ring>> Rings;

  std::atomic<bool> Enabled{true};

  /// Serializes consumers (snapshot/drain/clear) with each other only.
  mutable std::mutex ConsumerMutex;

  /// Intern table (cold path).
  mutable std::mutex InternMutex;
  std::vector<std::string> InternedText;
  std::unordered_map<std::string, uint32_t> InternedIds;
};

} // namespace cswitch

#endif // CSWITCH_SUPPORT_EVENTLOG_H
