//===- EventLog.cpp - Framework event tracing ----------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Timer.h"
#include "support/Topology.h"

#include <algorithm>
#include <bit>

using namespace cswitch;

const char *cswitch::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::ContextCreated:
    return "context-created";
  case EventKind::MonitoringRound:
    return "monitoring-round";
  case EventKind::Evaluation:
    return "evaluation";
  case EventKind::Transition:
    return "transition";
  case EventKind::AdaptiveMigration:
    return "adaptive-migration";
  case EventKind::WarmStart:
    return "warm-start";
  case EventKind::Store:
    return "store";
  }
  return "unknown";
}

EventLog &EventLog::global() {
  static EventLog Instance;
  return Instance;
}

EventLog::EventLog(size_t Capacity, unsigned Nodes)
    : Nodes(Nodes ? Nodes : Topology::system().nodeCount()) {
  // Split the slot budget over the rings: each ring gets the per-node
  // share rounded up to a power of two, so a single-node log has the
  // exact pre-sharding capacity.
  size_t PerRing = (std::max<size_t>(Capacity, 2) + this->Nodes - 1) /
                   this->Nodes;
  RingCap = std::bit_ceil(std::max<size_t>(PerRing, 2));
  Rings.reserve(this->Nodes);
  for (unsigned N = 0; N != this->Nodes; ++N)
    Rings.push_back(std::make_unique<Ring>(RingCap));
  // Id 0 is reserved for the empty string so that "no detail" needs no
  // interning.
  InternedText.emplace_back();
  InternedIds.emplace("", 0);
}

uint32_t EventLog::intern(std::string_view Text) {
  if (Text.empty())
    return 0;
  std::lock_guard<std::mutex> Lock(InternMutex);
  auto It = InternedIds.find(std::string(Text));
  if (It != InternedIds.end())
    return It->second;
  auto Id = static_cast<uint32_t>(InternedText.size());
  InternedText.emplace_back(Text);
  InternedIds.emplace(InternedText.back(), Id);
  return Id;
}

std::string EventLog::textOf(uint32_t Id) const {
  std::lock_guard<std::mutex> Lock(InternMutex);
  if (Id >= InternedText.size())
    return {};
  return InternedText[Id];
}

void EventLog::recordOnRing(unsigned Node, EventKind Kind,
                            uint32_t ContextId, uint32_t DetailId) {
  SeqlockRing<Payload> &Slots = Rings[Node]->Slots;
  uint64_t Ticket = Slots.claim();
  Slots.publish(Ticket, Payload{monotonicNanos(), ContextId, DetailId,
                                static_cast<uint32_t>(Kind)});
}

void EventLog::record(EventKind Kind, uint32_t ContextId,
                      uint32_t DetailId) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  recordOnRing(currentStripe(Nodes), Kind, ContextId, DetailId);
}

void EventLog::recordOnNode(unsigned Node, EventKind Kind,
                            uint32_t ContextId, uint32_t DetailId) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  recordOnRing(Node % Nodes, Kind, ContextId, DetailId);
}

void EventLog::record(EventKind Kind, std::string_view Context,
                      std::string_view Detail) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  record(Kind, intern(Context), intern(Detail));
}

uint64_t EventLog::collect(unsigned Node, uint64_t Lo, uint64_t Hi,
                          bool StopAtPending,
                          std::vector<RawEvent> &Out) const {
  const SeqlockRing<Payload> &Slots = Rings[Node]->Slots;
  if (Lo < Hi)
    Out.reserve(Out.size() + static_cast<size_t>(Hi - Lo));
  uint64_t Ticket = Lo;
  for (; Ticket < Hi; ++Ticket) {
    RawEvent Raw{{}, Ticket, Node};
    SlotRead Read = Slots.read(Ticket, Raw.Data);
    if (Read == SlotRead::Pending && StopAtPending)
      break; // writer still mid-publication: the next drain resumes here
    if (Read == SlotRead::Ok)
      Out.push_back(Raw);
  }
  return Ticket;
}

std::vector<EventLog::RawEvent>
EventLog::merge(std::vector<std::vector<RawEvent>> PerRing) {
  if (PerRing.size() == 1)
    return std::move(PerRing.front());
  size_t Total = 0;
  for (const auto &Ring : PerRing)
    Total += Ring.size();
  std::vector<RawEvent> Out;
  Out.reserve(Total);
  // K-way merge popping ring heads by (timestamp, node). Comparing by
  // head timestamp — not by ticket — keeps each ring's ticket order
  // intact by construction (a ring's heads are consumed front to back)
  // while interleaving rings on the shared steady clock.
  std::vector<size_t> Heads(PerRing.size(), 0);
  while (Out.size() != Total) {
    size_t Best = PerRing.size();
    for (size_t R = 0; R != PerRing.size(); ++R) {
      if (Heads[R] == PerRing[R].size())
        continue;
      if (Best == PerRing.size() ||
          PerRing[R][Heads[R]].Data.Ts < PerRing[Best][Heads[Best]].Data.Ts)
        Best = R;
    }
    Out.push_back(PerRing[Best][Heads[Best]++]);
  }
  return Out;
}

std::vector<Event> EventLog::resolve(
    const std::vector<RawEvent> &Raw) const {
  std::vector<Event> Out;
  Out.reserve(Raw.size());
  std::lock_guard<std::mutex> Lock(InternMutex);
  for (const RawEvent &R : Raw) {
    Event E;
    E.Kind = static_cast<EventKind>(R.Data.Kind);
    // Ring index in the high bits keeps sequence numbers unique across
    // rings; a single-node log yields the plain ticket.
    E.SequenceNumber = (static_cast<uint64_t>(R.Node) << 48) | R.Ticket;
    E.TimestampNanos = R.Data.Ts;
    E.ContextId = R.Data.Context;
    E.DetailId = R.Data.Detail;
    E.Node = R.Node;
    if (R.Data.Context < InternedText.size())
      E.Context = InternedText[R.Data.Context];
    if (R.Data.Detail < InternedText.size())
      E.Detail = InternedText[R.Data.Detail];
    Out.push_back(std::move(E));
  }
  return Out;
}

std::vector<Event> EventLog::snapshot() const {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  std::vector<std::vector<RawEvent>> PerRing(Nodes);
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = *Rings[N];
    uint64_t Hi = R.Slots.next();
    collect(N, windowStart(R, Hi), Hi, /*StopAtPending=*/false, PerRing[N]);
  }
  return resolve(merge(std::move(PerRing)));
}

std::vector<Event> EventLog::snapshotOfKind(EventKind Kind) const {
  std::vector<Event> All = snapshot();
  std::vector<Event> Out;
  for (Event &E : All)
    if (E.Kind == Kind)
      Out.push_back(std::move(E));
  return Out;
}

std::vector<Event> EventLog::drain() {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  std::vector<std::vector<RawEvent>> PerRing(Nodes);
  for (unsigned N = 0; N != Nodes; ++N) {
    Ring &R = *Rings[N];
    uint64_t Hi = R.Slots.next();
    uint64_t Lo = std::max(R.DrainCursor, windowStart(R, Hi));
    R.DrainCursor = collect(N, Lo, Hi, /*StopAtPending=*/true, PerRing[N]);
  }
  return resolve(merge(std::move(PerRing)));
}

void EventLog::clear() {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  for (unsigned N = 0; N != Nodes; ++N) {
    Ring &R = *Rings[N];
    uint64_t Hi = R.Slots.next();
    R.Base.store(Hi, std::memory_order_relaxed);
    R.DrainCursor = Hi;
  }
}

uint64_t EventLog::droppedCount() const {
  uint64_t Dropped = 0;
  for (uint64_t NodeDropped : nodeDroppedCounts())
    Dropped += NodeDropped;
  return Dropped;
}

std::vector<uint64_t> EventLog::nodeDroppedCounts() const {
  std::vector<uint64_t> Out(Nodes, 0);
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = *Rings[N];
    uint64_t Hi = R.Slots.next();
    uint64_t Total = Hi - R.Base.load(std::memory_order_relaxed);
    Out[N] = Total > RingCap ? Total - RingCap : 0;
  }
  return Out;
}

uint64_t EventLog::totalRecorded() const {
  uint64_t Total = 0;
  for (unsigned N = 0; N != Nodes; ++N) {
    const Ring &R = *Rings[N];
    Total += R.Slots.next() - R.Base.load(std::memory_order_relaxed);
  }
  return Total;
}
