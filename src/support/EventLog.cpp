//===- EventLog.cpp - Framework event tracing ----------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Timer.h"

#include <algorithm>

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

EventLog::EventLog(size_t Capacity)
    : Slots(std::max<size_t>(Capacity, 2)) {
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

void EventLog::record(EventKind Kind, uint32_t ContextId,
                      uint32_t DetailId) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  uint64_t Ticket = Slots.claim();
  Slots.publish(Ticket, Payload{monotonicNanos(), ContextId, DetailId,
                                static_cast<uint32_t>(Kind)});
}

void EventLog::record(EventKind Kind, std::string_view Context,
                      std::string_view Detail) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  record(Kind, intern(Context), intern(Detail));
}

uint64_t EventLog::collect(uint64_t Lo, uint64_t Hi, bool StopAtPending,
                           std::vector<RawEvent> &Out) const {
  if (Lo < Hi)
    Out.reserve(Out.size() + static_cast<size_t>(Hi - Lo));
  uint64_t Ticket = Lo;
  for (; Ticket < Hi; ++Ticket) {
    RawEvent Raw{{}, Ticket};
    SlotRead Read = Slots.read(Ticket, Raw.Data);
    if (Read == SlotRead::Pending && StopAtPending)
      break; // writer still mid-publication: the next drain resumes here
    if (Read == SlotRead::Ok)
      Out.push_back(Raw);
  }
  return Ticket;
}

std::vector<Event> EventLog::resolve(
    const std::vector<RawEvent> &Raw) const {
  std::vector<Event> Out;
  Out.reserve(Raw.size());
  std::lock_guard<std::mutex> Lock(InternMutex);
  for (const RawEvent &R : Raw) {
    Event E;
    E.Kind = static_cast<EventKind>(R.Data.Kind);
    E.SequenceNumber = R.Ticket;
    E.TimestampNanos = R.Data.Ts;
    E.ContextId = R.Data.Context;
    E.DetailId = R.Data.Detail;
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
  std::vector<RawEvent> Raw;
  uint64_t Hi = Slots.next();
  collect(windowStart(Hi), Hi, /*StopAtPending=*/false, Raw);
  return resolve(Raw);
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
  std::vector<RawEvent> Raw;
  uint64_t Hi = Slots.next();
  uint64_t Lo = std::max(DrainCursor, windowStart(Hi));
  DrainCursor = collect(Lo, Hi, /*StopAtPending=*/true, Raw);
  return resolve(Raw);
}

void EventLog::clear() {
  std::lock_guard<std::mutex> Lock(ConsumerMutex);
  uint64_t Hi = Slots.next();
  Base.store(Hi, std::memory_order_relaxed);
  DrainCursor = Hi;
}

uint64_t EventLog::droppedCount() const {
  uint64_t Total = totalRecorded();
  return Total > Slots.capacity() ? Total - Slots.capacity() : 0;
}

uint64_t EventLog::totalRecorded() const {
  return Slots.next() - Base.load(std::memory_order_relaxed);
}
