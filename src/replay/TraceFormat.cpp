//===- TraceFormat.cpp - Binary operation-trace format --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "replay/TraceFormat.h"

#include "support/Codec.h"

#include <algorithm>
#include <istream>

using namespace cswitch;
using codec::fail;

namespace {

constexpr codec::Format TraceDoc{"cswitch-optrace-", "cswitch-optrace", 1};

bool decodeOps(std::string_view Bytes, OpTrace &Out, std::string *Error) {
  codec::Reader In(Bytes);
  if (!codec::readHeader(In, TraceDoc, Error))
    return false;

  uint64_t SiteCount = 0;
  if (!In.varint(SiteCount))
    return fail(Error, "truncated site count");
  Out.Sites.reserve(std::min<uint64_t>(SiteCount, codec::MaxReserve));
  for (uint64_t I = 0; I != SiteCount; ++I) {
    TraceSite Site;
    if (!In.string(Site.Name))
      return fail(Error, "truncated site name");
    uint8_t Kind = 0;
    if (!In.byte(Kind) || Kind >= NumAbstractionKinds)
      return fail(Error, "bad abstraction kind");
    Site.Kind = static_cast<AbstractionKind>(Kind);
    uint64_t Declared = 0;
    if (!In.varint(Declared) || Declared >= numVariantsOf(Site.Kind))
      return fail(Error, "bad declared variant index");
    Site.DeclaredVariantIndex = static_cast<unsigned>(Declared);
    Out.Sites.push_back(std::move(Site));
  }

  uint64_t OpCount = 0;
  if (!In.varint(Out.OpsDropped) || !In.varint(Out.InstancesSampled) ||
      !In.varint(Out.InstancesSkipped) || !In.varint(OpCount))
    return fail(Error, "truncated recorder counters");

  Out.Ops.reserve(std::min<uint64_t>(OpCount, codec::MaxReserve));
  uint32_t PrevSite = 0, PrevInstance = 0;
  uint64_t PrevTime = 0;
  for (uint64_t I = 0; I != OpCount; ++I) {
    uint8_t Packed = 0;
    uint64_t SiteDelta = 0, InstanceDelta = 0, Size = 0, TimeDelta = 0;
    if (!In.byte(Packed) || !In.varint(SiteDelta) ||
        !In.varint(InstanceDelta) || !In.varint(Size) ||
        !In.varint(TimeDelta))
      return fail(Error, "truncated op stream");
    TraceOp Op;
    unsigned Kind = Packed >> 3, Class = Packed & 0x7;
    if (Kind >= NumTraceOpKinds || Class >= NumOpClasses)
      return fail(Error, "bad op kind/class byte");
    Op.Kind = static_cast<TraceOpKind>(Kind);
    Op.Class = static_cast<OpClass>(Class);
    int64_t Site = static_cast<int64_t>(PrevSite) + codec::unzigzag(SiteDelta);
    int64_t Instance =
        static_cast<int64_t>(PrevInstance) + codec::unzigzag(InstanceDelta);
    int64_t Time = static_cast<int64_t>(PrevTime) + codec::unzigzag(TimeDelta);
    if (Site < 0 || static_cast<uint64_t>(Site) >= Out.Sites.size() ||
        Instance < 0 || Instance > static_cast<int64_t>(UINT32_MAX) ||
        Size > UINT32_MAX || Time < 0)
      return fail(Error, "op field out of range");
    Op.Site = static_cast<uint32_t>(Site);
    Op.Instance = static_cast<uint32_t>(Instance);
    Op.Size = static_cast<uint32_t>(Size);
    Op.TimeNanos = static_cast<uint64_t>(Time);
    PrevSite = Op.Site;
    PrevInstance = Op.Instance;
    PrevTime = Op.TimeNanos;
    Out.Ops.push_back(Op);
  }

  if (!In.atEnd())
    return fail(Error, "trailing bytes after op stream");
  return true;
}

} // namespace

const char *cswitch::traceOpKindName(TraceOpKind Kind) {
  switch (Kind) {
  case TraceOpKind::InstanceBegin:
    return "begin";
  case TraceOpKind::InstanceEnd:
    return "end";
  case TraceOpKind::Populate:
    return "populate";
  case TraceOpKind::Contains:
    return "contains";
  case TraceOpKind::Iterate:
    return "iterate";
  case TraceOpKind::IndexGet:
    return "index-get";
  case TraceOpKind::IndexSet:
    return "index-set";
  case TraceOpKind::InsertAt:
    return "insert-at";
  case TraceOpKind::RemoveAt:
    return "remove-at";
  case TraceOpKind::RemoveValue:
    return "remove-value";
  case TraceOpKind::Clear:
    return "clear";
  }
  return "unknown";
}

std::optional<OperationKind> cswitch::toOperationKind(TraceOpKind Kind) {
  switch (Kind) {
  case TraceOpKind::Populate:
    return OperationKind::Populate;
  case TraceOpKind::Contains:
    return OperationKind::Contains;
  case TraceOpKind::Iterate:
    return OperationKind::Iterate;
  case TraceOpKind::IndexGet:
  case TraceOpKind::IndexSet:
    return OperationKind::IndexAccess;
  case TraceOpKind::InsertAt:
  case TraceOpKind::RemoveAt:
    return OperationKind::Middle;
  case TraceOpKind::RemoveValue:
    return OperationKind::Remove;
  case TraceOpKind::InstanceBegin:
  case TraceOpKind::InstanceEnd:
  case TraceOpKind::Clear:
    return std::nullopt;
  }
  return std::nullopt;
}

const char *cswitch::opClassName(OpClass Class) {
  switch (Class) {
  case OpClass::None:
    return "none";
  case OpClass::Hit:
    return "hit";
  case OpClass::Miss:
    return "miss";
  case OpClass::Front:
    return "front";
  case OpClass::Interior:
    return "interior";
  case OpClass::Back:
    return "back";
  }
  return "unknown";
}

uint64_t OpTrace::durationNanos() const {
  if (Ops.empty())
    return 0;
  uint64_t Lo = UINT64_MAX, Hi = 0;
  for (const TraceOp &Op : Ops) {
    Lo = std::min(Lo, Op.TimeNanos);
    Hi = std::max(Hi, Op.TimeNanos);
  }
  return Hi - Lo;
}

std::string cswitch::encodeTrace(const OpTrace &Trace) {
  std::string Out;
  Out.reserve(TraceDoc.Magic.size() + 16 + Trace.Ops.size() * 6);
  codec::putHeader(Out, TraceDoc);

  codec::putVarint(Out, Trace.Sites.size());
  for (const TraceSite &Site : Trace.Sites) {
    codec::putString(Out, Site.Name);
    Out += static_cast<char>(static_cast<unsigned>(Site.Kind));
    codec::putVarint(Out, Site.DeclaredVariantIndex);
  }

  codec::putVarint(Out, Trace.OpsDropped);
  codec::putVarint(Out, Trace.InstancesSampled);
  codec::putVarint(Out, Trace.InstancesSkipped);

  codec::putVarint(Out, Trace.Ops.size());
  uint32_t PrevSite = 0, PrevInstance = 0;
  uint64_t PrevTime = 0;
  for (const TraceOp &Op : Trace.Ops) {
    Out += static_cast<char>((static_cast<unsigned>(Op.Kind) << 3) |
                             static_cast<unsigned>(Op.Class));
    codec::putVarint(Out, codec::zigzag(static_cast<int64_t>(Op.Site) -
                                        static_cast<int64_t>(PrevSite)));
    codec::putVarint(Out, codec::zigzag(static_cast<int64_t>(Op.Instance) -
                                        static_cast<int64_t>(PrevInstance)));
    codec::putVarint(Out, Op.Size);
    codec::putVarint(Out, codec::zigzag(static_cast<int64_t>(Op.TimeNanos) -
                                        static_cast<int64_t>(PrevTime)));
    PrevSite = Op.Site;
    PrevInstance = Op.Instance;
    PrevTime = Op.TimeNanos;
  }
  return Out;
}

bool cswitch::decodeTrace(std::string_view Bytes, OpTrace &Out,
                          std::string *Error) {
  return codec::decodeOrReset(Out,
                              [&] { return decodeOps(Bytes, Out, Error); });
}

bool cswitch::writeTraceToFile(const std::string &Path, const OpTrace &Trace,
                               std::string *Error) {
  return codec::installFile(Path, encodeTrace(Trace), "trace", Error);
}

bool cswitch::readTrace(std::istream &IS, OpTrace &Out, std::string *Error) {
  std::string Bytes;
  if (!codec::readAll(IS, Bytes)) {
    Out = OpTrace();
    return fail(Error, "I/O error reading trace stream");
  }
  return decodeTrace(Bytes, Out, Error);
}

bool cswitch::readTraceFromFile(const std::string &Path, OpTrace &Out,
                                std::string *Error) {
  std::string Bytes;
  if (!codec::readFile(Path, Bytes, "trace", Error)) {
    Out = OpTrace();
    return false;
  }
  return decodeTrace(Bytes, Out, Error);
}
