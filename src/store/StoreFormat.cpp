//===- StoreFormat.cpp - Binary selection-store format --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "store/StoreFormat.h"

#include "support/Codec.h"

#include <algorithm>
#include <istream>
#include <numeric>

using namespace cswitch;
using codec::fail;

namespace {

constexpr codec::Format StoreDoc{"cswitch-store-v1", "cswitch-store", 1};

/// Encodes one site payload (the checksummed record body).
std::string encodeSitePayload(const StoreSite &Site) {
  std::string Out;
  codec::putString(Out, Site.Name);
  codec::putString(Out, Site.Rule);
  Out += static_cast<char>(static_cast<unsigned>(Site.Kind));
  codec::putVarint(Out, Site.Decision);
  codec::putVarint(Out, Site.Runs);
  codec::putVarint(Out, Site.Instances);
  codec::putVarint(Out, Site.MaxSize);
  for (uint64_t Count : Site.Counts)
    codec::putVarint(Out, Count);
  return Out;
}

/// Decodes one site payload; total over its bytes (every byte must be
/// consumed).
bool decodeSitePayload(std::string_view Payload, StoreSite &Site,
                       std::string *Error) {
  codec::Reader In(Payload);
  if (!In.string(Site.Name))
    return fail(Error, "truncated site name");
  if (!In.string(Site.Rule))
    return fail(Error, "truncated rule name");
  uint8_t Kind = 0;
  if (!In.byte(Kind) || Kind >= NumAbstractionKinds)
    return fail(Error, "bad abstraction kind");
  Site.Kind = static_cast<AbstractionKind>(Kind);
  uint64_t Decision = 0;
  if (!In.varint(Decision) || Decision >= numVariantsOf(Site.Kind))
    return fail(Error, "bad decision variant index");
  Site.Decision = static_cast<unsigned>(Decision);
  if (!In.varint(Site.Runs) || !In.varint(Site.Instances) ||
      !In.varint(Site.MaxSize))
    return fail(Error, "truncated site counters");
  for (uint64_t &Count : Site.Counts)
    if (!In.varint(Count))
      return fail(Error, "truncated operation counts");
  if (!In.atEnd())
    return fail(Error, "oversized site payload");
  return true;
}

bool decodeSites(std::string_view Bytes, std::vector<StoreSite> &Out,
                 std::string *Error) {
  codec::Reader In(Bytes);
  if (!codec::readHeader(In, StoreDoc, Error))
    return false;
  uint64_t SiteCount = 0;
  if (!In.varint(SiteCount))
    return fail(Error, "truncated site count");
  Out.reserve(std::min<uint64_t>(SiteCount, codec::MaxReserve));
  for (uint64_t I = 0; I != SiteCount; ++I) {
    std::string_view Payload;
    StoreSite Site;
    if (!codec::readSection(In, "site", Payload, Error) ||
        !decodeSitePayload(Payload, Site, Error))
      return false;
    if (!Out.empty() && !StoreSite::orderedBefore(Out.back(), Site))
      return fail(Error, "sites out of canonical order");
    Out.push_back(std::move(Site));
  }
  if (!In.atEnd())
    return fail(Error, "trailing bytes after site records");
  return true;
}

} // namespace

std::string cswitch::encodeStore(const std::vector<StoreSite> &Sites) {
  // Canonical order regardless of the caller's: encode a sorted view.
  std::vector<size_t> Order(Sites.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::sort(Order.begin(), Order.end(), [&Sites](size_t A, size_t B) {
    return StoreSite::orderedBefore(Sites[A], Sites[B]);
  });

  std::string Out;
  Out.reserve(StoreDoc.Magic.size() + 8 + Sites.size() * 48);
  codec::putHeader(Out, StoreDoc);
  codec::putVarint(Out, Sites.size());
  for (size_t I : Order)
    codec::putSection(Out, encodeSitePayload(Sites[I]));
  return Out;
}

bool cswitch::decodeStore(std::string_view Bytes,
                          std::vector<StoreSite> &Out, std::string *Error) {
  return codec::decodeOrReset(
      Out, [&] { return decodeSites(Bytes, Out, Error); });
}

bool cswitch::writeStoreToFile(const std::string &Path,
                               const std::vector<StoreSite> &Sites,
                               std::string *Error) {
  return codec::installFile(Path, encodeStore(Sites), "store", Error);
}

bool cswitch::readStore(std::istream &IS, std::vector<StoreSite> &Out,
                        std::string *Error) {
  std::string Bytes;
  if (!codec::readAll(IS, Bytes)) {
    Out.clear();
    return fail(Error, "I/O error reading store stream");
  }
  return decodeStore(Bytes, Out, Error);
}

bool cswitch::readStoreFromFile(const std::string &Path,
                                std::vector<StoreSite> &Out,
                                std::string *Error) {
  std::string Bytes;
  if (!codec::readFile(Path, Bytes, "store", Error)) {
    Out.clear();
    return false;
  }
  return decodeStore(Bytes, Out, Error);
}
