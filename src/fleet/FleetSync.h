//===- FleetSync.h - Store push/pull over HTTP ------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet side of the selection-store sync (DESIGN.md §12): pulls a
/// peer's serialized `cswitch-store-v1` document from its /store
/// endpoint and pushes local documents back, so replicas of one service
/// converge on shared selection knowledge instead of each paying the
/// cold observation ramp alone.
///
/// Robustness is the point, not an afterthought — every network input
/// is untrusted:
///  - the obs HTTP client's timeouts, bounded retries and response-size
///    cap (obs/MetricsHttp.h),
///  - total decoding of pulled documents (decodeStore rejects
///    truncation, CRC mismatches and version skew),
///  - a FleetStats telemetry counter for every failure class.
///
/// The server half lives in Switch::serveMetrics (enable with
/// SwitchConfig::Fleet.ServeStore); `tools/cswitch_fleet` fronts both
/// halves on the command line.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_FLEET_FLEETSYNC_H
#define CSWITCH_FLEET_FLEETSYNC_H

#include "obs/MetricsHttp.h"
#include "store/StoreFormat.h"

#include <string>
#include <vector>

namespace cswitch {
namespace fleet {

/// Pulls and decodes a peer's store document from \p Url (conventionally
/// `http://127.0.0.1:<port>/store`). Counts Pulls/PullFailures, Retries
/// and the failure class (RejectedOversize, RejectedMalformed,
/// RejectedIncompatible for version skew) in the fleet telemetry.
bool pullStore(const std::string &Url, std::vector<StoreSite> &Out,
               const obs::HttpOptions &Options = {},
               std::string *Error = nullptr);

/// Encodes \p Sites and pushes the document to \p Url. A non-200 answer
/// fails with the peer's diagnostic in \p Error. Counts
/// Pushes/PushFailures and Retries.
bool pushStore(const std::string &Url, const std::vector<StoreSite> &Sites,
               const obs::HttpOptions &Options = {},
               std::string *Error = nullptr);

} // namespace fleet
} // namespace cswitch

#endif // CSWITCH_FLEET_FLEETSYNC_H
