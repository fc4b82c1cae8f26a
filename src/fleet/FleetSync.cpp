//===- FleetSync.cpp - Store push/pull over HTTP --------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetSync.h"

#include "support/Telemetry.h"

using namespace cswitch;
using namespace cswitch::fleet;

bool cswitch::fleet::pullStore(const std::string &Url,
                               std::vector<StoreSite> &Out,
                               const obs::HttpOptions &Options,
                               std::string *Error) {
  Out.clear();
  FleetStats Delta;
  std::string LocalError;
  std::string *Err = Error ? Error : &LocalError;
  bool Ok = false;
  obs::HttpResponse Response;
  if (obs::httpGet(Url, Response, Options, Err)) {
    if (Response.Status != 200) {
      *Err = "peer answered " + std::to_string(Response.Status) + ": " +
             Response.Body;
    } else if (decodeStore(Response.Body, Out, Err)) {
      Ok = true;
    } else {
      // Version skew is incompatibility (an upgraded peer), everything
      // else is a malformed document.
      if (Err->find("unsupported cswitch-store version") !=
          std::string::npos)
        Delta.RejectedIncompatible = 1;
      else
        Delta.RejectedMalformed = 1;
    }
  } else if (Response.Oversize) {
    Delta.RejectedOversize = 1;
  }
  Delta.Retries = Response.Retries;
  if (Ok)
    Delta.Pulls = 1;
  else
    Delta.PullFailures = 1;
  FleetRegistry::global().record(Delta);
  return Ok;
}

bool cswitch::fleet::pushStore(const std::string &Url,
                               const std::vector<StoreSite> &Sites,
                               const obs::HttpOptions &Options,
                               std::string *Error) {
  std::string LocalError;
  std::string *Err = Error ? Error : &LocalError;
  FleetStats Delta;
  obs::HttpResponse Response;
  bool Ok = obs::httpPost(Url, encodeStore(Sites), Response, Options, Err);
  if (Ok && Response.Status != 200) {
    *Err = "peer answered " + std::to_string(Response.Status) + ": " +
           Response.Body;
    Ok = false;
  }
  Delta.Retries = Response.Retries;
  if (Ok)
    Delta.Pushes = 1;
  else
    Delta.PushFailures = 1;
  FleetRegistry::global().record(Delta);
  return Ok;
}
