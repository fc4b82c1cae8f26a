//===- FleetSyncTest.cpp - Store push/pull over HTTP tests ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// End-to-end fleet sync against a real engine endpoint: Switch serves
// /store (GET + POST merge) on an ephemeral loopback port, the fleet
// client pulls and pushes against it. Covers the concurrent push-merge
// path (two writers POSTing while a reader pulls) and every client
// failure class: dead peers, oversized responses, malformed and
// version-skewed documents, oversized pushes.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetSync.h"

#include "core/Switch.h"
#include "obs/MetricsHttp.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::fleet;
using namespace cswitch::obs;

namespace {

StoreSite makeSite(std::string Name, unsigned Decision, uint64_t Runs) {
  StoreSite Site;
  Site.Name = std::move(Name);
  Site.Rule = "amortized";
  Site.Kind = AbstractionKind::List;
  Site.Decision = Decision;
  Site.Runs = Runs;
  Site.Instances = 4;
  Site.MaxSize = 32;
  Site.Counts[0] = 100;
  return Site;
}

/// Quick sync options so failure-path tests spend milliseconds, not the
/// production backoff schedule.
HttpOptions fastSync() {
  return HttpOptions{}
      .requestTimeout(std::chrono::milliseconds(2000))
      .maxRetries(1)
      .backoffBase(std::chrono::milliseconds(1));
}

/// \p Pulled minus \p Baseline, in document order. GET /store folds the
/// live engine's contexts into the served document, so when the whole
/// suite runs in one process it also serves contexts that earlier tests
/// left registered. Taking a baseline pull before the first push keeps
/// every check exact: each baseline site must still be served
/// unchanged, and the remainder is what the test itself added.
std::vector<StoreSite> servedSince(const std::vector<StoreSite> &Baseline,
                                   const std::vector<StoreSite> &Pulled) {
  std::vector<StoreSite> Added;
  size_t Kept = 0;
  for (const StoreSite &Site : Pulled) {
    if (std::find(Baseline.begin(), Baseline.end(), Site) != Baseline.end())
      ++Kept;
    else
      Added.push_back(Site);
  }
  EXPECT_EQ(Kept, Baseline.size()) << "a baseline site changed or vanished";
  return Added;
}

/// One live engine endpoint serving /store on an ephemeral loopback
/// port, with a scratch store file (unique to this process, in the
/// temporary directory) that is removed with its lock on scope exit.
class FleetEndpoint {
public:
  explicit FleetEndpoint(size_t MaxPushBytes = 4u << 20) {
    Switch::stopMetricsServer();
    Switch::closeStore();
    Switch::configure(SwitchConfig{
        EngineOptions{}, ContextOptions{},
        FleetOptions{}.serveStore().maxPushBytes(MaxPushBytes),
        std::string()});
    static int Counter = 0;
    StorePath = (std::filesystem::temp_directory_path() /
                 ("cswitch_fleet_sync_" + std::to_string(::getpid()) + "_" +
                  std::to_string(++Counter) + ".store"))
                    .string();
    std::remove(StorePath.c_str());
    EXPECT_TRUE(Switch::loadStore(StorePath));
    Port = Switch::serveMetrics(0);
    EXPECT_NE(Port, 0);
  }

  ~FleetEndpoint() {
    Switch::stopMetricsServer();
    Switch::closeStore();
    Switch::configure(SwitchConfig{});
    std::remove(StorePath.c_str());
    std::remove((StorePath + ".lock").c_str());
  }

  std::string url() const {
    return "http://127.0.0.1:" + std::to_string(Port) + "/store";
  }

private:
  std::string StorePath;
  uint16_t Port = 0;
};

TEST(FleetSync, RejectsUnsupportedAndMalformedUrls) {
  std::vector<StoreSite> Sites;
  std::string Error;
  EXPECT_FALSE(pullStore("ftp://example/store", Sites, fastSync(), &Error));
  EXPECT_NE(Error.find("http://"), std::string::npos);
  EXPECT_FALSE(pullStore("http://", Sites, fastSync(), &Error));
  EXPECT_NE(Error.find("malformed URL"), std::string::npos);
  EXPECT_FALSE(pushStore("http://:80/store", {}, fastSync(), &Error));
}

TEST(FleetSync, DeadPeerFailsAfterBoundedRetries) {
  FleetStats Before = FleetRegistry::global().stats();
  std::vector<StoreSite> Sites;
  std::string Error;
  // Port 1 on loopback: connection refused, a pure transport failure —
  // retried exactly MaxRetries times, then surfaced.
  EXPECT_FALSE(pullStore("http://127.0.0.1:1/store", Sites,
                         fastSync().maxRetries(2), &Error));
  EXPECT_FALSE(Error.empty());
  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.PullFailures, 1u);
  EXPECT_EQ(Delta.Pulls, 0u);
  EXPECT_EQ(Delta.Retries, 2u);
}

TEST(FleetSync, StoreRoundTripsOverHttp) {
  FleetEndpoint Endpoint;
  FleetStats Before = FleetRegistry::global().stats();

  // A fresh replica's store file is empty: it serves only the live
  // engine's contexts (the baseline), none of the sites pushed below.
  std::vector<StoreSite> Baseline;
  std::string Error;
  ASSERT_TRUE(pullStore(Endpoint.url(), Baseline, fastSync(), &Error))
      << Error;
  for (const StoreSite &Site : Baseline)
    EXPECT_EQ(Site.Name.rfind("svc/", 0), std::string::npos) << Site.Name;

  // Push two sites; the peer flock-merges them into its store.
  std::vector<StoreSite> Pushed = {makeSite("svc/A.cpp:10", 1, 3),
                                   makeSite("svc/B.cpp:20", 2, 5)};
  ASSERT_TRUE(pushStore(Endpoint.url(), Pushed, fastSync(), &Error))
      << Error;

  // The merged knowledge is served back: both sites present, decisions
  // taken from the pushing side (the local replica had no entries).
  std::vector<StoreSite> Served;
  ASSERT_TRUE(pullStore(Endpoint.url(), Served, fastSync(), &Error))
      << Error;
  std::vector<StoreSite> Pulled = servedSince(Baseline, Served);
  ASSERT_EQ(Pulled.size(), 2u);
  EXPECT_EQ(Pulled[0].Name, "svc/A.cpp:10");
  EXPECT_EQ(Pulled[0].Decision, 1u);
  EXPECT_EQ(Pulled[0].Runs, 3u);
  EXPECT_EQ(Pulled[1].Name, "svc/B.cpp:20");
  EXPECT_EQ(Pulled[1].Decision, 2u);

  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.Pulls, 2u);
  EXPECT_EQ(Delta.Pushes, 1u);
  EXPECT_EQ(Delta.StoreGets, 2u);
  EXPECT_EQ(Delta.MergesApplied, 1u);
  EXPECT_EQ(Delta.SitesMerged, 2u);
  EXPECT_EQ(Delta.PullFailures, 0u);
  EXPECT_EQ(Delta.PushFailures, 0u);
}

// Satellite of ISSUE 8: two writers POSTing store documents while a
// reader pulls — every request must complete and every pulled document
// must decode (the server serializes handlers; the merge is atomic
// under the store's file lock).
TEST(FleetSync, ConcurrentPushMergeWhileReaderPulls) {
  FleetEndpoint Endpoint;
  constexpr int RoundsPerWriter = 8;
  std::vector<StoreSite> Baseline;
  std::string Error;
  ASSERT_TRUE(pullStore(Endpoint.url(), Baseline, fastSync(), &Error))
      << Error;

  auto Writer = [&Endpoint](const char *Prefix) {
    for (int Round = 0; Round != RoundsPerWriter; ++Round) {
      std::vector<StoreSite> Sites = {
          makeSite(std::string(Prefix) + "/shared.cpp:1", 1,
                   static_cast<uint64_t>(Round + 1)),
          makeSite("common/hot.cpp:7", 2,
                   static_cast<uint64_t>(Round + 1))};
      std::string Error;
      EXPECT_TRUE(pushStore(Endpoint.url(), Sites, fastSync(), &Error))
          << Error;
    }
  };

  std::thread WriterA(Writer, "writer-a");
  std::thread WriterB(Writer, "writer-b");
  for (int Round = 0; Round != RoundsPerWriter; ++Round) {
    std::vector<StoreSite> Sites;
    EXPECT_TRUE(pullStore(Endpoint.url(), Sites, fastSync(), &Error))
        << Error;
  }
  WriterA.join();
  WriterB.join();

  // After the dust settles every site name pushed by either writer is
  // in the merged document exactly once.
  std::vector<StoreSite> Served;
  ASSERT_TRUE(pullStore(Endpoint.url(), Served, fastSync(), &Error))
      << Error;
  std::vector<StoreSite> Final = servedSince(Baseline, Served);
  ASSERT_EQ(Final.size(), 3u);
  EXPECT_EQ(Final[0].Name, "common/hot.cpp:7");
  EXPECT_EQ(Final[1].Name, "writer-a/shared.cpp:1");
  EXPECT_EQ(Final[2].Name, "writer-b/shared.cpp:1");
  // Runs accumulate across merges: every push of the common site
  // contributed its run count on top of the merged aggregate.
  EXPECT_GE(Final[0].Runs, static_cast<uint64_t>(RoundsPerWriter));
}

TEST(FleetSync, OversizedPushIsRefusedBeforeMerge) {
  FleetEndpoint Endpoint(/*MaxPushBytes=*/64);
  std::vector<StoreSite> Baseline;
  std::string Error;
  ASSERT_TRUE(pullStore(Endpoint.url(), Baseline, fastSync(), &Error))
      << Error;
  FleetStats Before = FleetRegistry::global().stats();

  std::vector<StoreSite> Sites = {
      makeSite(std::string(256, 'x') + ":1", 1, 1)};
  EXPECT_FALSE(pushStore(Endpoint.url(), Sites, fastSync(), &Error));
  EXPECT_NE(Error.find("413"), std::string::npos) << Error;

  // Nothing was merged; the store still serves just the baseline.
  std::vector<StoreSite> Served;
  ASSERT_TRUE(pullStore(Endpoint.url(), Served, fastSync(), &Error))
      << Error;
  EXPECT_TRUE(servedSince(Baseline, Served).empty());

  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.PushFailures, 1u);
  EXPECT_EQ(Delta.MergesApplied, 0u);
}

TEST(FleetSync, MalformedPushAnswers400AndCountsRejection) {
  FleetEndpoint Endpoint;
  FleetStats Before = FleetRegistry::global().stats();

  HttpResponse Response;
  std::string Error;
  ASSERT_TRUE(httpPost(Endpoint.url(), "not a store document", Response,
                       fastSync(), &Error))
      << Error;
  EXPECT_EQ(Response.Status, 400);
  EXPECT_NE(Response.Body.find("merge failed"), std::string::npos);

  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.RejectedMalformed, 1u);
  EXPECT_EQ(Delta.MergesApplied, 0u);
}

TEST(FleetSync, OversizedResponseIsRejectedWithoutRetry) {
  FleetEndpoint Endpoint;
  std::vector<StoreSite> Pushed = {makeSite("svc/big.cpp:1", 1, 1)};
  std::string Error;
  ASSERT_TRUE(pushStore(Endpoint.url(), Pushed, fastSync(), &Error))
      << Error;

  FleetStats Before = FleetRegistry::global().stats();
  std::vector<StoreSite> Pulled;
  // A 32-byte cap cannot even hold the status line: the pull is
  // rejected as a policy violation — no retries, straight to failure.
  EXPECT_FALSE(pullStore(Endpoint.url(), Pulled,
                         fastSync().maxResponseBytes(32), &Error));
  EXPECT_NE(Error.find("size limit"), std::string::npos);
  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.RejectedOversize, 1u);
  EXPECT_EQ(Delta.PullFailures, 1u);
  EXPECT_EQ(Delta.Retries, 0u);
}

TEST(FleetSync, MalformedAndVersionSkewedDocumentsAreClassified) {
  // A hostile/broken peer built directly on the HTTP layer: one route
  // serves garbage, the other a version-skewed but well-formed store.
  std::string Skewed = encodeStore({});
  ASSERT_GT(Skewed.size(), 16u);
  Skewed[16] = 0x7f; // Bump the version varint after the 16-byte magic.

  obs::MetricsServer Server;
  Server.handle("/garbage", "application/octet-stream",
                [] { return std::string("definitely not a store"); });
  Server.handle("/skewed", "application/octet-stream",
                [Skewed] { return Skewed; });
  ASSERT_TRUE(Server.start(0));
  std::string Base = "http://127.0.0.1:" + std::to_string(Server.port());

  FleetStats Before = FleetRegistry::global().stats();
  std::vector<StoreSite> Sites;
  std::string Error;
  EXPECT_FALSE(pullStore(Base + "/garbage", Sites, fastSync(), &Error));
  FleetStats Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.RejectedMalformed, 1u);
  EXPECT_EQ(Delta.RejectedIncompatible, 0u);

  EXPECT_FALSE(pullStore(Base + "/skewed", Sites, fastSync(), &Error));
  EXPECT_NE(Error.find("unsupported cswitch-store version"),
            std::string::npos)
      << Error;
  Delta = FleetRegistry::global().stats() - Before;
  EXPECT_EQ(Delta.RejectedIncompatible, 1u);
  EXPECT_EQ(Delta.PullFailures, 2u);
}

TEST(FleetSync, StoreEndpointAbsentWithoutOptIn) {
  // Without FleetOptions::ServeStore the metrics server must not expose
  // the store at all — the endpoint is strictly opt-in.
  Switch::stopMetricsServer();
  Switch::configure(SwitchConfig{});
  uint16_t Port = Switch::serveMetrics(0);
  ASSERT_NE(Port, 0);
  HttpResponse Response;
  std::string Error;
  ASSERT_TRUE(httpGet("http://127.0.0.1:" + std::to_string(Port) + "/store",
                      Response, fastSync(), &Error))
      << Error;
  EXPECT_EQ(Response.Status, 404);
  Switch::stopMetricsServer();
}

} // namespace
