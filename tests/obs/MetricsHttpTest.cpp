//===- MetricsHttpTest.cpp - Pull-endpoint end-to-end tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// The introspection endpoint over a real loopback socket: ephemeral
// port binding, route dispatch with fresh render calls per request,
// content types, 404 for unknown paths, 405 for non-GET methods, and
// clean stop/restart. The server holds each request to one deadline
// against a client that drips bytes, and the client half is held to its
// timeout budget against a peer that never answers.
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsHttp.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

/// Sends one raw HTTP request to 127.0.0.1:\p Port and returns the full
/// response ("" on connection failure).
std::string rawRequest(uint16_t Port, const std::string &Request) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return "";
  }
  size_t Sent = 0;
  while (Sent < Request.size()) {
    ssize_t N = ::send(Fd, Request.data() + Sent, Request.size() - Sent, 0);
    if (N <= 0)
      break;
    Sent += static_cast<size_t>(N);
  }
  std::string Response;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Response.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  return Response;
}

std::string get(uint16_t Port, const std::string &Path) {
  return rawRequest(Port, "GET " + Path + " HTTP/1.0\r\n\r\n");
}

TEST(MetricsHttp, ServesRegisteredRoutesOnEphemeralPort) {
  MetricsServer Server;
  std::atomic<int> Calls{0};
  Server.handle("/metrics", "application/openmetrics-text", [&Calls] {
    return "calls " + std::to_string(++Calls) + "\n# EOF\n";
  });
  Server.handle("/snapshot.json", "application/json",
                [] { return std::string("{\"ok\":true}"); });
  ASSERT_TRUE(Server.start(0));
  ASSERT_NE(Server.port(), 0u) << "port 0 must resolve to a real port";
  EXPECT_TRUE(Server.running());

  std::string R1 = get(Server.port(), "/metrics");
  EXPECT_NE(R1.find("HTTP/1.0 200 OK"), std::string::npos) << R1;
  EXPECT_NE(R1.find("Content-Type: application/openmetrics-text"),
            std::string::npos);
  EXPECT_NE(R1.find("calls 1\n# EOF\n"), std::string::npos);
  // Each request invokes the render callback fresh.
  std::string R2 = get(Server.port(), "/metrics");
  EXPECT_NE(R2.find("calls 2\n"), std::string::npos);
  // The second route serves its own document and content type.
  std::string R3 = get(Server.port(), "/snapshot.json");
  EXPECT_NE(R3.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(R3.find("{\"ok\":true}"), std::string::npos);
  // Query strings are ignored for routing (how Prometheus scrapes).
  std::string R4 = get(Server.port(), "/metrics?x=1");
  EXPECT_NE(R4.find("HTTP/1.0 200 OK"), std::string::npos);

  Server.stop();
  EXPECT_FALSE(Server.running());
  EXPECT_EQ(Server.port(), 0u);
}

TEST(MetricsHttp, UnknownPathsAndMethodsAreRejected) {
  MetricsServer Server;
  Server.handle("/metrics", "text/plain", [] { return std::string("ok"); });
  ASSERT_TRUE(Server.start(0));
  std::string NotFound = get(Server.port(), "/nope");
  EXPECT_NE(NotFound.find("404"), std::string::npos) << NotFound;
  std::string Post =
      rawRequest(Server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(Post.find("405"), std::string::npos) << Post;
  Server.stop();
}

TEST(MetricsHttp, HeadReturnsHeadersWithoutBody) {
  MetricsServer Server;
  Server.handle("/metrics", "text/plain",
                [] { return std::string("twelve bytes"); });
  ASSERT_TRUE(Server.start(0));

  std::string Head =
      rawRequest(Server.port(), "HEAD /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(Head.find("HTTP/1.0 200 OK"), std::string::npos) << Head;
  EXPECT_NE(Head.find("Content-Type: text/plain"), std::string::npos);
  // The Content-Length names what GET would return...
  EXPECT_NE(Head.find("Content-Length: 12"), std::string::npos) << Head;
  // ...but no body bytes follow the header block.
  size_t HeaderEnd = Head.find("\r\n\r\n");
  ASSERT_NE(HeaderEnd, std::string::npos);
  EXPECT_EQ(Head.substr(HeaderEnd + 4), "");

  // HEAD of an unknown path is a body-less 404.
  std::string Missing =
      rawRequest(Server.port(), "HEAD /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(Missing.find("404"), std::string::npos) << Missing;
  HeaderEnd = Missing.find("\r\n\r\n");
  ASSERT_NE(HeaderEnd, std::string::npos);
  EXPECT_EQ(Missing.substr(HeaderEnd + 4), "");
  Server.stop();
}

TEST(MetricsHttp, UnsupportedMethodsGet405OnKnownPathsOnly) {
  MetricsServer Server;
  Server.handle("/metrics", "text/plain", [] { return std::string("ok"); });
  Server.handlePost("/push", 64, [](std::string_view) {
    return MetricsServer::PostResult{200, "ok\n"};
  });
  ASSERT_TRUE(Server.start(0));

  // Unsupported method on a GET path: 405 naming what the path answers.
  std::string Del =
      rawRequest(Server.port(), "DELETE /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(Del.find("405"), std::string::npos) << Del;
  EXPECT_NE(Del.find("Allow: GET, HEAD"), std::string::npos) << Del;

  // Unsupported method on a POST-only path: 405 with Allow: POST.
  std::string Put = rawRequest(Server.port(), "PUT /push HTTP/1.0\r\n\r\n");
  EXPECT_NE(Put.find("405"), std::string::npos) << Put;
  EXPECT_NE(Put.find("Allow: POST"), std::string::npos) << Put;

  // GET/HEAD of a POST-only path: 405, not 404 (the path exists).
  std::string Get = get(Server.port(), "/push");
  EXPECT_NE(Get.find("405"), std::string::npos) << Get;
  EXPECT_NE(Get.find("Allow: POST"), std::string::npos) << Get;

  // Unsupported method on an unknown path: a path problem, so 404 —
  // the old blanket 405 fall-through is the regression this pins.
  std::string Unknown =
      rawRequest(Server.port(), "DELETE /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(Unknown.find("404"), std::string::npos) << Unknown;
  EXPECT_EQ(Unknown.find("405"), std::string::npos) << Unknown;
  // POST to an unknown path is 404 as well.
  std::string Post = rawRequest(
      Server.port(), "POST /nope HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(Post.find("404"), std::string::npos) << Post;
  Server.stop();
}

TEST(MetricsHttp, StopsAndRestartsCleanly) {
  MetricsServer Server;
  Server.handle("/", "text/plain", [] { return std::string("alive"); });
  ASSERT_TRUE(Server.start(0));
  uint16_t FirstPort = Server.port();
  EXPECT_NE(get(FirstPort, "/").find("alive"), std::string::npos);
  Server.stop();
  // A connection to the stopped port no longer answers.
  EXPECT_EQ(get(FirstPort, "/").find("alive"), std::string::npos);
  // The same server object can come back up.
  ASSERT_TRUE(Server.start(0));
  EXPECT_NE(get(Server.port(), "/").find("alive"), std::string::npos);
  Server.stop();
}

TEST(MetricsHttp, ClientGivesUpOnAPeerThatNeverAnswers) {
  // A loopback listener that never accepts: the kernel completes the
  // handshake, the request is sent, and no byte ever comes back.
  int Listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Listener, 0);
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(Listener, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listener, 8), 0);
  socklen_t Len = sizeof(Addr);
  ASSERT_EQ(::getsockname(Listener, reinterpret_cast<sockaddr *>(&Addr),
                          &Len),
            0);
  std::string Url =
      "http://127.0.0.1:" + std::to_string(ntohs(Addr.sin_port)) + "/metrics";

  HttpOptions Options = HttpOptions()
                            .requestTimeout(std::chrono::milliseconds(100))
                            .maxRetries(2)
                            .backoffBase(std::chrono::milliseconds(10));
  // Each attempt waits one RequestTimeout; the two backoffs sleep at
  // most 1.5 * Base * (1 + 2).
  auto Budget = Options.RequestTimeout * (Options.MaxRetries + 1) +
                Options.BackoffBase * 3 * 3 / 2;
  HttpResponse Response;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(httpGet(Url, Response, Options, &Error));
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  ::close(Listener);

  EXPECT_NE(Error.find("receive failed"), std::string::npos) << Error;
  EXPECT_EQ(Response.Retries, 2u);
  EXPECT_GE(Elapsed, Options.RequestTimeout * (Options.MaxRetries + 1));
  // Scheduling slack on a loaded host, far below a hang.
  EXPECT_LT(Elapsed, Budget + std::chrono::milliseconds(250));
}

TEST(MetricsHttp, SlowDripClientCannotHoldTheServer) {
  MetricsServer Server;
  Server.handle("/metrics", "application/openmetrics-text",
                [] { return std::string("up 1\n# EOF\n"); });
  ASSERT_TRUE(Server.start(0));

  // A client that sends one byte of a request line every 0.5 s — well
  // inside any per-recv timeout — for at most 6 s, or until the server
  // hangs up on it.
  std::atomic<bool> ClosedByServer{false};
  std::thread Drip([&] {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_in Addr = {};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Server.port());
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      const std::string Request = "GET /metrics HTTP/1.0\r\n\r\n";
      for (size_t I = 0; I != 12; ++I) {
        char Probe;
        if (::recv(Fd, &Probe, 1, MSG_DONTWAIT) == 0 ||
            ::send(Fd, &Request[I], 1, MSG_NOSIGNAL) != 1) {
          ClosedByServer = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
      }
    }
    ::close(Fd);
  });

  // Let the drip connection take the server thread first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto Start = std::chrono::steady_clock::now();
  std::string Response = get(Server.port(), "/metrics");
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  Drip.join();
  Server.stop();

  EXPECT_NE(Response.find("up 1"), std::string::npos) << Response;
  // The drip loses the server at its 2 s request deadline; without one
  // it would hold it for the whole 6 s.
  EXPECT_LT(Elapsed, std::chrono::seconds(4));
  EXPECT_TRUE(ClosedByServer);
}

TEST(MetricsHttp, StopWithoutStartIsANoOp) {
  MetricsServer Server;
  Server.stop();
  EXPECT_FALSE(Server.running());
  // Destructor on a never-started server must be harmless too (scope
  // exit covers it).
}

} // namespace
