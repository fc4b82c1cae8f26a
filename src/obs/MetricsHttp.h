//===- MetricsHttp.h - Pull-based introspection endpoint --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately tiny pull-based metrics endpoint: one background
/// thread, blocking accept, HTTP/1.0, connection-per-request. It exists
/// so a running application can be scraped (`curl :9100/metrics`,
/// Prometheus, `cswitch_top watch`) without the framework growing a
/// dependency on a real HTTP stack. GET routes serve rendered text
/// documents (and implicitly answer HEAD with the same headers and no
/// body); POST routes (added for the fleet store sync, DESIGN.md §12)
/// accept one size-bounded body per request. Unsupported methods on a
/// known path get 405 with an Allow header; unknown paths get 404.
///
/// Routes are registered as (path, callback) pairs before start(); each
/// request invokes the callback fresh, so responses are always current.
/// The callbacks run on the server thread — they must be safe to call
/// concurrently with the application (the snapshot machinery they wrap
/// already is).
///
/// The client half (httpGet/httpPost) is what talks to such endpoints:
/// the fleet store sync and the cswitch_top / cswitch_explain tools.
/// Every peer is untrusted, so each request has connect/send/receive
/// timeouts, bounded retries with jittered exponential backoff
/// (transport failures only; an HTTP error status is answered by a live
/// peer and never retried) and a response-size cap enforced while
/// reading.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_OBS_METRICSHTTP_H
#define CSWITCH_OBS_METRICSHTTP_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace cswitch {
namespace obs {

/// Minimal blocking-accept HTTP/1.0 server for text documents.
class MetricsServer {
public:
  /// Renders the response body for one request; invoked per request on
  /// the server thread.
  using TextSource = std::function<std::string()>;

  /// Outcome of one POST body handler: an HTTP status code plus the
  /// response body (served as text/plain).
  struct PostResult {
    int Status = 200;
    std::string Body;
  };

  /// Consumes one POST request body; invoked per request on the server
  /// thread. The body is already bounded by the route's MaxBodyBytes.
  using BodyHandler = std::function<PostResult(std::string_view Body)>;

  MetricsServer() = default;
  ~MetricsServer();

  MetricsServer(const MetricsServer &) = delete;
  MetricsServer &operator=(const MetricsServer &) = delete;

  /// Registers \p Render to answer GET \p Path with \p ContentType.
  /// Must be called before start().
  void handle(std::string Path, std::string ContentType, TextSource Render);

  /// Registers \p Handler to answer POST \p Path. Request bodies larger
  /// than \p MaxBodyBytes are refused with 413 before the handler runs
  /// (the connection is drained no further, so an oversized push cannot
  /// pin the server thread). Must be called before start(). A path may
  /// carry both a GET and a POST route.
  void handlePost(std::string Path, size_t MaxBodyBytes, BodyHandler Handler);

  /// Binds 127.0.0.1:\p Port (0 picks an ephemeral port), starts the
  /// accept thread. Returns false if the socket could not be set up
  /// (port in use, sockets unavailable); the server is then inert and
  /// start() may be retried with another port.
  bool start(uint16_t Port);

  /// Stops the accept loop and joins the thread. Safe to call when not
  /// running, and called by the destructor.
  void stop();

  /// True between a successful start() and stop().
  bool running() const { return ListenFd >= 0; }

  /// The bound port (resolved after start() with Port 0), or 0 when not
  /// running.
  uint16_t port() const { return BoundPort; }

private:
  void serveLoop();
  void serveConnection(int Fd);

  struct Route {
    std::string Path;
    std::string ContentType;
    TextSource Render;
  };

  struct PostRoute {
    std::string Path;
    size_t MaxBodyBytes;
    BodyHandler Handler;
  };

  std::vector<Route> Routes;
  std::vector<PostRoute> PostRoutes;
  std::thread Acceptor;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
};

/// Transport policy of the HTTP client.
struct HttpOptions {
  /// Per-request socket timeout (applied to connect, send and receive
  /// independently).
  std::chrono::milliseconds RequestTimeout{2000};
  /// Transport-failure retries after the first attempt.
  unsigned MaxRetries = 2;
  /// Base of the jittered exponential backoff between retries (attempt
  /// N sleeps ~ Base * 2^N * uniform[0.5, 1.5)).
  std::chrono::milliseconds BackoffBase{100};
  /// Hard cap on a response (status line + headers + body), enforced
  /// while reading so an unbounded peer cannot balloon memory.
  size_t MaxResponseBytes = 4u << 20;
  /// Seed of the deterministic backoff jitter (so tests replay exact
  /// schedules).
  uint64_t JitterSeed = 0x9e3779b97f4a7c15ull;

  HttpOptions &requestTimeout(std::chrono::milliseconds Value) {
    RequestTimeout = Value;
    return *this;
  }
  HttpOptions &maxRetries(unsigned Value) {
    MaxRetries = Value;
    return *this;
  }
  HttpOptions &backoffBase(std::chrono::milliseconds Value) {
    BackoffBase = Value;
    return *this;
  }
  HttpOptions &maxResponseBytes(size_t Value) {
    MaxResponseBytes = Value;
    return *this;
  }
};

/// One HTTP exchange: the parsed response plus what the transport went
/// through to get it (set on failure too).
struct HttpResponse {
  int Status = 0;
  std::string Body;
  unsigned Retries = 0;  ///< Transport-failure retries taken.
  bool Oversize = false; ///< Refused for exceeding MaxResponseBytes.
};

/// Issues one GET \p Url (an `http://host[:port][/path]` URL) with the
/// options' timeout/retry/size policy. \returns true when a response —
/// any status — was received and parsed; transport failure after all
/// retries returns false with \p Error set.
bool httpGet(const std::string &Url, HttpResponse &Out,
             const HttpOptions &Options = {}, std::string *Error = nullptr);

/// Issues one POST \p Url with \p Body. Same semantics as httpGet.
bool httpPost(const std::string &Url, std::string_view Body,
              HttpResponse &Out, const HttpOptions &Options = {},
              std::string *Error = nullptr);

} // namespace obs
} // namespace cswitch

#endif // CSWITCH_OBS_METRICSHTTP_H
