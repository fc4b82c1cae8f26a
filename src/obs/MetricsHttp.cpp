//===- MetricsHttp.cpp - Pull-based introspection endpoint ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsHttp.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

/// Time a client has, from accept, to deliver its whole request (header
/// block and body) to the single server thread.
constexpr std::chrono::seconds RequestDeadline{2};

/// Writes all of \p Data to \p Fd, tolerating short writes. Returns
/// false on error (peer gone — nothing useful to do about it).
bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len != 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Data += static_cast<size_t>(N);
    Len -= static_cast<size_t>(N);
  }
  return true;
}

void respond(int Fd, const char *Status, const std::string &ContentType,
             const std::string &Body, bool HeadOnly = false,
             const char *Allow = nullptr) {
  std::string Head = "HTTP/1.0 ";
  Head += Status;
  Head += "\r\nContent-Type: ";
  Head += ContentType;
  Head += "\r\nContent-Length: ";
  Head += std::to_string(Body.size());
  if (Allow) {
    Head += "\r\nAllow: ";
    Head += Allow;
  }
  Head += "\r\nConnection: close\r\n\r\n";
  // HEAD answers carry the headers of the equivalent GET — including
  // the Content-Length the body would have — but no body bytes.
  if (writeAll(Fd, Head.data(), Head.size()) && !HeadOnly)
    writeAll(Fd, Body.data(), Body.size());
}

} // namespace

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::handle(std::string Path, std::string ContentType,
                           TextSource Render) {
  Routes.push_back({std::move(Path), std::move(ContentType),
                    std::move(Render)});
}

void MetricsServer::handlePost(std::string Path, size_t MaxBodyBytes,
                               BodyHandler Handler) {
  PostRoutes.push_back({std::move(Path), MaxBodyBytes, std::move(Handler)});
}

bool MetricsServer::start(uint16_t Port) {
  if (ListenFd >= 0)
    return false;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 8) != 0) {
    ::close(Fd);
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    ::close(Fd);
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);
  ListenFd = Fd;
  Acceptor = std::thread([this] { serveLoop(); });
  return true;
}

void MetricsServer::stop() {
  if (ListenFd < 0)
    return;
  // shutdown() wakes the blocking accept with an error; the loop then
  // notices the fd is being torn down and exits.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  ::close(ListenFd);
  ListenFd = -1;
  BoundPort = 0;
}

void MetricsServer::serveLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // Listen socket shut down: server stopping.
    }
    serveConnection(Fd);
    ::close(Fd);
  }
}

namespace {

/// recv() that gives up at \p Deadline: the socket's receive timeout is
/// shrunk to the time left before each call. Returns what recv returns,
/// or -1 once the deadline has passed.
ssize_t recvBefore(int Fd, char *Buf, size_t Size,
                   std::chrono::steady_clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::microseconds>(
      Deadline - std::chrono::steady_clock::now());
  // A zero timeval would mean "wait forever".
  if (Left.count() <= 0)
    return -1;
  timeval Timeout = {/*tv_sec=*/static_cast<time_t>(Left.count() / 1000000),
                     /*tv_usec=*/static_cast<suseconds_t>(Left.count() %
                                                           1000000)};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  return ::recv(Fd, Buf, Size, 0);
}

/// Maps the status codes the POST handlers use to reason phrases.
const char *statusLine(int Status) {
  switch (Status) {
  case 200:
    return "200 OK";
  case 400:
    return "400 Bad Request";
  case 409:
    return "409 Conflict";
  case 413:
    return "413 Payload Too Large";
  case 500:
    return "500 Internal Server Error";
  default:
    return "400 Bad Request";
  }
}

/// Case-insensitive Content-Length lookup in the raw header block.
/// Returns false when absent or unparsable.
bool contentLengthOf(std::string_view Headers, size_t &Out) {
  size_t Pos = 0;
  while (Pos < Headers.size()) {
    size_t LineEnd = Headers.find('\n', Pos);
    if (LineEnd == std::string_view::npos)
      LineEnd = Headers.size();
    std::string_view Line = Headers.substr(Pos, LineEnd - Pos);
    Pos = LineEnd + 1;
    size_t Colon = Line.find(':');
    if (Colon == std::string_view::npos)
      continue;
    std::string Name(Line.substr(0, Colon));
    for (char &C : Name)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    if (Name != "content-length")
      continue;
    std::string_view Value = Line.substr(Colon + 1);
    size_t Begin = Value.find_first_not_of(" \t");
    if (Begin == std::string_view::npos)
      return false;
    uint64_t Parsed = 0;
    bool AnyDigit = false;
    for (size_t I = Begin; I != Value.size(); ++I) {
      char C = Value[I];
      if (C == '\r' || C == ' ' || C == '\t')
        break;
      if (C < '0' || C > '9')
        return false;
      if (Parsed > (UINT64_MAX - 9) / 10)
        return false; // Absurd length: treat as unparsable.
      Parsed = Parsed * 10 + static_cast<uint64_t>(C - '0');
      AnyDigit = true;
    }
    if (!AnyDigit)
      return false;
    Out = static_cast<size_t>(Parsed);
    return true;
  }
  return false;
}

} // namespace

void MetricsServer::serveConnection(int Fd) {
  // Bound the time any client can pin the (single) server thread: the
  // whole request must arrive within RequestDeadline of the accept, so
  // neither a silent client nor one that drips a byte at a time holds it
  // longer.
  auto Deadline = std::chrono::steady_clock::now() + RequestDeadline;
  // Read until the end of the header block ("\r\n\r\n" or "\n\n"); GET
  // routing only needs the request line, POST additionally needs the
  // Content-Length header. The header block itself is capped at 8 KiB.
  std::string Request;
  char Buf[1024];
  size_t HeaderEnd = std::string::npos;
  size_t BodyStart = 0;
  while (Request.size() < 8192) {
    if (size_t P = Request.find("\r\n\r\n"); P != std::string::npos) {
      HeaderEnd = P;
      BodyStart = P + 4;
      break;
    }
    if (size_t P = Request.find("\n\n"); P != std::string::npos) {
      HeaderEnd = P;
      BodyStart = P + 2;
      break;
    }
    ssize_t N = recvBefore(Fd, Buf, sizeof(Buf), Deadline);
    if (N <= 0)
      return;
    Request.append(Buf, static_cast<size_t>(N));
  }
  if (HeaderEnd == std::string::npos)
    return;
  size_t LineEnd = Request.find('\n');
  if (LineEnd == std::string::npos || LineEnd > HeaderEnd + 1)
    return;

  // "GET /path HTTP/1.x" | "POST /path HTTP/1.x"
  std::string Line = Request.substr(0, LineEnd);
  size_t MethodEnd = Line.find(' ');
  if (MethodEnd == std::string::npos) {
    respond(Fd, "400 Bad Request", "text/plain", "bad request\n");
    return;
  }
  std::string Method = Line.substr(0, MethodEnd);
  size_t PathEnd = Line.find(' ', MethodEnd + 1);
  std::string Path = Line.substr(MethodEnd + 1,
                                 PathEnd == std::string::npos
                                     ? std::string::npos
                                     : PathEnd - MethodEnd - 1);
  // Strip a query string; the routes are plain paths.
  if (size_t Query = Path.find('?'); Query != std::string::npos)
    Path.resize(Query);

  const Route *GetRoute = nullptr;
  for (const auto &R : Routes)
    if (R.Path == Path)
      GetRoute = &R;
  const PostRoute *Post = nullptr;
  for (const auto &R : PostRoutes)
    if (R.Path == Path)
      Post = &R;
  // What the path supports, for Allow headers on 405 answers. A GET
  // route implicitly answers HEAD too (same headers, no body).
  const char *Allowed = GetRoute ? (Post ? "GET, HEAD, POST" : "GET, HEAD")
                                 : (Post ? "POST" : nullptr);

  if (Method == "GET" || Method == "HEAD") {
    if (GetRoute) {
      respond(Fd, "200 OK", GetRoute->ContentType, GetRoute->Render(),
              /*HeadOnly=*/Method == "HEAD");
      return;
    }
    if (Post) {
      respond(Fd, "405 Method Not Allowed", "text/plain", "no GET route\n",
              Method == "HEAD", Allowed);
      return;
    }
    respond(Fd, "404 Not Found", "text/plain", "unknown path\n",
            Method == "HEAD");
    return;
  }

  if (Method != "POST") {
    // An unsupported method on a known path is a method problem (405,
    // naming what the path does answer); on an unknown path it is a
    // path problem (404) — not a blanket 405 as before.
    if (Allowed)
      respond(Fd, "405 Method Not Allowed", "text/plain",
              "method not allowed\n", false, Allowed);
    else
      respond(Fd, "404 Not Found", "text/plain", "unknown path\n");
    return;
  }

  const PostRoute *Route = Post;
  if (!Route) {
    if (GetRoute)
      respond(Fd, "405 Method Not Allowed", "text/plain", "no POST route\n",
              false, Allowed);
    else
      respond(Fd, "404 Not Found", "text/plain", "no POST route\n");
    return;
  }

  size_t ContentLength = 0;
  std::string_view Headers(Request.data() + LineEnd + 1,
                           HeaderEnd >= LineEnd + 1 ? HeaderEnd - LineEnd - 1
                                                    : 0);
  if (!contentLengthOf(Headers, ContentLength)) {
    respond(Fd, "400 Bad Request", "text/plain",
            "Content-Length required\n");
    return;
  }
  if (ContentLength > Route->MaxBodyBytes) {
    // Refuse before reading: an oversized push never occupies memory or
    // the server thread beyond this point.
    respond(Fd, "413 Payload Too Large", "text/plain", "body too large\n");
    return;
  }

  std::string Body = Request.substr(BodyStart);
  if (Body.size() > ContentLength)
    Body.resize(ContentLength);
  while (Body.size() < ContentLength) {
    ssize_t N = recvBefore(Fd, Buf, sizeof(Buf), Deadline);
    if (N <= 0)
      return; // Peer died (or ran out of the request deadline) mid-body.
    size_t Want = ContentLength - Body.size();
    Body.append(Buf, std::min(static_cast<size_t>(N), Want));
  }

  PostResult Result = Route->Handler(Body);
  respond(Fd, statusLine(Result.Status), "text/plain", Result.Body);
}

//===----------------------------------------------------------------------===//
// Client
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

struct ParsedUrl {
  std::string Host;
  std::string Port;
  std::string Path;
};

/// Parses `http://host[:port][/path]`. HTTPS is out of scope by design
/// (the endpoint binds loopback; fleet topologies that need transport
/// security front it with a local proxy).
bool parseUrl(const std::string &Url, ParsedUrl &Out, std::string *Error) {
  constexpr std::string_view Scheme = "http://";
  if (Url.compare(0, Scheme.size(), Scheme) != 0)
    return fail(Error, "unsupported URL (expected http://): " + Url);
  std::string Rest = Url.substr(Scheme.size());
  size_t Slash = Rest.find('/');
  std::string HostPort =
      Slash == std::string::npos ? Rest : Rest.substr(0, Slash);
  Out.Path = Slash == std::string::npos ? "/" : Rest.substr(Slash);
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos) {
    Out.Host = HostPort;
    Out.Port = "80";
  } else {
    Out.Host = HostPort.substr(0, Colon);
    Out.Port = HostPort.substr(Colon + 1);
  }
  if (Out.Host.empty() || Out.Port.empty())
    return fail(Error, "malformed URL: " + Url);
  return true;
}

/// SplitMix64 — the deterministic jitter source of the backoff.
uint64_t splitMix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void setSocketTimeouts(int Fd, std::chrono::milliseconds Timeout) {
  timeval Tv = {};
  Tv.tv_sec = static_cast<time_t>(Timeout.count() / 1000);
  Tv.tv_usec = static_cast<suseconds_t>((Timeout.count() % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
}

/// Connects with a bounded wait (non-blocking connect + poll) so a
/// black-holed peer costs RequestTimeout, not the kernel's minutes-long
/// default.
int connectWithTimeout(const ParsedUrl &Url,
                       std::chrono::milliseconds Timeout,
                       std::string *Error) {
  addrinfo Hints = {};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Resolved = nullptr;
  int Rc = ::getaddrinfo(Url.Host.c_str(), Url.Port.c_str(), &Hints,
                         &Resolved);
  if (Rc != 0) {
    fail(Error, "cannot resolve " + Url.Host + ": " + gai_strerror(Rc));
    return -1;
  }
  int Fd = -1;
  for (addrinfo *Ai = Resolved; Ai; Ai = Ai->ai_next) {
    Fd = ::socket(Ai->ai_family, Ai->ai_socktype | SOCK_CLOEXEC,
                  Ai->ai_protocol);
    if (Fd < 0)
      continue;
    int Flags = ::fcntl(Fd, F_GETFL, 0);
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
    if (::connect(Fd, Ai->ai_addr, Ai->ai_addrlen) == 0)
      break;
    if (errno == EINPROGRESS) {
      pollfd Pfd = {Fd, POLLOUT, 0};
      int Ready = ::poll(&Pfd, 1, static_cast<int>(Timeout.count()));
      int SoError = 0;
      socklen_t Len = sizeof(SoError);
      if (Ready == 1 &&
          ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoError, &Len) == 0 &&
          SoError == 0)
        break;
    }
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Resolved);
  if (Fd < 0) {
    fail(Error, "cannot connect to " + Url.Host + ":" + Url.Port);
    return -1;
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags & ~O_NONBLOCK);
  setSocketTimeouts(Fd, Timeout);
  return Fd;
}

/// One request attempt: connect, send, read to EOF (HTTP/1.0 with
/// Connection: close), parse status + body. Size-capped while reading.
bool requestOnce(const ParsedUrl &Url, const std::string &Request,
                 const HttpOptions &Options, HttpResponse &Out,
                 std::string *Error) {
  int Fd = connectWithTimeout(Url, Options.RequestTimeout, Error);
  if (Fd < 0)
    return false;
  if (!writeAll(Fd, Request.data(), Request.size())) {
    ::close(Fd);
    return fail(Error, "send failed: " + std::string(std::strerror(errno)));
  }
  std::string Response;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N == 0)
      break;
    if (N < 0) {
      ::close(Fd);
      return fail(Error,
                  "receive failed: " + std::string(std::strerror(errno)));
    }
    if (Response.size() + static_cast<size_t>(N) > Options.MaxResponseBytes) {
      ::close(Fd);
      Out.Oversize = true;
      return fail(Error, "response exceeds size limit");
    }
    Response.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);

  // "HTTP/1.x NNN reason\r\n headers \r\n\r\n body"
  if (Response.compare(0, 5, "HTTP/") != 0)
    return fail(Error, "malformed response (no status line)");
  size_t Space = Response.find(' ');
  if (Space == std::string::npos || Space + 4 > Response.size())
    return fail(Error, "malformed response (no status code)");
  int Status = 0;
  for (size_t I = Space + 1; I != Space + 4; ++I) {
    char C = Response[I];
    if (C < '0' || C > '9')
      return fail(Error, "malformed response (bad status code)");
    Status = Status * 10 + (C - '0');
  }
  size_t BodyStart;
  if (size_t P = Response.find("\r\n\r\n"); P != std::string::npos)
    BodyStart = P + 4;
  else if (size_t Q = Response.find("\n\n"); Q != std::string::npos)
    BodyStart = Q + 2;
  else
    return fail(Error, "malformed response (no header terminator)");
  Out.Status = Status;
  Out.Body = Response.substr(BodyStart);
  return true;
}

std::string buildRequest(const char *Method, const ParsedUrl &Url,
                         std::string_view Body) {
  std::string Request = Method;
  Request += " ";
  Request += Url.Path;
  Request += " HTTP/1.0\r\nHost: ";
  Request += Url.Host;
  Request += "\r\nConnection: close\r\n";
  if (Body.data() != nullptr) {
    Request += "Content-Type: application/octet-stream\r\n";
    Request += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  }
  Request += "\r\n";
  Request.append(Body.data() ? Body.data() : "", Body.size());
  return Request;
}

/// Runs one request with the retry/backoff policy. Only transport
/// failures retry; any parsed response (any status) is final.
bool requestWithRetries(const std::string &Url, const char *Method,
                        std::string_view Body, const HttpOptions &Options,
                        HttpResponse &Out, std::string *Error) {
  Out = HttpResponse();
  ParsedUrl Parsed;
  if (!parseUrl(Url, Parsed, Error))
    return false;
  std::string Request = buildRequest(Method, Parsed, Body);
  uint64_t Jitter = Options.JitterSeed;
  for (;;) {
    if (requestOnce(Parsed, Request, Options, Out, Error))
      return true;
    if (Out.Oversize || Out.Retries == Options.MaxRetries)
      return false; // Oversize is a policy rejection, not flakiness.
    // Jittered exponential backoff: Base * 2^Attempt * uniform[0.5, 1.5).
    double Uniform =
        0.5 + static_cast<double>(splitMix64(Jitter) >> 11) /
                  static_cast<double>(1ull << 53);
    auto Sleep = std::chrono::duration_cast<std::chrono::milliseconds>(
        Options.BackoffBase * (1u << std::min(Out.Retries, 10u)) * Uniform);
    std::this_thread::sleep_for(Sleep);
    ++Out.Retries;
  }
}

} // namespace

bool cswitch::obs::httpGet(const std::string &Url, HttpResponse &Out,
                           const HttpOptions &Options, std::string *Error) {
  return requestWithRetries(Url, "GET", {}, Options, Out, Error);
}

bool cswitch::obs::httpPost(const std::string &Url, std::string_view Body,
                            HttpResponse &Out, const HttpOptions &Options,
                            std::string *Error) {
  return requestWithRetries(Url, "POST", Body, Options, Out, Error);
}
