//===- serve/StatusServer.cpp - Loopback HTTP observability plane ---------===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/StatusServer.h"

#include "support/Env.h"
#include "support/JsonEscape.h"
#include "support/Retry.h"
#include "telemetry/Metrics.h"

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dlf {
namespace serve {

namespace {

/// Largest request head we accept before answering 431; scrapers send a
/// one-line GET, so anything bigger is a confused or hostile peer.
constexpr size_t MaxRequestBytes = 8192;

void closeIfOpen(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Best-effort non-blocking send; SIGPIPE suppressed (a vanished scraper
/// must not kill the analysis).
ssize_t sendSome(int Fd, const char *Data, size_t Len) {
  return ::send(Fd, Data, Len, MSG_NOSIGNAL);
}

/// Splits "host:port" / ":port" / "port"; returns false (with a message)
/// for anything that is not loopback.
bool parseLoopbackAddr(const std::string &Addr, uint16_t &PortOut,
                       std::string *Err) {
  std::string Host;
  std::string PortText = Addr;
  size_t Colon = Addr.rfind(':');
  if (Colon != std::string::npos) {
    Host = Addr.substr(0, Colon);
    PortText = Addr.substr(Colon + 1);
  }
  if (!Host.empty() && Host != "127.0.0.1" && Host != "localhost") {
    if (Err)
      *Err = "refusing non-loopback status address '" + Host +
             "' (the server is loopback-only; use 127.0.0.1)";
    return false;
  }
  uint64_t Port = 0;
  if (!parseUint64Strict(PortText.c_str(), Port) || Port > 65535) {
    if (Err)
      *Err = "bad status port '" + PortText + "' (expected 0-65535)";
    return false;
  }
  PortOut = static_cast<uint16_t>(Port);
  return true;
}

std::string sseFrame(const std::string &Type, const std::string &Json) {
  std::string F;
  F.reserve(Type.size() + Json.size() + 16);
  F += "event: ";
  F += Type;
  F += "\ndata: ";
  F += Json;
  F += "\n\n";
  return F;
}

} // namespace

std::string promEscapeLabelValue(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  for (char Ch : V) {
    if (Ch == '\\')
      Out += "\\\\";
    else if (Ch == '"')
      Out += "\\\"";
    else if (Ch == '\n')
      Out += "\\n";
    else
      Out += Ch;
  }
  return Out;
}

std::unique_ptr<StatusServer> StatusServer::start(ServerOptions Opts,
                                                  std::string *Err) {
  uint16_t WantPort = 0;
  if (!parseLoopbackAddr(Opts.Addr, WantPort, Err))
    return nullptr;
  if (!Opts.MetricsProvider)
    Opts.MetricsProvider = [] { return telemetry::Registry::global().snapshot(); };

  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    if (Err)
      *Err = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Sin{};
  Sin.sin_family = AF_INET;
  Sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Sin.sin_port = htons(WantPort);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sin), sizeof(Sin)) < 0 ||
      ::listen(Fd, 16) < 0) {
    if (Err)
      *Err = "bind 127.0.0.1:" + std::to_string(WantPort) + ": " +
             std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  socklen_t SinLen = sizeof(Sin);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Sin), &SinLen) < 0) {
    if (Err)
      *Err = std::string("getsockname: ") + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }

  int Pipe[2];
  if (::pipe2(Pipe, O_NONBLOCK | O_CLOEXEC) < 0) {
    if (Err)
      *Err = std::string("pipe2: ") + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }

  std::unique_ptr<StatusServer> S(new StatusServer());
  S->Opts = std::move(Opts);
  S->Port = ntohs(Sin.sin_port);
  S->ListenFd = Fd;
  S->WakeRead = Pipe[0];
  S->WakeWrite = Pipe[1];
  S->Thread = std::thread([Server = S.get()] { Server->threadMain(); });
  return S;
}

StatusServer::~StatusServer() { stop(); }

std::string StatusServer::address() const {
  return "127.0.0.1:" + std::to_string(Port);
}

void StatusServer::stop() {
  bool Expected = false;
  if (!Stopping.compare_exchange_strong(Expected, true)) {
    if (Thread.joinable())
      Thread.join();
    return;
  }
  if (WakeWrite >= 0) {
    char B = 'q';
    (void)::write(WakeWrite, &B, 1);
  }
  if (Thread.joinable())
    Thread.join();
  closeIfOpen(ListenFd);
  closeIfOpen(WakeRead);
  closeIfOpen(WakeWrite);
}

void StatusServer::publishStatus(const CampaignStatus &S) {
  // /status is pulled, so the server thread has nothing to do until a
  // scraper asks: store, no wake.
  std::lock_guard<std::mutex> Lock(Mu);
  LastStatus = S;
}

void StatusServer::publishEvent(const std::string &Type,
                                const std::string &Json) {
  // Events reach only current subscribers; with none there is nothing to
  // frame and nobody to wake.
  if (SseClients.load(std::memory_order_acquire) == 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    PendingEvents.push_back(sseFrame(Type, Json));
    // Bound the queue even with no server thread draining it (shutdown
    // races): old events are strictly less useful than new ones.
    while (PendingEvents.size() > 1024)
      PendingEvents.pop_front();
  }
  char B = 'e';
  (void)::write(WakeWrite, &B, 1);
}

void StatusServer::publishMetrics(const telemetry::MetricsSnapshot &M) {
  std::lock_guard<std::mutex> Lock(Mu);
  PublishedMetrics = M;
}

void StatusServer::threadMain() {
  while (!Stopping.load(std::memory_order_acquire)) {
    std::vector<pollfd> Fds;
    Fds.push_back({WakeRead, POLLIN, 0});
    Fds.push_back({ListenFd, POLLIN, 0});
    for (Client &C : Clients) {
      short Ev = POLLIN;
      if (!C.Out.empty())
        Ev |= POLLOUT;
      Fds.push_back({C.Fd, Ev, 0});
    }

    int N = ::poll(Fds.data(), Fds.size(), 500);
    if (N < 0 && errno != EINTR)
      break;

    if (Fds[0].revents & POLLIN) {
      char Buf[256];
      while (::read(WakeRead, Buf, sizeof(Buf)) > 0) {
      }
    }

    // Frame any freshly published events onto SSE outboxes.
    std::vector<std::string> Fresh;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      while (!PendingEvents.empty()) {
        Fresh.push_back(std::move(PendingEvents.front()));
        PendingEvents.pop_front();
      }
    }
    if (!Fresh.empty()) {
      for (Client &C : Clients) {
        if (!C.Sse)
          continue;
        for (const std::string &F : Fresh)
          C.Out += F;
      }
    }

    if (Fds[1].revents & POLLIN)
      acceptClients();

    for (size_t I = 0; I < Clients.size(); ++I) {
      Client &C = Clients[I];
      // pollfd slot 2+I tracks Clients[I]; acceptClients may have added
      // clients with no slot this round — they flush next iteration.
      size_t Slot = 2 + I;
      bool Alive = true;
      if (Slot < Fds.size() && Fds[Slot].fd == C.Fd) {
        if (Fds[Slot].revents & (POLLERR | POLLHUP | POLLNVAL))
          Alive = false;
        if (Alive && (Fds[Slot].revents & POLLIN))
          Alive = handleReadable(C);
      }
      if (Alive && !C.Out.empty())
        Alive = flushClient(C);
      if (Alive && C.Sse && C.Out.size() > Opts.MaxClientBufferBytes) {
        // A scraper this far behind will never catch up; shed it so the
        // outbox cannot grow without bound.
        SseDropped.fetch_add(1, std::memory_order_relaxed);
        Alive = false;
      }
      if (Alive && !C.Sse && C.CloseAfterFlush && C.Out.empty())
        Alive = false;
      if (!Alive) {
        if (C.Sse)
          SseClients.fetch_sub(1, std::memory_order_release);
        ::close(C.Fd);
        Clients.erase(Clients.begin() + static_cast<long>(I));
        --I;
      }
    }
  }

  // Courtesy farewell so SSE consumers see an explicit end, then tear
  // everything down. Best effort: the process is exiting either way.
  const std::string Bye = sseFrame("bye", "{}");
  for (Client &C : Clients) {
    if (C.Sse) {
      (void)sendSome(C.Fd, Bye.data(), Bye.size());
      SseClients.fetch_sub(1, std::memory_order_release);
    }
    ::close(C.Fd);
  }
  Clients.clear();
}

void StatusServer::acceptClients() {
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return;
    if (Clients.size() >= Opts.MaxClients) {
      const std::string R = simpleResponse(503, "Service Unavailable",
                                           "text/plain", "too many clients\n");
      (void)sendSome(Fd, R.data(), R.size());
      ::close(Fd);
      continue;
    }
    Client C;
    C.Fd = Fd;
    Clients.push_back(std::move(C));
  }
}

bool StatusServer::handleReadable(Client &C) {
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N == 0)
      return false; // peer closed
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      if (errno == EINTR)
        continue;
      return false;
    }
    // An SSE subscriber has nothing more to say; drain and ignore.
    if (C.Sse)
      continue;
    C.In.append(Buf, static_cast<size_t>(N));
    if (C.In.size() > MaxRequestBytes) {
      C.Out += simpleResponse(431, "Request Header Fields Too Large",
                              "text/plain", "request too large\n");
      C.CloseAfterFlush = true;
      return true;
    }
  }
  if (C.Sse || C.CloseAfterFlush)
    return true;

  size_t HeadEnd = C.In.find("\r\n\r\n");
  if (HeadEnd == std::string::npos)
    return true; // head still incomplete

  std::string Method;
  std::string Path;
  {
    size_t LineEnd = C.In.find("\r\n");
    std::istringstream Line(C.In.substr(0, LineEnd));
    std::string Version;
    Line >> Method >> Path >> Version;
  }
  C.In.clear();
  size_t Query = Path.find('?');
  if (Query != std::string::npos)
    Path.resize(Query);

  RequestsServed.fetch_add(1, std::memory_order_relaxed);
  dispatchRequest(C, Method, Path);
  return true;
}

void StatusServer::dispatchRequest(Client &C, const std::string &Method,
                                   const std::string &Path) {
  if (Method != "GET") {
    C.Out += simpleResponse(405, "Method Not Allowed", "text/plain",
                            "read-only server: GET only\n");
    C.CloseAfterFlush = true;
    return;
  }

  if (Path == "/healthz") {
    C.Out += simpleResponse(200, "OK", "text/plain", "ok\n");
  } else if (Path == "/metrics") {
    C.Out += simpleResponse(200, "OK", "text/plain; version=0.0.4",
                            renderMetrics());
  } else if (Path == "/status") {
    CampaignStatus S;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      S = LastStatus;
    }
    C.Out += simpleResponse(200, "OK", "application/json", S.toJson() + "\n");
  } else if (Path == "/buildinfo") {
    C.Out += simpleResponse(200, "OK", "application/json",
                            renderBuildInfo() + "\n");
  } else if (Path == "/events") {
    // Counted before the seeding frame is queued, so an event published
    // once the subscriber has seen that frame is never skipped.
    C.Sse = true;
    SseClients.fetch_add(1, std::memory_order_release);
    C.Out += "HTTP/1.1 200 OK\r\n"
             "Content-Type: text/event-stream\r\n"
             "Cache-Control: no-cache\r\n"
             "Connection: keep-alive\r\n"
             "\r\n"
             "retry: 2000\n\n";
    // Seed the stream with the current snapshot so a late subscriber is
    // immediately oriented.
    CampaignStatus S;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      S = LastStatus;
    }
    C.Out += sseFrame("status", S.toJson());
    return; // keep-alive: no CloseAfterFlush
  } else {
    C.Out += simpleResponse(404, "Not Found", "text/plain",
                            "unknown path " + Path + "\n");
  }
  C.CloseAfterFlush = true;
}

bool StatusServer::flushClient(Client &C) {
  while (!C.Out.empty()) {
    ssize_t N = sendSome(C.Fd, C.Out.data(), C.Out.size());
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false;
    C.Out.erase(0, static_cast<size_t>(N));
  }
  return true;
}

std::string StatusServer::renderMetrics() {
  telemetry::MetricsSnapshot Merged;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Merged = PublishedMetrics;
  }
  Merged.merge(Opts.MetricsProvider());

  std::string Text = Merged.toPrometheus();
  // Synthesized info metric: constant 1, metadata in the labels — the
  // conventional Prometheus shape for build identity.
  Text += "# HELP dlf_build_info Build and tool identity.\n";
  Text += "# TYPE dlf_build_info gauge\n";
  Text += "dlf_build_info{tool=\"" + promEscapeLabelValue(Opts.Tool) + "\"";
  for (const auto &KV : Opts.BuildInfo)
    Text += "," + KV.first + "=\"" + promEscapeLabelValue(KV.second) + "\"";
  Text += "} 1\n";
  return Text;
}

std::string StatusServer::renderBuildInfo() {
  std::string Json = "{\"tool\":\"" + jsonEscape(Opts.Tool) + "\"";
  for (const auto &KV : Opts.BuildInfo)
    Json += ",\"" + jsonEscape(KV.first) + "\":\"" + jsonEscape(KV.second) +
            "\"";
  Json += "}";
  return Json;
}

std::string StatusServer::simpleResponse(int Code, const std::string &Reason,
                                         const std::string &ContentType,
                                         const std::string &Body) {
  std::string R = "HTTP/1.1 " + std::to_string(Code) + " " + Reason + "\r\n";
  R += "Content-Type: " + ContentType + "\r\n";
  R += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  if (Code == 405)
    R += "Allow: GET\r\n";
  R += "Connection: close\r\n\r\n";
  R += Body;
  return R;
}

} // namespace serve
} // namespace dlf
