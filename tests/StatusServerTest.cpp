//===- tests/StatusServerTest.cpp - HTTP observability plane ----------------===//
//
// Exercises serve::StatusServer over real loopback sockets: endpoint
// content types and bodies, Prometheus exposition details (+Inf bucket,
// label escaping, build-info metric), the /status JSON round trip through
// the campaign JSON parser, SSE framing, error responses, the loopback-only
// bind refusal, and concurrent scrapes racing live publishes (the test the
// TSan CI tier leans on).
//
//===----------------------------------------------------------------------===//

#include "campaign/Json.h"
#include "serve/StatusServer.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

using namespace dlf;
using namespace dlf::serve;

/// Blocking loopback connect with a receive timeout; returns -1 on failure.
int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  timeval Tv{5, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  sockaddr_in Sin{};
  Sin.sin_family = AF_INET;
  Sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Sin.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Sin), sizeof(Sin)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// One-shot request: sends \p Request, reads until the server closes.
std::string httpRoundTrip(uint16_t Port, const std::string &Request) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return "";
  if (::send(Fd, Request.data(), Request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(Request.size())) {
    ::close(Fd);
    return "";
  }
  std::string Response;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Response.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return Response;
}

std::string httpGet(uint16_t Port, const std::string &Path) {
  return httpRoundTrip(Port, "GET " + Path + " HTTP/1.1\r\n"
                             "Host: 127.0.0.1\r\n\r\n");
}

/// Reads from \p Fd until \p Needle appears in the accumulated stream or
/// the deadline passes. Used for SSE, where the server never closes.
bool readUntil(int Fd, const std::string &Needle, std::string &Accum,
               int DeadlineMs = 5000) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(DeadlineMs);
  char Buf[4096];
  while (Accum.find(Needle) == std::string::npos) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        continue;
      return false;
    }
    Accum.append(Buf, static_cast<size_t>(N));
  }
  return true;
}

std::string headerValue(const std::string &Response, const std::string &Name) {
  std::string Key = "\r\n" + Name + ": ";
  size_t Pos = Response.find(Key);
  if (Pos == std::string::npos)
    return "";
  size_t Start = Pos + Key.size();
  size_t End = Response.find("\r\n", Start);
  return Response.substr(Start, End - Start);
}

std::string body(const std::string &Response) {
  size_t Pos = Response.find("\r\n\r\n");
  return Pos == std::string::npos ? "" : Response.substr(Pos + 4);
}

std::unique_ptr<StatusServer> startServer(ServerOptions Opts = {}) {
  std::string Err;
  std::unique_ptr<StatusServer> S = StatusServer::start(std::move(Opts), &Err);
  EXPECT_NE(S, nullptr) << Err;
  return S;
}

TEST(StatusServerTest, EphemeralPortHealthzAndBuildInfo) {
  ServerOptions Opts;
  Opts.Tool = "dlf-test";
  Opts.BuildInfo["benchmark"] = "dbcp";
  auto S = startServer(std::move(Opts));
  ASSERT_NE(S, nullptr);
  EXPECT_NE(S->port(), 0) << "port 0 must resolve to a real ephemeral port";
  EXPECT_EQ(S->address(), "127.0.0.1:" + std::to_string(S->port()));

  std::string R = httpGet(S->port(), "/healthz");
  EXPECT_NE(R.find("HTTP/1.1 200 OK"), std::string::npos) << R;
  EXPECT_EQ(body(R), "ok\n");

  std::string B = httpGet(S->port(), "/buildinfo");
  EXPECT_EQ(headerValue(B, "Content-Type"), "application/json");
  campaign::JsonValue V;
  std::string Err;
  ASSERT_TRUE(campaign::parseJson(body(B), V, &Err)) << Err << "\n" << B;
  EXPECT_EQ(V["tool"].asString(), "dlf-test");
  EXPECT_EQ(V["benchmark"].asString(), "dbcp");

  EXPECT_GE(S->requestsServed(), 2u);
}

TEST(StatusServerTest, RefusesNonLoopbackAddress) {
  ServerOptions Opts;
  Opts.Addr = "0.0.0.0:0";
  std::string Err;
  EXPECT_EQ(StatusServer::start(std::move(Opts), &Err), nullptr);
  EXPECT_NE(Err.find("loopback"), std::string::npos) << Err;

  ServerOptions Opts2;
  Opts2.Addr = "127.0.0.1:notaport";
  EXPECT_EQ(StatusServer::start(std::move(Opts2), &Err), nullptr);
}

TEST(StatusServerTest, MetricsContentTypeInfBucketAndBuildInfoMetric) {
  ServerOptions Opts;
  Opts.Tool = "dlf-test";
  // A provider-side histogram proves the live pull is merged in and that
  // the exposition carries the mandatory +Inf bucket.
  Opts.MetricsProvider = [] {
    telemetry::MetricsSnapshot M;
    M.Counters["dlf_test_scrapes_total"] = 7;
    auto &H = M.Histograms["dlf_test_latency_us"];
    H.observe(4);
    H.observe(4);
    H.observe(4);
    return M;
  };
  auto S = startServer(std::move(Opts));
  ASSERT_NE(S, nullptr);

  // A published snapshot must merge with the provider pull, not shadow it.
  telemetry::MetricsSnapshot Published;
  Published.Counters["dlf_campaign_reps_total"] = 41;
  S->publishMetrics(Published);

  std::string R = httpGet(S->port(), "/metrics");
  EXPECT_EQ(headerValue(R, "Content-Type"), "text/plain; version=0.0.4") << R;
  std::string Text = body(R);
  EXPECT_NE(Text.find("dlf_test_scrapes_total 7"), std::string::npos) << Text;
  EXPECT_NE(Text.find("dlf_campaign_reps_total 41"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dlf_test_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dlf_build_info{tool=\"dlf-test\"} 1"),
            std::string::npos)
      << Text;
}

TEST(StatusServerTest, PromLabelEscaping) {
  EXPECT_EQ(promEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(promEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(promEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(promEscapeLabelValue("a\nb"), "a\\nb");

  ServerOptions Opts;
  Opts.Tool = "dlf-test";
  Opts.BuildInfo["benchmark"] = "quote\" slash\\ line\nend";
  Opts.MetricsProvider = [] { return telemetry::MetricsSnapshot(); };
  auto S = startServer(std::move(Opts));
  ASSERT_NE(S, nullptr);
  std::string Text = body(httpGet(S->port(), "/metrics"));
  EXPECT_NE(
      Text.find("benchmark=\"quote\\\" slash\\\\ line\\nend\""),
      std::string::npos)
      << Text;
}

TEST(StatusServerTest, StatusJsonRoundTrip) {
  auto S = startServer();
  ASSERT_NE(S, nullptr);

  CampaignStatus St;
  St.Tool = "dlf-run";
  St.Benchmark = "dbcp";
  St.Phase = "phase2";
  St.Jobs = 2;
  St.CyclesFound = 1;
  St.RepsTotal = 6;
  St.RepsCommitted = 4;
  St.RepsExecuted = 4;
  St.JournalRecords = 5;
  CycleStatus Cy;
  Cy.Index = 0;
  Cy.RepsDone = 4;
  Cy.RepsTotal = 6;
  Cy.Reproduced = 2;
  Cy.Classification = "schedulable";
  St.PerCycle.push_back(Cy);
  WorkerStatus W;
  W.Lane = 0;
  W.Busy = true;
  W.Cycle = 0;
  W.Rep = 4;
  St.Workers.push_back(W);
  St.RepsPerSecond = 12.5;
  S->publishStatus(St);

  std::string R = httpGet(S->port(), "/status");
  EXPECT_EQ(headerValue(R, "Content-Type"), "application/json");
  campaign::JsonValue V;
  std::string Err;
  ASSERT_TRUE(campaign::parseJson(body(R), V, &Err)) << Err << "\n" << R;
  EXPECT_EQ(V["tool"].asString(), "dlf-run");
  EXPECT_EQ(V["benchmark"].asString(), "dbcp");
  EXPECT_EQ(V["phase"].asString(), "phase2");
  EXPECT_EQ(V["progress"]["reps_committed"].asUInt(), 4u);
  EXPECT_EQ(V["progress"]["journal_records"].asUInt(), 5u);
  ASSERT_EQ(V["cycles"].items().size(), 1u);
  EXPECT_EQ(V["cycles"].items()[0]["reps_done"].asUInt(), 4u);
  EXPECT_EQ(V["cycles"].items()[0]["reps_remaining"].asUInt(), 2u);
  EXPECT_EQ(V["cycles"].items()[0]["classification"].asString(),
            "schedulable");
  ASSERT_EQ(V["workers"].items().size(), 1u);
  EXPECT_TRUE(V["workers"].items()[0]["busy"].asBool());
  EXPECT_EQ(V["workers"].items()[0]["rep"].asUInt(), 4u);
}

TEST(StatusServerTest, EventsSseFraming) {
  auto S = startServer();
  ASSERT_NE(S, nullptr);

  CampaignStatus St;
  St.Tool = "dlf-run";
  St.Phase = "phase2";
  S->publishStatus(St);

  int Fd = connectLoopback(S->port());
  ASSERT_GE(Fd, 0);
  std::string Req = "GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Req.size()));

  // Header, client-retry hint, and the seeding snapshot come first; only
  // then is the subscriber guaranteed registered for fresh events.
  std::string Accum;
  ASSERT_TRUE(readUntil(Fd, "event: status\n", Accum)) << Accum;
  EXPECT_NE(Accum.find("Content-Type: text/event-stream"), std::string::npos)
      << Accum;
  EXPECT_NE(Accum.find("retry: 2000\n\n"), std::string::npos) << Accum;

  S->publishEvent("commit", "{\"cycle\":0,\"rep\":1}");
  ASSERT_TRUE(readUntil(Fd, "event: commit\ndata: {\"cycle\":0,\"rep\":1}\n\n",
                        Accum))
      << Accum;

  // stop() sends a farewell frame so consumers see an explicit end.
  std::thread Stopper([&] { S->stop(); });
  EXPECT_TRUE(readUntil(Fd, "event: bye\n", Accum)) << Accum;
  Stopper.join();
  ::close(Fd);
}

TEST(StatusServerTest, EventsReachOnlyCurrentSubscribers) {
  auto S = startServer();
  ASSERT_NE(S, nullptr);

  // Nobody subscribes yet: the event is dropped, not queued for later.
  S->publishEvent("early", "{\"n\":1}");

  int Fd = connectLoopback(S->port());
  ASSERT_GE(Fd, 0);
  std::string Req = "GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Req.size()));
  std::string Accum;
  ASSERT_TRUE(readUntil(Fd, "event: status\n", Accum)) << Accum;

  S->publishEvent("late", "{\"n\":2}");
  ASSERT_TRUE(readUntil(Fd, "event: late\ndata: {\"n\":2}\n\n", Accum))
      << Accum;
  EXPECT_EQ(Accum.find("event: early"), std::string::npos) << Accum;

  S->stop();
  ::close(Fd);
}

TEST(StatusServerTest, MethodAndPathErrors) {
  auto S = startServer();
  ASSERT_NE(S, nullptr);

  std::string Post = httpRoundTrip(
      S->port(), "POST /status HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  EXPECT_NE(Post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos)
      << Post;
  EXPECT_EQ(headerValue(Post, "Allow"), "GET");

  std::string Missing = httpGet(S->port(), "/nope");
  EXPECT_NE(Missing.find("HTTP/1.1 404 Not Found"), std::string::npos)
      << Missing;

  std::string Huge = "GET /healthz HTTP/1.1\r\nX-Pad: " +
                     std::string(9000, 'x') + "\r\n\r\n";
  std::string TooBig = httpRoundTrip(S->port(), Huge);
  EXPECT_NE(TooBig.find("431"), std::string::npos) << TooBig.substr(0, 200);
}

// The TSan CI tier runs this binary: scrapes from several threads while the
// "analysis" thread keeps publishing, which is exactly the cross-thread
// traffic pattern of a live campaign being watched.
TEST(StatusServerTest, ConcurrentScrapesDuringPublishes) {
  ServerOptions Opts;
  Opts.Tool = "dlf-test";
  auto S = startServer(std::move(Opts));
  ASSERT_NE(S, nullptr);

  std::atomic<bool> Done{false};
  std::thread Publisher([&] {
    unsigned Rep = 0;
    while (!Done.load(std::memory_order_acquire)) {
      CampaignStatus St;
      St.Tool = "dlf-run";
      St.Phase = "phase2";
      St.RepsCommitted = ++Rep;
      S->publishStatus(St);
      S->publishEvent("commit", "{\"rep\":" + std::to_string(Rep) + "}");
      telemetry::MetricsSnapshot M;
      M.Counters["dlf_campaign_reps_total"] = Rep;
      S->publishMetrics(M);
    }
  });

  const char *Paths[] = {"/metrics", "/status", "/healthz", "/buildinfo"};
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Scrapers;
  for (int T = 0; T < 4; ++T) {
    Scrapers.emplace_back([&, T] {
      for (int I = 0; I < 25; ++I) {
        std::string R = httpGet(S->port(), Paths[(T + I) % 4]);
        if (R.find("HTTP/1.1 200 OK") == std::string::npos)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Th : Scrapers)
    Th.join();
  Done.store(true, std::memory_order_release);
  Publisher.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GE(S->requestsServed(), 100u);
}

} // namespace
