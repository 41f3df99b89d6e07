// Embedded stats endpoint: the pure request->response mapping, the
// Start/Stop lifecycle on an ephemeral port, the HTTP client half
// (ParseHttpUrl/HttpGet), and a real client round-trip against a live
// listener.

#include "obs/stats_server.h"

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"
#include "obs/audit_ledger.h"
#include "obs/exposition.h"
#include "obs/json_util.h"
#include "obs/metrics.h"

namespace atmx {
namespace {

using obs::HttpGet;
using obs::HttpUrl;
using obs::MetricsRegistry;
using obs::ParseHttpUrl;
using obs::StatsServer;

// The status line and the body of a HandleRequest response.
std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// --- HandleRequest (pure). ------------------------------------------------

TEST(HandleRequestTest, MetricsRouteServesOpenMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("req.count").Add(5);
  const std::string response =
      StatsServer::HandleRequest("GET /metrics HTTP/1.0\r\n\r\n", registry);
  EXPECT_EQ(StatusLine(response), "HTTP/1.0 200 OK");
  EXPECT_NE(response.find("application/openmetrics-text"),
            std::string::npos);
  EXPECT_EQ(Body(response), obs::RenderOpenMetrics(registry.Snapshot()));
}

TEST(HandleRequestTest, MetricsJsonRouteServesToJson) {
  MetricsRegistry registry;
  registry.GetGauge("req.gauge").Set(1.5);
  const std::string response = StatsServer::HandleRequest(
      "GET /metrics.json HTTP/1.0\r\n\r\n", registry);
  EXPECT_EQ(StatusLine(response), "HTTP/1.0 200 OK");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_EQ(Body(response), registry.ToJson());
}

TEST(HandleRequestTest, HealthAndRootAnswerOk) {
  MetricsRegistry registry;
  for (const char* path : {"/healthz", "/"}) {
    const std::string response = StatsServer::HandleRequest(
        std::string("GET ") + path + " HTTP/1.0\r\n\r\n", registry);
    EXPECT_EQ(StatusLine(response), "HTTP/1.0 200 OK") << path;
    EXPECT_EQ(Body(response), "ok\n") << path;
  }
}

TEST(HandleRequestTest, TraceAndDecisionsAreWellFormedJson) {
  MetricsRegistry registry;
  // One decision record for /decisions to serve.
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  ledger.Clear();
  obs::ReprAuditRecord record;
  record.op = ledger.NextOpId();
  record.ti = 3;
  ledger.RecordRepr(record);
  for (const char* path : {"/trace", "/decisions"}) {
    const std::string response = StatsServer::HandleRequest(
        std::string("GET ") + path + " HTTP/1.0\r\n\r\n", registry);
    EXPECT_EQ(StatusLine(response), "HTTP/1.0 200 OK") << path;
    std::string error;
    EXPECT_TRUE(obs::JsonWellFormed(Body(response), &error))
        << path << ": " << error;
    auto parsed = obs::ParseJson(Body(response));
    ASSERT_TRUE(parsed.ok()) << path;
    const obs::JsonValue& root = parsed.value();
    if (std::string(path) == "/trace") {
      ASSERT_TRUE(root.is_object());
      ASSERT_NE(root.Find("traceEvents"), nullptr);
      EXPECT_TRUE(root.Find("traceEvents")->is_array());
    } else {
      // The bare array of the ledger's last repr records, as documented
      // in stats_server.h and docs/OBSERVABILITY.md.
      ASSERT_TRUE(root.is_array());
      ASSERT_EQ(root.array.size(), 1u);
      EXPECT_TRUE(root.array[0].is_object());
      EXPECT_EQ(root.array[0].NumberOr("op", 0.0),
                static_cast<double>(record.op));
      EXPECT_EQ(root.array[0].NumberOr("ti", 0.0), 3.0);
    }
  }
  ledger.Clear();
}

TEST(HandleRequestTest, QueryStringIsIgnored) {
  MetricsRegistry registry;
  const std::string response = StatsServer::HandleRequest(
      "GET /healthz?probe=1 HTTP/1.0\r\n\r\n", registry);
  EXPECT_EQ(StatusLine(response), "HTTP/1.0 200 OK");
}

TEST(HandleRequestTest, UnknownRoute404sAndNonGet405s) {
  MetricsRegistry registry;
  EXPECT_EQ(StatusLine(StatsServer::HandleRequest(
                "GET /nope HTTP/1.0\r\n\r\n", registry)),
            "HTTP/1.0 404 Not Found");
  EXPECT_EQ(StatusLine(StatsServer::HandleRequest(
                "POST /metrics HTTP/1.0\r\n\r\n", registry)),
            "HTTP/1.0 405 Method Not Allowed");
  EXPECT_EQ(StatusLine(StatsServer::HandleRequest("garbage", registry)),
            "HTTP/1.0 405 Method Not Allowed");
}

// --- ParseHttpUrl. --------------------------------------------------------

TEST(ParseHttpUrlTest, AcceptsSchemeHostPortPath) {
  Result<HttpUrl> url = ParseHttpUrl("http://127.0.0.1:9100/metrics.json");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().host, "127.0.0.1");
  EXPECT_EQ(url.value().port, 9100);
  EXPECT_EQ(url.value().path, "/metrics.json");
}

TEST(ParseHttpUrlTest, SchemeOptionalPathDefaultsToRoot) {
  Result<HttpUrl> url = ParseHttpUrl("localhost:8080");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().host, "localhost");
  EXPECT_EQ(url.value().port, 8080);
  EXPECT_EQ(url.value().path, "/");
}

TEST(ParseHttpUrlTest, RejectsMissingPortBadPortAndOtherSchemes) {
  EXPECT_FALSE(ParseHttpUrl("http://127.0.0.1/metrics").ok());
  EXPECT_FALSE(ParseHttpUrl("http://127.0.0.1:notaport/").ok());
  EXPECT_FALSE(ParseHttpUrl("http://127.0.0.1:70000/").ok());
  EXPECT_FALSE(ParseHttpUrl("https://127.0.0.1:443/").ok());
  EXPECT_FALSE(ParseHttpUrl("").ok());
}

// --- Live server lifecycle + client round-trip. ---------------------------

TEST(StatsServerTest, StartOnEphemeralPortServeAndStop) {
  MetricsRegistry registry;
  registry.GetCounter("live.requests").Add(3);
  StatsServer server;
  StatsServer::Options options;
  options.registry = &registry;
  ASSERT_TRUE(server.Start(options).ok());
  EXPECT_TRUE(server.running());
  const int port = server.port();
  ASSERT_GT(port, 0);

  Result<std::string> body = HttpGet("127.0.0.1", port, "/metrics.json");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body.value(), registry.ToJson());

  Result<std::string> health = HttpGet("localhost", port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value(), "ok\n");

  // Non-200 surfaces as a Status, not a body.
  EXPECT_FALSE(HttpGet("127.0.0.1", port, "/nope").ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), -1);
  EXPECT_FALSE(
      HttpGet("127.0.0.1", port, "/healthz", /*timeout_ms=*/200).ok());
}

TEST(StatsServerTest, RejectsDoubleStartAndBadPortAllowsRestart) {
  MetricsRegistry registry;
  StatsServer server;
  StatsServer::Options options;
  options.registry = &registry;
  options.port = -2;
  EXPECT_FALSE(server.Start(options).ok());
  options.port = 0;
  ASSERT_TRUE(server.Start(options).ok());
  EXPECT_FALSE(server.Start(options).ok());  // already running
  const int first_port = server.port();
  server.Stop();
  server.Stop();  // idempotent
  ASSERT_TRUE(server.Start(options).ok());  // restart after Stop works
  EXPECT_GT(server.port(), 0);
  (void)first_port;
  server.Stop();
}

TEST(StatsServerTest, HttpGetToClosedPortFailsCleanly) {
  // Bind-then-release an ephemeral port so the target is very likely
  // unused, then connect to it: refused, not hung.
  MetricsRegistry registry;
  StatsServer server;
  StatsServer::Options options;
  options.registry = &registry;
  ASSERT_TRUE(server.Start(options).ok());
  const int port = server.port();
  server.Stop();
  Result<std::string> r =
      HttpGet("127.0.0.1", port, "/healthz", /*timeout_ms=*/200);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace atmx
