// Live-observability-plane tests (DESIGN.md §16): the HTTP admin server over
// a real loopback socket (golden /metrics, /vars, /healthz responses, hot
// knob updates via POST /config, bounded /trace capture), deterministic
// stall-watchdog detection with a synthetic clock, deterministic tail-latency
// SLO capture with sampling off, the async-signal-safe SIGUSR1 dump path
// racing live ring appends, and a TSan-targeted concurrent knob test.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/knobs.h"
#include "harness/runner.h"
#include "obs/chrome_trace.h"
#include "obs/http_server.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "obs/watchdog.h"
#include "workload/ycsb.h"

namespace rocc {
namespace {

// ------------------------------------------------------------ test helpers

/// Minimal blocking HTTP client: connect to 127.0.0.1:port, send `request`
/// verbatim, read until the server closes (Connection: close). Empty string
/// on connect failure.
std::string HttpRoundTrip(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::string();
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::string();
  }
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& target) {
  return HttpRoundTrip(port, "GET " + target +
                                 " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string Post(uint16_t port, const std::string& target,
                 const std::string& body) {
  std::ostringstream req;
  req << "POST " << target << " HTTP/1.1\r\nHost: localhost\r\n"
      << "Content-Length: " << body.size() << "\r\n\r\n"
      << body;
  return HttpRoundTrip(port, req.str());
}

std::string BodyOf(const std::string& response) {
  const size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

/// Structural JSON check: balanced braces/brackets outside strings.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); i++) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') i++;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{' || ch == '[') depth++;
    else if (ch == '}' || ch == ']') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ------------------------------------------------------------- HTTP server

TEST(HttpServer, GoldenRoutesOverRealSocket) {
  obs::HttpServerOptions ho;  // port 0: kernel-assigned, read back below
  obs::HttpServer server(ho);
  TxnStats s;
  s.commits = 1234;
  s.aborts = 5;
  s.abort_scan_conflict = 5;
  server.SetMetricsProvider(
      [&s] { return obs::PrometheusSnapshot(s, "protocol=\"rocc\""); });
  server.SetVarsProvider([] { return std::string("{\"live_run\":false}\n"); });
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  const std::string health = Get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("rocc_txn_commits_total{protocol=\"rocc\"} 1234"),
            std::string::npos);
  EXPECT_NE(metrics.find("reason=\"scan_conflict\"} 5"), std::string::npos);

  const std::string vars = Get(server.port(), "/vars");
  EXPECT_NE(vars.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(vars.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(BodyOf(vars), "{\"live_run\":false}\n");

  EXPECT_NE(Get(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_EQ(server.requests_served(), 4u);
  server.Stop();
}

TEST(HttpServer, RoutesWithoutProvidersAnswer503) {
  obs::HttpServerOptions ho;
  obs::HttpServer server(ho);  // no providers installed
  ASSERT_TRUE(server.Start());
  EXPECT_NE(Get(server.port(), "/metrics").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(Get(server.port(), "/vars").find("HTTP/1.1 503"),
            std::string::npos);
  server.Stop();
}

TEST(HttpServer, PostConfigFlipsKnobsAndRejectsTypos) {
  std::atomic<uint64_t>* cell =
      KnobRegistry::Instance().Register("test_http_knob", 7);
  obs::HttpServerOptions ho;
  obs::HttpServer server(ho);
  ASSERT_TRUE(server.Start());

  // GET /config lists the knob as JSON.
  const std::string listing = Get(server.port(), "/config");
  EXPECT_NE(listing.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(BodyOf(listing).find("\"test_http_knob\":7"), std::string::npos);

  // A valid update applies (comments and blank lines tolerated) and the
  // response echoes the new state.
  const std::string ok = Post(server.port(), "/config",
                              "# tighten for the test\n\ntest_http_knob=42\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(BodyOf(ok).find("applied 1 knob(s)"), std::string::npos);
  EXPECT_NE(BodyOf(ok).find("\"test_http_knob\":42"), std::string::npos);
  EXPECT_EQ(cell->load(std::memory_order_relaxed), 42u);

  // A typo'd name fails the whole request with 400 and names the offender —
  // it must NOT silently create a dead knob.
  const std::string bad =
      Post(server.port(), "/config", "test_http_knob_typo=1\n");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(BodyOf(bad).find("unknown knob: test_http_knob_typo"),
            std::string::npos);
  EXPECT_EQ(KnobRegistry::Instance().Find("test_http_knob_typo"), nullptr);

  // Garbled values 400 too, without disturbing the knob.
  EXPECT_NE(Post(server.port(), "/config", "test_http_knob=banana\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_EQ(cell->load(std::memory_order_relaxed), 42u);
  server.Stop();
}

TEST(HttpServer, TraceCapturesBoundedWindow) {
  obs::HttpServerOptions ho;
  obs::HttpServer server(ho);
  ASSERT_TRUE(server.Start());

  // Without a recorder the route reports 503, not an empty document.
  ASSERT_FALSE(obs::Enabled());
  EXPECT_NE(Get(server.port(), "/trace?ms=1").find("HTTP/1.1 503"),
            std::string::npos);

  obs::ObsOptions oo;
  oo.sample_period = 1;
  oo.max_workers = 2;
  obs::FlightRecorder rec(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(&rec);

  // /trace renders only events arriving AFTER the request: this pre-window
  // event must not appear.
  rec.EmitService(obs::EventType::kSnapshotEvict, 0, 10, 0, 999, 2);

  std::atomic<bool> stop{false};
  std::thread emitter([&rec, &stop] {
    uint64_t ts = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.EmitService(obs::EventType::kWalFlush, 0, ts, 100, 4096, 3);
      ts += 1000;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::string response = Get(server.port(), "/trace?ms=60");
  stop.store(true, std::memory_order_relaxed);
  emitter.join();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string json = BodyOf(response);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("wal_flush"), std::string::npos);
  EXPECT_EQ(json.find("snapshot_evict"), std::string::npos);
  ExpectBalancedJson(json);
  obs::SetRecorder(prev);
  server.Stop();
}

// ---------------------------------------------------------- stall watchdog

TEST(Watchdog, PollOnceAttributesStallsAndDeduplicatesPerDwell) {
  obs::ObsOptions oo;
  oo.max_workers = 4;
  obs::FlightRecorder rec(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(&rec);
  obs::WatchdogOptions wo;
  wo.stall_threshold_ms = 1000;
  obs::StallWatchdog dog(wo);  // no Start(): tests drive PollOnce directly

  constexpr uint64_t kMs = 1000000ULL;
  // Worker 2 entered validate at t=5ms; worker 1 is fresh; worker 3 is idle.
  rec.SetHeartbeat(2, obs::Phase::kValidate, 5 * kMs);
  rec.SetHeartbeat(1, obs::Phase::kExecute, 2000 * kMs);

  // Below threshold: silent.
  EXPECT_EQ(dog.PollOnce(500 * kMs), 0u);
  EXPECT_EQ(dog.stalls_detected(), 0u);

  // Past threshold: exactly one report, attributed to worker 2 in validate
  // with the stall duration in millis. Worker 1's dwell is recent.
  EXPECT_EQ(dog.PollOnce(2005 * kMs), 1u);
  EXPECT_EQ(dog.stalls_detected(), 1u);
  std::vector<obs::TraceEvent> out;
  rec.service_ring().Snapshot(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, static_cast<uint8_t>(obs::EventType::kStall));
  EXPECT_EQ(out[0].detail, static_cast<uint8_t>(obs::Phase::kValidate));
  EXPECT_EQ(out[0].a, 2u);
  EXPECT_EQ(out[0].b, 2000u);
  EXPECT_EQ(out[0].tid, obs::FlightRecorder::kServiceTid);

  // Same dwell on later polls: edge-triggered, no repeat reports. (Worker 1
  // goes idle so its — by then genuinely stale — dwell stays out of frame.)
  rec.ClearHeartbeat(1);
  EXPECT_EQ(dog.PollOnce(3000 * kMs), 0u);
  EXPECT_EQ(dog.PollOnce(4000 * kMs), 0u);
  EXPECT_EQ(dog.stalls_detected(), 1u);

  // Going idle re-arms; a NEW dwell that stalls is reported again.
  rec.ClearHeartbeat(2);
  EXPECT_EQ(dog.PollOnce(5000 * kMs), 0u);
  rec.SetHeartbeat(2, obs::Phase::kLogWait, 5000 * kMs);
  EXPECT_EQ(dog.PollOnce(5100 * kMs), 0u);  // fresh dwell, below threshold
  EXPECT_EQ(dog.PollOnce(6500 * kMs), 1u);
  EXPECT_EQ(dog.stalls_detected(), 2u);

  // watchdog_stall_ms=0 disables detection entirely (hot-reloadable).
  ASSERT_TRUE(KnobRegistry::Instance().Set("watchdog_stall_ms", 0));
  rec.SetHeartbeat(1, obs::Phase::kExecute, 1 * kMs);
  EXPECT_EQ(dog.PollOnce(100000 * kMs), 0u);
  ASSERT_TRUE(KnobRegistry::Instance().Set("watchdog_stall_ms", 1000));
  obs::SetRecorder(prev);
}

TEST(Watchdog, CleanRunStaysSilent) {
  obs::ObsOptions oo;
  oo.sample_period = 1;
  oo.max_workers = 4;
  obs::FlightRecorder rec(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(&rec);
  obs::WatchdogOptions wo;
  wo.period_ms = 5;
  wo.stall_threshold_ms = 60000;  // nothing in a short test run stalls 60s
  obs::StallWatchdog dog(wo);
  dog.Start();  // the real thread, sampling real heartbeats

  Database db;
  YcsbOptions opts;
  opts.num_rows = 5000;
  YcsbWorkload wl(opts);
  wl.Load(&db);
  auto cc = CreateProtocol("rocc", &db, wl, 4);
  RunOptions run;
  run.num_threads = 4;
  run.txns_per_thread = 200;
  run.warmup_txns_per_thread = 20;
  run.mode = ExecMode::kFibers;
  const RunResult r = RunExperiment(cc.get(), &wl, run);
  dog.Stop();
  obs::SetRecorder(prev);

  EXPECT_GT(r.stats.commits, 0u);
  EXPECT_EQ(dog.stalls_detected(), 0u);  // the CI assertable invariant
}

// ------------------------------------------------------ SLO outlier capture

TEST(SloCapture, DeterministicWithSamplingOff) {
  // sample_period = 0: the 1/N sampler never fires, so every span in the
  // rings can only come from the forced outlier path. slo_us = 1 makes every
  // attempt a violation; the test asserts 1:1 correspondence between the
  // accounting matrix and the ring events — deterministic 100% capture.
  obs::ObsOptions oo;
  oo.sample_period = 0;
  oo.slo_us = 1;
  oo.ring_capacity = 1u << 13;
  oo.max_workers = 4;
  auto rec = std::make_unique<obs::FlightRecorder>(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(rec.get());

  Database db;
  YcsbOptions opts;
  opts.num_rows = 10000;
  YcsbWorkload wl(opts);
  wl.Load(&db);
  auto cc = CreateProtocol("rocc", &db, wl, 4);
  RunOptions run;
  run.num_threads = 4;
  run.txns_per_thread = 200;
  run.warmup_txns_per_thread = 0;  // rings must hold ONLY measured attempts
  run.mode = ExecMode::kFibers;
  const RunResult r = RunExperiment(cc.get(), &wl, run);
  obs::SetRecorder(prev);

  ASSERT_GT(r.stats.commits, 0u);
  const uint64_t total = r.stats.SloViolationTotal();
  EXPECT_GT(total, 0u);
  EXPECT_EQ(r.stats.latency_slo.count(), total);

  uint64_t violations = 0, outlier_spans = 0, sampled_spans = 0;
  rec->ForEachEvent([&](const obs::TraceEvent& e) {
    if (static_cast<obs::EventType>(e.type) == obs::EventType::kSloViolation) {
      violations++;
    } else if (static_cast<obs::EventType>(e.type) == obs::EventType::kSpan) {
      if ((e.detail & obs::kOutlierFlag) != 0) {
        outlier_spans++;
      } else if (e.detail < TxnStats::kNumSloPhases) {
        // Commit-pipeline spans can only come from the 1/N sampler, which is
        // off; only the retry layer's always-on spans (gate waits) may
        // appear unflagged.
        sampled_spans++;
      }
    }
  });
  // No ring wrapped (capacity >> events per worker), so the counts are
  // exact: one kSloViolation event per counted violation, at least one
  // forced span per violation, and zero sampled pipeline spans.
  for (uint32_t tid = 0; tid < run.num_threads; tid++) {
    ASSERT_LE(rec->worker_ring(tid).head(), rec->worker_ring(tid).capacity());
  }
  EXPECT_EQ(violations, total);
  EXPECT_GE(outlier_spans, total);
  EXPECT_EQ(sampled_spans, 0u);
}

TEST(SloCapture, OffByDefaultLeavesNoTrace) {
  obs::ObsOptions oo;
  oo.sample_period = 0;  // slo_us left 0: both capture paths off
  oo.max_workers = 2;
  auto rec = std::make_unique<obs::FlightRecorder>(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(rec.get());
  Database db;
  YcsbOptions opts;
  opts.num_rows = 5000;
  YcsbWorkload wl(opts);
  wl.Load(&db);
  auto cc = CreateProtocol("rocc", &db, wl, 2);
  RunOptions run;
  run.num_threads = 2;
  run.txns_per_thread = 100;
  run.warmup_txns_per_thread = 0;
  run.mode = ExecMode::kFibers;
  const RunResult r = RunExperiment(cc.get(), &wl, run);
  obs::SetRecorder(prev);
  EXPECT_GT(r.stats.commits, 0u);
  EXPECT_EQ(r.stats.SloViolationTotal(), 0u);
  for (uint32_t tid = 0; tid < run.num_threads; tid++) {
    EXPECT_EQ(rec->worker_ring(tid).head(), 0u);
  }
}

// --------------------------------------------------------- SIGUSR1 dump path

TEST(SignalDump, DumpRacesLiveAppendsAndStaysValidJson) {
  obs::ObsOptions oo;
  oo.sample_period = 1;
  oo.max_workers = 2;
  obs::FlightRecorder rec(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(&rec);
  const std::string path = ::testing::TempDir() + "/sigusr1_trace.json";
  std::remove(path.c_str());
  obs::InstallSignalDump(path);

  // An emitter hammers the service ring while the handler (no drainer
  // registered -> direct, allocation-free dump) renders it mid-run.
  std::atomic<bool> stop{false};
  std::thread emitter([&rec, &stop] {
    uint64_t ts = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.EmitService(obs::EventType::kWalFlush, 0, ts, 10, 512, 1);
      ts += 10;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(::raise(SIGUSR1), 0);
  stop.store(true, std::memory_order_relaxed);
  emitter.join();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "handler did not write " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("wal_flush"), std::string::npos);
  ExpectBalancedJson(json);
  std::remove(path.c_str());
  obs::SetRecorder(prev);
}

TEST(SignalDump, DrainerDefersHandlerToFlagStore) {
  obs::ObsOptions oo;
  oo.sample_period = 1;
  oo.max_workers = 2;
  obs::FlightRecorder rec(oo);
  obs::FlightRecorder* prev = obs::SetRecorder(&rec);
  rec.EmitService(obs::EventType::kSnapshotEvict, 0, 100, 0, 2, 8);
  const std::string path = ::testing::TempDir() + "/sigusr1_deferred.json";
  std::remove(path.c_str());
  obs::InstallSignalDump(path);

  // With a drainer registered the handler is a single flag store: no file
  // appears until the drainer runs (the watchdog thread, in production).
  obs::RegisterSignalDumpDrainer();
  ASSERT_EQ(::raise(SIGUSR1), 0);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_TRUE(obs::DrainPendingSignalDump());
  EXPECT_FALSE(obs::DrainPendingSignalDump());  // flag consumed
  obs::UnregisterSignalDumpDrainer();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("snapshot_evict"), std::string::npos);
  ExpectBalancedJson(buf.str());
  std::remove(path.c_str());
  obs::SetRecorder(prev);
}

// ----------------------------------------------------------------- knobs

TEST(Knobs, RegistrySemantics) {
  KnobRegistry& reg = KnobRegistry::Instance();
  std::atomic<uint64_t>* cell = reg.Register("test_knob_semantics", 11);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->load(), 11u);
  // Re-registering re-arms to the NEW initial and returns the same cell:
  // the latest constructor's configuration wins over stale overrides.
  reg.Set("test_knob_semantics", 99);
  EXPECT_EQ(reg.Register("test_knob_semantics", 12), cell);
  EXPECT_EQ(cell->load(), 12u);
  // Unknown names are rejected, never auto-created.
  EXPECT_FALSE(reg.Set("test_knob_never_registered", 1));
  uint64_t v = 0;
  EXPECT_TRUE(reg.Get("test_knob_semantics", &v));
  EXPECT_EQ(v, 12u);
}

TEST(Knobs, ConcurrentSetAndHotReadAreRaceFree) {
  // TSan target: POST /config release-stores while a hot path relaxed-loads
  // the same cell. Atomics make this race-free by construction; the test
  // pins that property into the TSan CI matrix.
  std::atomic<uint64_t>* cell =
      KnobRegistry::Instance().Register("test_knob_concurrent", 0);
  std::atomic<bool> stop{false};
  uint64_t sink = 0;
  std::thread reader([cell, &stop, &sink] {
    while (!stop.load(std::memory_order_relaxed)) {
      sink += cell->load(std::memory_order_relaxed);  // the hot-path read
    }
  });
  for (uint64_t i = 1; i <= 20000; i++) {
    ASSERT_TRUE(KnobRegistry::Instance().Set("test_knob_concurrent", i));
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(cell->load(), 20000u);
  EXPECT_GE(sink, 0u);  // keep the reader's loads observable
}

}  // namespace
}  // namespace rocc
