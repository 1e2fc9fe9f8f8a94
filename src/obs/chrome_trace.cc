#include "obs/chrome_trace.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "harness/stats.h"

namespace rocc {
namespace obs {

namespace {

/// Buffered fd writer built on open/write + stack buffers only, so the
/// SIGUSR1 dump path performs no allocation and takes no stdio locks.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}
  ~FdWriter() { Flush(); }

  void Append(const char* data, size_t n) {
    if (!ok_) return;
    if (len_ + n > sizeof(buf_)) Flush();
    if (n > sizeof(buf_)) {
      WriteAll(data, n);  // oversized chunk: bypass the buffer
      return;
    }
    std::memcpy(buf_ + len_, data, n);
    len_ += n;
  }

  void Flush() {
    if (len_ > 0) WriteAll(buf_, len_);
    len_ = 0;
  }

  bool ok() const { return ok_; }

 private:
  void WriteAll(const char* data, size_t n) {
    while (n > 0 && ok_) {
      const ssize_t w = ::write(fd_, data, n);
      if (w <= 0) {
        ok_ = false;
        return;
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
  }

  int fd_;
  size_t len_ = 0;
  bool ok_ = true;
  char buf_[1 << 16];
};

/// std::string writer with the same surface as FdWriter, for the HTTP
/// /trace endpoint (ordinary thread context — allocation is fine there).
class StringWriter {
 public:
  explicit StringWriter(std::string* out) : out_(out) {}
  void Append(const char* data, size_t n) { out_->append(data, n); }
  bool ok() const { return true; }

 private:
  std::string* out_;
};

template <typename W>
void Str(W& w, const char* s) {
  w.Append(s, std::strlen(s));
}

/// printf into a stack buffer, then hand to the writer. Every format string
/// in this file uses only %s/%u/%llu conversions: vsnprintf floating-point
/// conversion can malloc in some libc implementations (arbitrary-precision
/// digit generation), which would break the SIGUSR1 path, so timestamps are
/// pre-split into integer microseconds + a 3-digit nanosecond remainder and
/// printed as "%llu.%03llu" instead of "%.3f".
template <typename W>
__attribute__((format(printf, 2, 3))) void Printf(W& w, const char* fmt, ...) {
  char tmp[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(tmp, sizeof(tmp), fmt, ap);
  va_end(ap);
  if (n > 0) w.Append(tmp, std::min<size_t>(static_cast<size_t>(n), sizeof(tmp) - 1));
}

using ull = unsigned long long;

/// Microsecond part of a nanosecond delta, for "%llu.%03llu" rendering.
constexpr ull UsWhole(uint64_t ns) { return static_cast<ull>(ns / 1000); }
constexpr ull UsFrac(uint64_t ns) { return static_cast<ull>(ns % 1000); }

template <typename W>
void EmitEvent(W& w, const TraceEvent& e, uint64_t base_ns, bool* first) {
  const uint64_t rel_ns = e.ts_ns >= base_ns ? e.ts_ns - base_ns : 0;
  const unsigned tid = e.tid;
  if (!*first) Str(w, ",\n");
  *first = false;
  switch (static_cast<EventType>(e.type)) {
    case EventType::kSpan:
      if ((e.detail & kOutlierFlag) != 0) {
        // Retroactively force-emitted because the attempt blew the SLO while
        // unsampled (§16.2); flagged so a Perfetto query can separate forced
        // outlier spans from the 1/N-sampled population.
        Printf(w,
               "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
               "\"cat\":\"phase\",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
               "\"args\":{\"txn\":%llu,\"outlier\":1}}",
               tid,
               PhaseName(static_cast<Phase>(e.detail &
                                            static_cast<uint8_t>(~kOutlierFlag))),
               UsWhole(rel_ns), UsFrac(rel_ns), UsWhole(e.dur_ns),
               UsFrac(e.dur_ns), static_cast<ull>(e.a));
      } else {
        Printf(w,
               "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
               "\"cat\":\"phase\",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
               "\"args\":{\"txn\":%llu}}",
               tid, PhaseName(static_cast<Phase>(e.detail)), UsWhole(rel_ns),
               UsFrac(rel_ns), UsWhole(e.dur_ns), UsFrac(e.dur_ns),
               static_cast<ull>(e.a));
      }
      break;
    case EventType::kTxnBegin:
    case EventType::kTxnCommit:
      Printf(w,
             "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
             "\"cat\":\"txn\",\"ts\":%llu.%03llu,"
             "\"args\":{\"txn\":%llu,\"scan\":%u}}",
             tid, EventTypeName(static_cast<EventType>(e.type)),
             UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a), e.detail);
      break;
    case EventType::kTxnAbort:
      // The structured cause plus the conflicting range id (when a scan
      // validation attributed one) ride in args for Perfetto queries.
      if (e.b == kNoRange) {
        Printf(w,
               "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,"
               "\"name\":\"abort\",\"cat\":\"txn\",\"ts\":%llu.%03llu,"
               "\"args\":{\"txn\":%llu,\"reason\":\"%s\"}}",
               tid, UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a),
               AbortReasonName(static_cast<AbortReason>(e.detail)));
      } else {
        Printf(w,
               "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,"
               "\"name\":\"abort\",\"cat\":\"txn\",\"ts\":%llu.%03llu,"
               "\"args\":{\"txn\":%llu,\"reason\":\"%s\",\"range\":%u}}",
               tid, UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a),
               AbortReasonName(static_cast<AbortReason>(e.detail)), e.b);
      }
      break;
    case EventType::kWalFlush:
      Printf(w,
             "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"wal_flush\","
             "\"cat\":\"log\",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
             "\"args\":{\"bytes\":%llu,\"epoch\":%u}}",
             tid, UsWhole(rel_ns), UsFrac(rel_ns), UsWhole(e.dur_ns),
             UsFrac(e.dur_ns), static_cast<ull>(e.a), e.b);
      break;
    case EventType::kSnapshotScan:
      Printf(w,
             "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"snapshot_scan\","
             "\"cat\":\"mv\",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
             "\"args\":{\"records\":%llu,\"chain_reads\":%u}}",
             tid, UsWhole(rel_ns), UsFrac(rel_ns), UsWhole(e.dur_ns),
             UsFrac(e.dur_ns), static_cast<ull>(e.a), e.b);
      break;
    case EventType::kVersionInstall:
    case EventType::kVersionGc:
    case EventType::kSnapshotEvict:
      Printf(w,
             "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
             "\"cat\":\"mv\",\"ts\":%llu.%03llu,\"args\":{\"a\":%llu,\"b\":%u}}",
             tid, EventTypeName(static_cast<EventType>(e.type)),
             UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a), e.b);
      break;
    case EventType::kStall:
      // Watchdog attribution: a = stuck worker id, detail = its phase,
      // b = how long it had been there (ms) when the watchdog fired.
      Printf(w,
             "{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":%u,"
             "\"name\":\"stall\",\"cat\":\"watchdog\",\"ts\":%llu.%03llu,"
             "\"args\":{\"worker\":%llu,\"phase\":\"%s\",\"ms\":%u}}",
             tid, UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a),
             PhaseName(static_cast<Phase>(e.detail)), e.b);
      break;
    case EventType::kSloViolation:
      Printf(w,
             "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,"
             "\"name\":\"slo_violation\",\"cat\":\"slo\",\"ts\":%llu.%03llu,"
             "\"args\":{\"txn\":%llu,\"us\":%u,\"slowest\":\"%s\","
             "\"reason\":\"%s\"}}",
             tid, UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a), e.b,
             PhaseName(SloDetailPhase(e.detail)),
             AbortReasonName(
                 static_cast<AbortReason>(SloDetailReason(e.detail))));
      break;
    case EventType::kGateEnter:
    case EventType::kGateExit:
    default:
      Printf(w,
             "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
             "\"cat\":\"control\",\"ts\":%llu.%03llu,"
             "\"args\":{\"a\":%llu,\"b\":%u}}",
             tid, EventTypeName(static_cast<EventType>(e.type)),
             UsWhole(rel_ns), UsFrac(rel_ns), static_cast<ull>(e.a), e.b);
      break;
  }
}

/// Shared trace-document body: header, track-name metadata, events, footer.
/// `for_each` is called once with a per-event callback.
template <typename W, typename ForEach>
void RenderTrace(W& w, const FlightRecorder& recorder, ForEach&& for_each) {
  // Pass 1: earliest timestamp, so exported times start near zero.
  uint64_t base_ns = ~0ULL;
  for_each([&](const TraceEvent& e) {
    if (e.ts_ns != 0 && e.ts_ns < base_ns) base_ns = e.ts_ns;
  });
  if (base_ns == ~0ULL) base_ns = 0;

  Str(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  // Track-naming metadata: one row per worker ring that saw events, plus the
  // control-plane track. Under the fiber runner, worker ids are fiber ids —
  // this is exactly the synthetic-tid mapping that makes 40 fibers on one OS
  // thread render as 40 parallel tracks.
  for (uint32_t tid = 0; tid < recorder.num_workers(); tid++) {
    if (recorder.worker_ring(tid).head() == 0) continue;
    if (!first) Str(w, ",\n");
    first = false;
    Printf(w,
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"worker %u\"}}",
           tid, tid);
  }
  if (recorder.service_ring().head() != 0) {
    if (!first) Str(w, ",\n");
    first = false;
    Printf(w,
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"control\"}}",
           static_cast<unsigned>(FlightRecorder::kServiceTid));
  }
  // Pass 2: the events. Perfetto does not require global timestamp order.
  for_each([&](const TraceEvent& e) { EmitEvent(w, e, base_ns, &first); });
  Str(w, "\n]}\n");
}

// --- SIGUSR1 dump-on-signal state; all fixed storage / lock-free so the
// handler never allocates. ---

char g_signal_dump_path[512] = {0};

/// Latched by the handler when a drainer thread is registered; that thread
/// performs the dump from ordinary context (the conservative path — the
/// handler then does nothing but one relaxed store).
std::atomic<bool> g_dump_pending{false};
std::atomic<int> g_dump_drainers{0};

void SignalDumpHandler(int) {
  if (g_dump_drainers.load(std::memory_order_relaxed) > 0) {
    g_dump_pending.store(true, std::memory_order_release);
    return;
  }
  // No drainer (bench without a watchdog): dump inline, best effort. The
  // writer is allocation-free and stdio-lock-free by construction.
  FlightRecorder* r = Recorder();
  if (r == nullptr || g_signal_dump_path[0] == '\0') return;
  WriteChromeTrace(*r, g_signal_dump_path);
}

}  // namespace

bool WriteChromeTrace(const FlightRecorder& recorder, const char* path) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  FdWriter w(fd);
  RenderTrace(w, recorder, [&recorder](auto&& fn) {
    recorder.ForEachEvent(fn);
  });
  w.Flush();
  const bool ok = w.ok();
  ::close(fd);
  return ok;
}

void RenderChromeTraceWindow(const FlightRecorder& recorder,
                             const std::vector<uint64_t>& from_cursors,
                             std::string* out) {
  StringWriter w(out);
  // Bound the window to the ring heads as of entry, so a capture racing live
  // writers terminates even if workers outrun the renderer.
  const uint32_t n = recorder.num_workers();
  RenderTrace(w, recorder, [&](auto&& fn) {
    for (uint32_t tid = 0; tid < n; tid++) {
      const uint64_t from = tid < from_cursors.size() ? from_cursors[tid] : 0;
      recorder.worker_ring(tid).ForEachFrom(from, fn);
    }
    const uint64_t sfrom =
        from_cursors.size() > n ? from_cursors[n] : 0;
    recorder.service_ring().ForEachFrom(sfrom, fn);
  });
}

void InstallSignalDump(const std::string& path) {
  std::snprintf(g_signal_dump_path, sizeof(g_signal_dump_path), "%s",
                path.c_str());
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = SignalDumpHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &sa, nullptr);
}

void RegisterSignalDumpDrainer() {
  g_dump_drainers.fetch_add(1, std::memory_order_relaxed);
}

void UnregisterSignalDumpDrainer() {
  g_dump_drainers.fetch_sub(1, std::memory_order_relaxed);
}

bool DrainPendingSignalDump() {
  if (!g_dump_pending.exchange(false, std::memory_order_acquire)) return false;
  FlightRecorder* r = Recorder();
  if (r == nullptr || g_signal_dump_path[0] == '\0') return false;
  return WriteChromeTrace(*r, g_signal_dump_path);
}

}  // namespace obs
}  // namespace rocc
