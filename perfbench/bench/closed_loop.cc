#include "bench/closed_loop.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

#include "common/timer.h"
#include "common/zipfian.h"
#include "bench/traced_cc.h"

namespace perfbench {

namespace {

// One sample per claimed transaction: wall ns in the low 30 bits (a
// transaction longer than 1.07 s is clamped, which can only understate an
// extreme tail), then the committed and bulk flags.
constexpr uint32_t kBulkBit = 1u << 31;
constexpr uint32_t kOkBit = 1u << 30;
constexpr uint32_t kNsMask = kOkBit - 1;

// Logical transactions claimed per counter increment: keeps the shared
// counter's cache line out of the per-transaction path, and 16 four-byte
// samples fill exactly one cache line of the shared sample array.
constexpr uint64_t kClaimBatch = 16;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

// Aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal. Zeros when unreadable (the share then reads 0).
CpuTicks ReadCpuTicks() {
  CpuTicks out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  for (int i = 0; i < 8; i++) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

struct alignas(64) Worker {
  rocc::TxnStats warm;
  rocc::TxnStats measured;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t committed_bulk = 0;
  uint64_t calls = 0;
  uint64_t gave_up = 0;
  uint64_t bad_status = 0;
};

struct Mark {
  uint64_t wall_ns = 0;
  double cpu_s = 0;
};

// Runs one logical transaction and classifies its outcome through the
// worker's own sink: a bulk transaction's attempts bump the scan_txn
// counters, a give-up bumps give_ups.
//
// A RunTxn call that spends its retry budget (a give-up) is counted, and the
// same logical transaction is submitted again with the RNG state it started
// from, so the plan is the same, as a client does after a retryable abort.
// The engine gives up only when a conflicting attempt stalls through the
// whole budget, as when the host preempts a vCPU whose thread holds row
// locks, so give-ups follow host load; resubmitting keeps every claimed
// transaction in the run while committed_share still counts each give-up.
struct Outcome {
  uint64_t ns = 0;        ///< first submission's start to the last one's end
  uint32_t calls = 0;     ///< RunTxn calls (submissions)
  uint32_t give_ups = 0;  ///< calls that ended with the retry budget spent
  bool bulk = false;
  bool ok = false;
  bool bad = false;       ///< a call ended neither OK nor in a give-up
};

Outcome RunOne(rocc::ConcurrencyControl* cc, rocc::Workload* workload,
               TracedCc* traced, uint32_t tid, rocc::Rng& rng,
               const rocc::TxnStats& sink) {
  const uint64_t scan_before = sink.scan_txn_commits + sink.scan_txn_aborts;
  const rocc::Rng plan_state = rng;
  Outcome o;
  if (traced != nullptr) traced->TxnStart(tid);
  const uint64_t start = rocc::NowNanos();
  while (o.calls < kMaxSubmissions) {
    if (o.calls != 0) rng = plan_state;
    const uint64_t give_ups_before = sink.give_ups;
    const rocc::Status st = workload->RunTxn(cc, tid, rng);
    o.calls++;
    if (st.ok()) {
      o.ok = true;
      break;
    }
    if (!st.aborted() || sink.give_ups != give_ups_before + 1) {
      o.bad = true;
      break;
    }
    o.give_ups++;
  }
  o.ns = rocc::NowNanos() - start;
  o.bulk = sink.scan_txn_commits + sink.scan_txn_aborts != scan_before;
  return o;
}

}  // namespace

LoopResult RunClosedLoop(rocc::ConcurrencyControl* cc, rocc::Workload* workload,
                         const LoopOptions& options) {
  const uint32_t n = options.workers;
  const uint64_t txns = options.txns;
  // At least one claim batch per slice keeps every boundary distinct.
  const uint32_t num_slices = static_cast<uint32_t>(std::clamp<uint64_t>(
      options.slices, 1, std::max<uint64_t>(txns / kClaimBatch, 1)));
  std::vector<Worker> workers(n);
  std::vector<uint32_t> samples(txns);
  // Slice k covers claims [first[k], first[k + 1]); boundaries fall on claim
  // batches so exactly one worker meets each of them. The window opening
  // marks slice 0, the last worker to finish closes the last slice.
  std::vector<uint64_t> first(num_slices + 1);
  for (uint32_t k = 0; k <= num_slices; k++) {
    first[k] = k == num_slices
                   ? txns
                   : txns * k / num_slices / kClaimBatch * kClaimBatch;
  }
  std::vector<Mark> marks(num_slices + 1);

  std::atomic<uint64_t> warm_next{0};
  std::atomic<uint64_t> next{0};
  std::atomic<uint32_t> finished{0};
  CpuTicks ticks_start, ticks_end;

  // Generators may be built during setup and warm-up, never in the window.
  rocc::ZipfianGenerator::MarkZetaCacheWarm(false);
  auto open_window = [&]() noexcept {
    rocc::ZipfianGenerator::MarkZetaCacheWarm();
    if (options.traced != nullptr) options.traced->Reset();
    if (options.on_window_start) options.on_window_start();
    ticks_start = ReadCpuTicks();
    marks[0].cpu_s = ProcessCpuSeconds();
    marks[0].wall_ns = rocc::NowNanos();
  };
  std::barrier start_barrier(static_cast<std::ptrdiff_t>(n), open_window);

  auto body = [&](uint32_t tid) {
    Worker& w = workers[tid];
    rocc::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + tid + 1);
    cc->AttachThread(tid, &w.warm);
    for (;;) {
      const uint64_t begin = warm_next.fetch_add(kClaimBatch);
      if (begin >= options.warmup_txns) break;
      const uint64_t end = std::min(begin + kClaimBatch, options.warmup_txns);
      for (uint64_t i = begin; i < end; i++) {
        const Outcome o = RunOne(cc, workload, options.traced, tid, rng, w.warm);
        if (o.bad) w.bad_status++;
      }
    }
    cc->AttachThread(tid, &w.measured);
    start_barrier.arrive_and_wait();
    uint32_t slice = 0;
    for (;;) {
      const uint64_t begin = next.fetch_add(kClaimBatch);
      if (begin >= txns) break;
      while (slice + 1 < num_slices && first[slice + 1] <= begin) slice++;
      if (slice > 0 && begin == first[slice]) {
        marks[slice].cpu_s = ProcessCpuSeconds();
        marks[slice].wall_ns = rocc::NowNanos();
      }
      const uint64_t end = std::min(begin + kClaimBatch, txns);
      for (uint64_t i = begin; i < end; i++) {
        const Outcome o =
            RunOne(cc, workload, options.traced, tid, rng, w.measured);
        w.attempted++;
        w.calls += o.calls;
        w.gave_up += o.give_ups;
        if (o.ok) {
          w.committed++;
          if (o.bulk) w.committed_bulk++;
        }
        if (o.bad) w.bad_status++;
        samples[i] = static_cast<uint32_t>(std::min<uint64_t>(o.ns, kNsMask)) |
                     (o.ok ? kOkBit : 0) | (o.bulk ? kBulkBit : 0);
      }
    }
    if (finished.fetch_add(1) + 1 == n) {
      marks[num_slices].wall_ns = rocc::NowNanos();
      marks[num_slices].cpu_s = ProcessCpuSeconds();
      ticks_end = ReadCpuTicks();
      if (options.on_window_end) options.on_window_end();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (uint32_t tid = 0; tid < n; tid++) threads.emplace_back(body, tid);
  for (std::thread& t : threads) t.join();
  // The sinks die with this frame: point the protocol back at its own.
  for (uint32_t tid = 0; tid < n; tid++) cc->AttachThread(tid, nullptr);

  LoopResult r;
  r.window_s =
      static_cast<double>(marks[num_slices].wall_ns - marks[0].wall_ns) * 1e-9;
  r.cpu_s = marks[num_slices].cpu_s - marks[0].cpu_s;
  const uint64_t dtotal = ticks_end.total - ticks_start.total;
  r.steal_share =
      dtotal == 0 ? 0
                  : static_cast<double>(ticks_end.steal - ticks_start.steal) /
                        static_cast<double>(dtotal);
  for (Worker& w : workers) {
    r.stats.Merge(w.measured);
    r.warmup_stats.Merge(w.warm);
    r.attempted += w.attempted;
    r.committed += w.committed;
    r.committed_bulk += w.committed_bulk;
    r.calls += w.calls;
    r.gave_up += w.gave_up;
    r.bad_status += w.bad_status;
  }
  // The buffer is the only copy of the samples: within each slice, count the
  // commits, move the bulk samples behind the OLTP ones and strip the flags.
  r.slices.resize(num_slices);
  for (uint32_t k = 0; k < num_slices; k++) {
    Slice& s = r.slices[k];
    s.wall_s = static_cast<double>(marks[k + 1].wall_ns - marks[k].wall_ns) * 1e-9;
    s.cpu_s = marks[k + 1].cpu_s - marks[k].cpu_s;
    s.begin = first[k];
    s.end = first[k + 1];
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(s.begin);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>(s.end);
    const auto bulk = std::partition(
        begin, end, [](uint32_t v) { return (v & kBulkBit) == 0; });
    s.bulk = static_cast<uint64_t>(bulk - samples.begin());
    for (auto it = begin; it != end; ++it) {
      if (*it & kOkBit) s.committed++;
      *it &= kNsMask;
      r.txn_ns_total += *it;
    }
  }
  r.samples = std::move(samples);
  return r;
}

std::optional<Percentile> TakePercentile(std::span<uint32_t> samples,
                                         double q) {
  const uint64_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it.
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<uint64_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return Percentile{*nth, n, n - rank};
}

}  // namespace perfbench
