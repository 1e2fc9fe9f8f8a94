#include "harness/runner.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common/tsan.h"

#include "cc/hyper_gwv.h"
#include "cc/mvrcc.h"
#include "cc/silo_lrv.h"
#include "cc/two_phase_locking.h"
#include "common/fiber.h"
#include "common/latch.h"
#include "common/zipfian.h"
#include "harness/coop_cc.h"
#include "common/timer.h"
#include "core/rocc.h"

namespace rocc {

namespace {

// Live-stats plumbing: while an experiment runs, its per-worker sinks are
// published here so an observer thread (the HTTP /vars handler) can merge
// them mid-run. The mutex only guards the POINTERS (install/remove vs.
// collect); the sink contents are read racily by design.
std::mutex g_live_mu;
const std::vector<TxnStats>* g_live_warm = nullptr;
const std::vector<TxnStats>* g_live_measured = nullptr;

/// RAII installer; the experiment's stack vectors outlive the scope.
class LiveStatsScope {
 public:
  LiveStatsScope(const std::vector<TxnStats>* warm,
                 const std::vector<TxnStats>* measured) {
    std::lock_guard<std::mutex> g(g_live_mu);
    g_live_warm = warm;
    g_live_measured = measured;
  }
  ~LiveStatsScope() {
    std::lock_guard<std::mutex> g(g_live_mu);
    g_live_warm = nullptr;
    g_live_measured = nullptr;
  }
};

/// Honest-accounting invariant: every aborted attempt carries exactly one
/// structured cause, so the abort_* counters sum to `aborts` (debug builds).
void CheckAbortAccounting(const TxnStats& s) {
  assert(s.AbortCauseSum() == s.aborts &&
         "abort cause counters must sum to aborts");
  (void)s;
}

/// All workers as fibers on one OS thread, interleaved at operation
/// granularity through CoopYieldCc (see common/fiber.h for why).
RunResult RunFiberExperiment(ConcurrencyControl* cc, Workload* workload,
                             const RunOptions& options) {
  const uint32_t n = options.num_threads;
  std::vector<TxnStats> warm_stats(n);
  std::vector<TxnStats> stats(n);
  LiveStatsScope live(&warm_stats, &stats);
  CoopYieldCc coop(cc);  // non-owning: yield points around every operation
  // Make validation work visible as exposure time (see SetValidationPacing):
  // roughly one yield per "operation's worth" of validation.
  cc->SetValidationPacing(options.validation_pacing);

  FiberScheduler scheduler;
  FiberBarrier loaded(n), warmed(n), measure_start(n), measure_end(n);
  for (uint32_t tid = 0; tid < n; tid++) {
    scheduler.Spawn([&, tid] {
      Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + tid + 1);
      cc->AttachThread(tid, &warm_stats[tid]);
      loaded.Wait();
      for (uint64_t i = 0; i < options.warmup_txns_per_thread; i++) {
        workload->RunTxn(&coop, tid, rng);
      }
      warmed.Wait();
      ZipfianGenerator::MarkZetaCacheWarm();  // idempotent across workers
      cc->AttachThread(tid, &stats[tid]);
      measure_start.Wait();
      for (uint64_t i = 0; i < options.txns_per_thread; i++) {
        workload->RunTxn(&coop, tid, rng);
      }
      measure_end.Wait();
    });
  }
  scheduler.Run();

  RunResult result;
  result.seconds = static_cast<double>(measure_end.completion_nanos() -
                                       measure_start.completion_nanos()) *
                   1e-9;
  result.total_txns = static_cast<uint64_t>(n) * options.txns_per_thread;
  for (const TxnStats& s : stats) result.stats.Merge(s);
  CheckAbortAccounting(result.stats);
  return result;
}

RunResult RunThreadExperiment(ConcurrencyControl* cc, Workload* workload,
                              const RunOptions& options) {
  const uint32_t n = options.num_threads;
  std::vector<TxnStats> warm_stats(n);
  std::vector<TxnStats> stats(n);
  SpinBarrier barrier(n + 1);  // workers + the coordinating thread
  LiveStatsScope live(&warm_stats, &stats);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (uint32_t tid = 0; tid < n; tid++) {
    workers.emplace_back([&, tid] {
      Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + tid + 1);
      cc->AttachThread(tid, &warm_stats[tid]);
      barrier.Wait();  // (1) everyone loaded
      for (uint64_t i = 0; i < options.warmup_txns_per_thread; i++) {
        workload->RunTxn(cc, tid, rng);
      }
      barrier.Wait();  // (2) warmup done
      ZipfianGenerator::MarkZetaCacheWarm();  // idempotent across workers
      cc->AttachThread(tid, &stats[tid]);
      barrier.Wait();  // (3) measured region starts
      for (uint64_t i = 0; i < options.txns_per_thread; i++) {
        workload->RunTxn(cc, tid, rng);
      }
      barrier.Wait();  // (4) measured region ends
    });
  }

  barrier.Wait();  // (1)
  barrier.Wait();  // (2)
  Stopwatch watch;
  barrier.Wait();  // (3)
  watch.Restart();
  barrier.Wait();  // (4)
  const double seconds = watch.ElapsedSeconds();

  for (auto& w : workers) w.join();

  RunResult result;
  result.seconds = seconds;
  result.total_txns = static_cast<uint64_t>(n) * options.txns_per_thread;
  for (const TxnStats& s : stats) result.stats.Merge(s);
  CheckAbortAccounting(result.stats);
  return result;
}

}  // namespace

TxnStats CollectLiveStats() {
  TxnStats out;
  std::lock_guard<std::mutex> g(g_live_mu);
  TsanIgnoreReadsBegin();
  if (g_live_warm != nullptr) {
    for (const TxnStats& s : *g_live_warm) out.Merge(s);
  }
  if (g_live_measured != nullptr) {
    for (const TxnStats& s : *g_live_measured) out.Merge(s);
  }
  TsanIgnoreReadsEnd();
  return out;
}

bool LiveRunActive() {
  std::lock_guard<std::mutex> g(g_live_mu);
  return g_live_measured != nullptr;
}

RunResult RunExperiment(ConcurrencyControl* cc, Workload* workload,
                        const RunOptions& options) {
  // A new experiment may legitimately build generators for new (n, theta)
  // pairs during its setup and warm-up; only the measured region is
  // construction-free.
  ZipfianGenerator::MarkZetaCacheWarm(false);
  if (options.log != nullptr) cc->AttachLog(options.log);
  bool fibers;
  switch (options.mode) {
    case ExecMode::kThreads:
      fibers = false;
      break;
    case ExecMode::kFibers:
      fibers = true;
      break;
    case ExecMode::kAuto:
    default: {
      // Workers beyond the host's real parallelism would be timesliced at
      // millisecond granularity; simulate fine-grained interleaving instead.
      // hardware_concurrency() == 0 means "unknown", not "zero cores":
      // default to real threads and say so once instead of silently forcing
      // every run through the fiber simulator.
      const uint32_t hw = std::thread::hardware_concurrency();
      if (hw == 0) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
          std::fprintf(stderr,
                       "[runner] hardware concurrency unknown; running %u "
                       "workers as OS threads\n",
                       options.num_threads);
        }
        fibers = false;
      } else {
        fibers = options.num_threads > hw;
      }
      break;
    }
  }
  return fibers ? RunFiberExperiment(cc, workload, options)
                : RunThreadExperiment(cc, workload, options);
}

std::unique_ptr<ConcurrencyControl> CreateProtocol(
    const std::string& name_in, Database* db, const Workload& workload,
    uint32_t num_threads, uint32_t ranges_hint, uint32_t ring_capacity,
    bool rocc_register_writes) {
  std::string name = name_in;
  const bool mvcc =
      name.size() > 3 && name.compare(name.size() - 3, 3, "+mv") == 0;
  if (mvcc) name.resize(name.size() - 3);
  const auto finish = [mvcc](std::unique_ptr<ConcurrencyControl> cc) {
    if (mvcc && !cc->EnableMvcc()) {
      std::fprintf(stderr,
                   "warning: protocol does not support the multi-version row "
                   "store; snapshot scans fall back to ordinary scans\n");
    }
    return cc;
  };
  if (name == "lrv" || name == "LRV" || name == "silo") {
    return finish(std::make_unique<SiloLrv>(db, num_threads));
  }
  if (name == "gwv" || name == "GWV" || name == "hyper") {
    GwvOptions opts;
    opts.global_ring_capacity = std::max<uint32_t>(ring_capacity, 1u << 16);
    return finish(std::make_unique<HyperGwv>(db, num_threads, opts));
  }
  if (name == "mvrcc" || name == "MVRCC") {
    RoccOptions opts;
    opts.tables = workload.RangeConfigs(ranges_hint, ring_capacity);
    opts.default_ring_capacity = ring_capacity;
    return finish(std::make_unique<Mvrcc>(db, num_threads, std::move(opts)));
  }
  if (name == "2pl" || name == "tpl") {
    return finish(std::make_unique<TplNoWait>(db, num_threads));
  }
  // Default: the paper's contribution.
  RoccOptions opts;
  opts.tables = workload.RangeConfigs(ranges_hint, ring_capacity);
  opts.default_ring_capacity = ring_capacity;
  opts.register_writes = rocc_register_writes;
  return finish(std::make_unique<Rocc>(db, num_threads, std::move(opts)));
}

}  // namespace rocc
