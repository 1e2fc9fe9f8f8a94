#include "obs/obs.h"

#include "harness/knobs.h"

namespace rocc {
namespace obs {

namespace internal {
std::atomic<FlightRecorder*> g_recorder{nullptr};
}  // namespace internal

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kExecute: return "execute";
    case Phase::kValidate: return "validate";
    case Phase::kWriteApply: return "write_apply";
    case Phase::kLogWait: return "log_wait";
    case Phase::kBackoff: return "backoff";
    case Phase::kGateWait: return "gate_wait";
  }
  return "unknown";
}

const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kTxnBegin: return "txn_begin";
    case EventType::kTxnCommit: return "txn_commit";
    case EventType::kTxnAbort: return "txn_abort";
    case EventType::kSpan: return "span";
    case EventType::kWalFlush: return "wal_flush";
    case EventType::kGateEnter: return "gate_enter";
    case EventType::kGateExit: return "gate_exit";
    case EventType::kVersionInstall: return "version_install";
    case EventType::kVersionGc: return "version_gc";
    case EventType::kSnapshotScan: return "snapshot_scan";
    case EventType::kSnapshotEvict: return "snapshot_evict";
    case EventType::kStall: return "stall";
    case EventType::kSloViolation: return "slo_violation";
  }
  return "unknown";
}

namespace {
uint64_t RoundUpPow2(uint64_t v) {
  if (v < 2) return 2;
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

void TraceRing::Init(uint32_t capacity) {
  if (events_.load(std::memory_order_relaxed) != nullptr) return;
  const uint64_t cap = RoundUpPow2(capacity);
  TraceEvent* slots = new TraceEvent[cap]();
  mask_ = cap - 1;
  // Release: a concurrent reader (signal dump) that sees the pointer also
  // sees the mask and zeroed slots.
  events_.store(slots, std::memory_order_release);
}

void TraceRing::Snapshot(std::vector<TraceEvent>* out) const {
  ForEach([out](const TraceEvent& e) { out->push_back(e); });
}

FlightRecorder::FlightRecorder(ObsOptions options)
    : options_(options), num_workers_(options.max_workers) {
  workers_ = std::make_unique<CachePadded<TraceRing>[]>(num_workers_);
  heartbeats_ =
      std::make_unique<CachePadded<std::atomic<uint64_t>>[]>(num_workers_);
  for (uint32_t i = 0; i < num_workers_; i++) {
    heartbeats_[i].value.store(0, std::memory_order_relaxed);
  }
  // Hot-reloadable knobs: the constructor's configured values arm the cells;
  // POST /config and SIGHUP re-point them mid-run.
  sample_knob_ = KnobRegistry::Instance().Register("obs_sample_period",
                                                   options_.sample_period);
  slo_knob_ = KnobRegistry::Instance().Register("obs_slo_us", options_.slo_us);
  // The service ring is shared by rare control-plane emitters (the WAL
  // flusher, snapshot eviction); allocate it eagerly so EmitService never
  // races an Init.
  service_.Init(options_.ring_capacity);
}

bool FlightRecorder::BeginTxn(uint32_t tid, uint64_t ts_ns, uint64_t txn_id) {
  if (tid >= num_workers_) return false;
  TraceRing& ring = workers_[tid].value;
  if (!ring.initialized()) ring.Init(options_.ring_capacity);
  // The attempt enters its execute phase now; the caller's Begin timestamp
  // doubles as the heartbeat entry time (no extra clock read).
  heartbeats_[tid].value.store(PackHeartbeat(Phase::kExecute, ts_ns),
                               std::memory_order_relaxed);
  const uint64_t period = sample_knob_->load(std::memory_order_relaxed);
  if (period == 0) {
    ring.sampled = false;
    return false;
  }
  if (--ring.sample_countdown == 0 || ring.sample_countdown > period) {
    ring.sample_countdown = period;
    ring.sampled = true;
    ring.Push({ts_ns, 0, txn_id, 0, static_cast<uint16_t>(tid),
               static_cast<uint8_t>(EventType::kTxnBegin), 0});
    return true;
  }
  ring.sampled = false;
  return false;
}

void FlightRecorder::EmitService(EventType type, uint8_t detail, uint64_t ts_ns,
                                 uint64_t dur_ns, uint64_t a, uint32_t b) {
  SpinLatchGuard g(service_latch_);
  service_.Push({ts_ns, dur_ns, a, b, kServiceTid, static_cast<uint8_t>(type),
                 detail});
}

void FlightRecorder::SnapshotAll(std::vector<TraceEvent>* out) const {
  for (uint32_t i = 0; i < num_workers_; i++) {
    workers_[i].value.Snapshot(out);
  }
  service_.Snapshot(out);
}

uint64_t FlightRecorder::TotalEvents() const {
  uint64_t total = service_.head();
  for (uint32_t i = 0; i < num_workers_; i++) total += workers_[i].value.head();
  return total;
}

void FlightRecorder::ResetRings() {
  for (uint32_t i = 0; i < num_workers_; i++) workers_[i].value.Reset();
  service_.Reset();
}

FlightRecorder* SetRecorder(FlightRecorder* recorder) {
  return internal::g_recorder.exchange(recorder, std::memory_order_acq_rel);
}

}  // namespace obs
}  // namespace rocc
