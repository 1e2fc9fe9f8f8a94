#include "bench/traced_cc.h"

#include "common/timer.h"

namespace perfbench {

using rocc::NowNanos;
using rocc::Status;
using rocc::TxnDescriptor;

void TracedCc::Totals::Merge(const Totals& o) {
  for (uint32_t i = 0; i < kNumOps; i++) {
    calls[i] += o.calls[i];
    ns[i] += o.ns[i];
  }
  commit_fails += o.commit_fails;
  commit_fail_ns += o.commit_fail_ns;
  scan_fails += o.scan_fails;
  scan_rows += o.scan_rows;
  snapshot_scan_rows += o.snapshot_scan_rows;
  retry_wait_ns += o.retry_wait_ns;
}

uint64_t TracedCc::Totals::CcNanos() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumOps; i++) total += ns[i];
  return total;
}

TracedCc::TracedCc(rocc::ConcurrencyControl* inner, uint32_t num_threads)
    : inner_(inner),
      mv_on_(inner->version_store() != nullptr),
      slots_(num_threads) {}

void TracedCc::Reset() {
  for (Slot& s : slots_) {
    s.totals = Totals{};
    s.fail_end = 0;
  }
}

TracedCc::Totals TracedCc::Sum() const {
  Totals out;
  for (const Slot& s : slots_) out.Merge(s.totals);
  return out;
}

void TracedCc::AttachThread(uint32_t thread_id, rocc::TxnStats* stats) {
  slots_[thread_id].stats = stats;
  inner_->AttachThread(thread_id, stats);
}

bool TracedCc::EnableMvcc() {
  const bool ok = inner_->EnableMvcc();
  mv_on_ = inner_->version_store() != nullptr;
  return ok;
}

TxnDescriptor* TracedCc::TimedBegin(uint32_t thread_id, bool read_only) {
  Slot& s = slots_[thread_id];
  const uint64_t start = NowNanos();
  if (s.fail_end != 0) {
    s.totals.retry_wait_ns += start - s.fail_end;
    s.fail_end = 0;
  }
  TxnDescriptor* t =
      read_only ? inner_->BeginReadOnly(thread_id) : inner_->Begin(thread_id);
  Record(s, kBegin, start, NowNanos());
  return t;
}

TxnDescriptor* TracedCc::Begin(uint32_t thread_id) {
  return TimedBegin(thread_id, false);
}

TxnDescriptor* TracedCc::BeginReadOnly(uint32_t thread_id) {
  return TimedBegin(thread_id, true);
}

Status TracedCc::Read(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                      void* out) {
  Slot& s = slots_[t->thread_id];
  const Op op = mv_on_ && t->snapshot_reads && !t->HasWrites() ? kSnapshotRead
                                                                : kRead;
  const uint64_t start = NowNanos();
  Status st = inner_->Read(t, table_id, key, out);
  Record(s, op, start, NowNanos());
  return st;
}

Status TracedCc::Update(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                        const void* data, uint32_t size, uint32_t field_offset) {
  Slot& s = slots_[t->thread_id];
  const uint64_t start = NowNanos();
  Status st = inner_->Update(t, table_id, key, data, size, field_offset);
  Record(s, kUpdate, start, NowNanos());
  return st;
}

Status TracedCc::Insert(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                        const void* payload) {
  Slot& s = slots_[t->thread_id];
  const uint64_t start = NowNanos();
  Status st = inner_->Insert(t, table_id, key, payload);
  Record(s, kInsert, start, NowNanos());
  return st;
}

Status TracedCc::Remove(TxnDescriptor* t, uint32_t table_id, uint64_t key) {
  Slot& s = slots_[t->thread_id];
  const uint64_t start = NowNanos();
  Status st = inner_->Remove(t, table_id, key);
  Record(s, kRemove, start, NowNanos());
  return st;
}

Status TracedCc::TimedScan(TxnDescriptor* t, bool snapshot, uint32_t table_id,
                           uint64_t start_key, uint64_t end_key, uint64_t limit,
                           rocc::ScanConsumer* consumer, bool via_snapshot_call) {
  Slot& s = slots_[t->thread_id];
  const uint64_t rows_before = ScannedRecords(s);
  const uint64_t start = NowNanos();
  Status st = via_snapshot_call
                  ? inner_->SnapshotScan(t, table_id, start_key, end_key, limit,
                                         consumer)
                  : inner_->Scan(t, table_id, start_key, end_key, limit,
                                 consumer);
  const uint64_t end = NowNanos();
  const uint64_t rows = ScannedRecords(s) - rows_before;
  if (snapshot) {
    Record(s, kSnapshotScan, start, end);
    s.totals.snapshot_scan_rows += rows;
  } else {
    Record(s, kScan, start, end);
    s.totals.scan_rows += rows;
    if (!st.ok()) s.totals.scan_fails++;
  }
  return st;
}

Status TracedCc::Scan(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                      uint64_t end_key, uint64_t limit,
                      rocc::ScanConsumer* consumer) {
  const bool snapshot = mv_on_ && t->snapshot_reads && !t->HasWrites();
  return TimedScan(t, snapshot, table_id, start_key, end_key, limit, consumer,
                   /*via_snapshot_call=*/false);
}

Status TracedCc::SnapshotScan(TxnDescriptor* t, uint32_t table_id,
                              uint64_t start_key, uint64_t end_key,
                              uint64_t limit, rocc::ScanConsumer* consumer) {
  const bool snapshot = mv_on_ && !t->HasWrites();
  return TimedScan(t, snapshot, table_id, start_key, end_key, limit, consumer,
                   /*via_snapshot_call=*/true);
}

Status TracedCc::Commit(TxnDescriptor* t) {
  // The descriptor is retired inside Commit: read what is needed first.
  Slot& s = slots_[t->thread_id];
  const uint64_t start = NowNanos();
  Status st = inner_->Commit(t);
  const uint64_t end = NowNanos();
  Record(s, kCommit, start, end);
  if (!st.ok()) {
    s.totals.commit_fails++;
    s.totals.commit_fail_ns += end - start;
    s.fail_end = end;
  }
  return st;
}

void TracedCc::Abort(TxnDescriptor* t) {
  Slot& s = slots_[t->thread_id];
  const uint64_t start = NowNanos();
  inner_->Abort(t);
  const uint64_t end = NowNanos();
  Record(s, kAbort, start, end);
  s.fail_end = end;
}

}  // namespace perfbench
