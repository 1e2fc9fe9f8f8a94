#include "cc/cc.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "cc/occ_util.h"
#include "common/fiber.h"
#include "common/timer.h"
#include "harness/contention.h"
#include "log/log_manager.h"
#include "mv/version_store.h"

namespace rocc {

namespace {
constexpr int kLockSpins = 128;

uint64_t MakeTxnId(uint32_t thread_id, uint64_t seq) {
  return (static_cast<uint64_t>(thread_id) << 48) | (seq & ((1ULL << 48) - 1));
}
}  // namespace
OccBase::OccBase(Database* db, uint32_t num_threads)
    : db_(db), epoch_(num_threads),
      contention_(std::make_unique<ContentionManager>(num_threads)) {
  ctxs_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; i++) {
    ctxs_.push_back(std::make_unique<ThreadCtx>());
  }
  // A Database can outlive the protocol bound to it (benches re-bind fresh
  // protocol instances to one loaded table; recovery restores rows from the
  // WAL). Commit timestamps must dominate every version already installed in
  // the rows — otherwise a snapshot frozen at the young clock finds rows
  // whose version lies "in the future" with no chain behind them and misreads
  // live data as invisible. Seed the clock from the row high-water mark, the
  // same contract GlobalClock::AdvanceTo documents for recovery. (Plain OCC
  // never noticed: it only compares TID words for equality within one
  // instance's lifetime.)
  uint64_t max_version = 0;
  for (size_t tbl = 0; tbl < db_->NumTables(); tbl++) {
    max_row_size_ = std::max(max_row_size_, db_->GetTable(tbl)->row_size());
    db_->GetIndex(tbl)->ScanFrom(0, [&](uint64_t, Row* row) {
      const uint64_t v =
          TidWord::Version(row->tid.load(std::memory_order_relaxed));
      max_version = std::max(max_version, v);
      return true;
    });
  }
  clock_.AdvanceTo(max_version);
  for (auto& ctx : ctxs_) {
    ctx->scratch.resize(std::max<uint32_t>(max_row_size_, 8));
    ctx->local_image.resize(std::max<uint32_t>(max_row_size_, 8));
  }
}

OccBase::~OccBase() {
  // Sever every Row::versions pointer before the version arenas die: the
  // Database outlives this protocol instance, and the next protocol bound to
  // it must not inherit dangling chains.
  if (mv_ != nullptr) mv_->GcQuiesce(db_);
  for (auto& ctx : ctxs_) {
    ctx->retired.Reclaim(~0ULL, [&](TxnDescriptor* d) { delete d; });
    for (TxnDescriptor* d : ctx->free_list) delete d;
  }
}

void OccBase::PaceValidation(uint32_t* counter) const {
  if (validation_pacing_ == 0) return;
  if (++*counter >= validation_pacing_) {
    *counter = 0;
    CooperativeYield();
  }
}

void OccBase::AttachThread(uint32_t thread_id, TxnStats* sink) {
  ctxs_[thread_id]->stats = sink;
  contention_->AttachThread(thread_id, sink);
}

bool OccBase::EnableMvcc() {
  if (mv_ == nullptr) {
    mv_ = std::make_unique<mv::VersionStore>(
        &clock_, &epoch_, static_cast<uint32_t>(ctxs_.size()));
  }
  return true;
}

TxnDescriptor* OccBase::Begin(uint32_t thread_id) {
  ThreadCtx& ctx = *ctxs_[thread_id];
  const uint64_t min_active = epoch_.MinActive();
  ctx.retired.Reclaim(min_active,
                      [&](TxnDescriptor* d) { ctx.free_list.push_back(d); });
  if (mv_ != nullptr) {
    const uint64_t freed = mv_->ReclaimWorker(thread_id, min_active);
    if (freed > 0 && obs::Enabled()) {
      obs::WorkerEvent(thread_id, obs::EventType::kVersionGc, 0, freed, 0);
    }
  }
  TxnDescriptor* t;
  if (!ctx.free_list.empty()) {
    t = ctx.free_list.back();
    ctx.free_list.pop_back();
  } else {
    t = new TxnDescriptor();
    ctx.allocated++;
  }
  epoch_.Enter(thread_id);
  t->Reset(MakeTxnId(thread_id, ++ctx.txn_seq), thread_id, clock_.Current());
  t->begin_nanos = NowNanos();
  t->is_scan_txn = false;
  ctx.last_abort_reason = AbortReason::kNone;
  ctx.last_conflict_range = obs::kNoRange;
  obs::TxnBegin(thread_id, t->begin_nanos, t->txn_id);
  return t;
}

Status OccBase::Read(TxnDescriptor* t, uint32_t table_id, uint64_t key, void* out) {
  // Declared-read-only transactions route every point read through the
  // frozen snapshot: no readset entry, no validation at commit, and a locked
  // (committing) writer never aborts the reader — the handshake in
  // ReadAtSnapshot resolves it from the pre-image chain instead. The HasWrites
  // guard keeps the descriptor usable as a plain OCC transaction when the
  // caller wrote before reading (the snapshot could not overlay those writes).
  if (t->snapshot_reads && mv_ != nullptr && !t->HasWrites()) {
    return SnapshotPointRead(t, table_id, key, out);
  }
  Row* row = db_->GetIndex(table_id)->Get(key);
  bool have_base = false;
  if (row != nullptr) {
    uint64_t tidw = 0;
    switch (ReadRecordNoWait(row, out, &tidw)) {
      case ReadResult::kOk:
        t->read_set.push_back({row, tidw});
        have_base = true;
        break;
      case ReadResult::kLocked:
        NoteAbortCause(t->thread_id, AbortReason::kDirtyRead);
        return Status::Aborted("dirty read");
      case ReadResult::kContended:
        // The record is not dirty — it kept CHANGING past the retry budget.
        // Account it as unresolved contention, not as a missing/locked row,
        // so the retry policy and the abort-cause table see the truth.
        NoteAbortCause(t->thread_id, AbortReason::kUnresolved);
        return Status::Aborted("contended read");
      case ReadResult::kAbsent:
        break;
    }
  }
  // Overlay this transaction's own pending writes: the newest entry decides
  // visibility, and the per-key chain replays the partial images in
  // chronological order.
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0) {
    if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) {
      return Status::NotFound();
    }
    t->ReplayChain(wi, static_cast<char*>(out));
    return Status::Ok();
  }
  if (!have_base) return Status::NotFound();
  return Status::Ok();
}

Status OccBase::Update(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                       const void* data, uint32_t size, uint32_t field_offset) {
  if (t->snapshot_ts != 0) {
    return Status::InvalidArgument("snapshot transaction is read-only");
  }
  const Table* tab = db_->GetTable(table_id);
  if (field_offset + size > tab->row_size()) {
    return Status::InvalidArgument("update exceeds row payload");
  }
  Row* row = nullptr;
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0) {
    if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) return Status::NotFound();
    row = t->write_set[wi].row;  // may still be null for a pending insert
  } else {
    row = db_->GetIndex(table_id)->Get(key);
    if (row == nullptr || row->IsAbsent()) return Status::NotFound();
  }
  WriteEntry we;
  we.row = row;
  we.key = key;
  we.table_id = table_id;
  we.kind = WriteEntry::Kind::kUpdate;
  we.locked = false;
  we.data_offset = t->AppendImage(data, size);
  we.data_size = size;
  we.field_offset = field_offset;
  t->AppendWrite(we);
  return Status::Ok();
}

Status OccBase::Insert(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                       const void* payload) {
  if (t->snapshot_ts != 0) {
    return Status::InvalidArgument("snapshot transaction is read-only");
  }
  if (t->FindWrite(table_id, key) >= 0) return Status::KeyExists();
  Row* existing = db_->GetIndex(table_id)->Get(key);
  if (existing != nullptr && !existing->IsAbsent()) return Status::KeyExists();
  const Table* tab = db_->GetTable(table_id);
  WriteEntry we;
  we.row = nullptr;  // placeholder is created at lock time
  we.key = key;
  we.table_id = table_id;
  we.kind = WriteEntry::Kind::kInsert;
  we.locked = false;
  we.data_offset = t->AppendImage(payload, tab->row_size());
  we.data_size = tab->row_size();
  we.field_offset = 0;
  t->AppendWrite(we);
  return Status::Ok();
}

Status OccBase::Remove(TxnDescriptor* t, uint32_t table_id, uint64_t key) {
  if (t->snapshot_ts != 0) {
    return Status::InvalidArgument("snapshot transaction is read-only");
  }
  Row* row = nullptr;
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0) {
    if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) {
      return Status::NotFound();
    }
    // Null when the chain began with a pending insert: deleting one's own
    // pending insert is allowed and cancels it (AppendWrite drops the key
    // from the pending-insert view).
    row = t->write_set[wi].row;
  } else {
    row = db_->GetIndex(table_id)->Get(key);
    if (row == nullptr || row->IsAbsent()) return Status::NotFound();
  }
  WriteEntry we;
  we.row = row;
  we.key = key;
  we.table_id = table_id;
  we.kind = WriteEntry::Kind::kDelete;
  we.locked = false;
  we.data_offset = 0;
  we.data_size = 0;
  we.field_offset = 0;
  t->AppendWrite(we);
  return Status::Ok();
}

Status OccBase::ScanRecords(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                            uint64_t end_bound, uint64_t limit, ScanConsumer* consumer,
                            bool track_records, uint64_t* last_key,
                            uint64_t* delivered, bool* consumer_stopped) {
  ThreadCtx& ctx = *ctxs_[t->thread_id];
  char* buf = ctx.scratch.data();
  char* local = ctx.local_image.data();
  Status result = Status::Ok();
  uint64_t n = 0;
  uint64_t lk = start_key;
  bool stopped = false;
  const uint64_t effective_end = end_bound == 0 ? ~0ULL : end_bound;

  // Read-your-own-writes for scans: pending inserts of this transaction are
  // not yet indexed, so slice its sorted pending-insert view over the
  // scanned window and merge it into the index stream in key order. The
  // slice and the image staging both live in per-thread scratch; the scan
  // itself allocates nothing.
  std::vector<uint64_t>& pending = ctx.pending_keys;
  pending.clear();
  t->PendingInsertKeysInto(table_id, start_key, effective_end, &pending);
  size_t pi = 0;
  // Delivers this transaction's local image of `key`; false = stop the scan.
  auto deliver_local = [&](uint64_t key) -> bool {
    BuildLocalImage(t, table_id, key, local);
    n++;
    lk = key;
    const bool want_more = consumer == nullptr || consumer->OnRecord(key, local);
    if (!want_more) {
      stopped = true;
      return false;
    }
    return !(limit != 0 && n >= limit);
  };
  // Delivers pending inserted keys below `bound`; false = stop the scan.
  auto flush_pending_below = [&](uint64_t bound) -> bool {
    while (pi < pending.size() && pending[pi] < bound) {
      if (!deliver_local(pending[pi++])) return false;
    }
    return true;
  };

  db_->GetIndex(table_id)->ScanRange(
      start_key, effective_end,
      [&](uint64_t key, Row* row) -> bool {
        if (!flush_pending_below(key)) return false;
        if (pi < pending.size() && pending[pi] == key) {
          // A pending insert's key turned visible in the index concurrently
          // (e.g. another transaction's placeholder). This transaction's own
          // write wins: deliver the local image exactly once and never read
          // — or track — the base record, whose state is someone else's.
          pi++;
          return deliver_local(key);
        }
        uint64_t tidw = 0;
        switch (ReadRecordNoWait(row, buf, &tidw)) {
          case ReadResult::kAbsent:
            return true;  // tombstone: skip
          case ReadResult::kLocked:
            // Per the paper, a scanned record locked by a committing writer
            // is dirty and the scanning transaction aborts immediately.
            NoteAbortCause(t->thread_id, AbortReason::kDirtyRead);
            result = Status::Aborted("dirty scan");
            return false;
          case ReadResult::kContended:
            // Unlocked but changing past the retry budget: unresolved
            // contention, distinct from a dirty (locked) record.
            NoteAbortCause(t->thread_id, AbortReason::kUnresolved);
            result = Status::Aborted("contended scan");
            return false;
          case ReadResult::kOk:
            break;
        }
        // Overlay own pending writes: the newest entry decides visibility,
        // the chain replays partial images chronologically.
        const int wi = t->FindWrite(table_id, key);
        if (wi >= 0) {
          if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) return true;
          t->ReplayChain(wi, buf);
        }
        if (track_records) t->scan_records.push_back({row, tidw});
        n++;
        lk = key;
        const bool want_more = consumer == nullptr || consumer->OnRecord(key, buf);
        if (!want_more) {
          stopped = true;
          return false;
        }
        return !(limit != 0 && n >= limit);
      });

  // Pending inserts beyond the last indexed key still belong to the window.
  if (result.ok() && !stopped && !(limit != 0 && n >= limit)) {
    flush_pending_below(effective_end);
  }

  stats(t->thread_id).scanned_records += n;
  *last_key = lk;
  *delivered = n;
  *consumer_stopped = stopped;
  return result;
}

void OccBase::BuildLocalImage(const TxnDescriptor* t, uint32_t table_id,
                              uint64_t key, char* out) const {
  std::memset(out, 0, db_->GetTable(table_id)->row_size());
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0 && t->write_set[wi].kind != WriteEntry::Kind::kDelete) {
    t->ReplayChain(wi, out);
  }
}

bool OccBase::ValidateReadSet(TxnDescriptor* t) {
  TxnStats& s = stats(t->thread_id);
  for (const ReadEntry& re : t->read_set) {
    s.validated_records++;
    const uint64_t cur = re.row->tid.load(std::memory_order_acquire);
    if (TidWord::IsLocked(cur)) {
      if (t->FindWriteByRow(re.row) < 0) return false;  // locked by another txn
      if ((cur & ~TidWord::kLockBit) != re.observed_tid) return false;
    } else if (cur != re.observed_tid) {
      return false;
    }
  }
  return true;
}

bool OccBase::LockWriteSet(TxnDescriptor* t) {
  auto& ws = t->write_set;
  std::vector<uint32_t>& order = ctxs_[t->thread_id]->lock_order;
  order.resize(ws.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (ws[a].table_id != ws[b].table_id) return ws[a].table_id < ws[b].table_id;
    if (ws[a].key != ws[b].key) return ws[a].key < ws[b].key;
    return a < b;  // stable: chronological within a key
  });

  for (size_t oi = 0; oi < order.size(); oi++) {
    WriteEntry& we = ws[order[oi]];
    if (oi > 0) {
      const WriteEntry& prev = ws[order[oi - 1]];
      if (prev.table_id == we.table_id && prev.key == we.key) {
        we.row = prev.row;  // first occurrence holds the lock
        continue;
      }
    }
    if (we.kind == WriteEntry::Kind::kInsert) {
      Table* tab = db_->GetTable(we.table_id);
      OrderedIndex* idx = db_->GetIndex(we.table_id);
      Row* placeholder = tab->CreatePlaceholderRow(we.key);
      Status st = idx->Insert(we.key, placeholder);
      if (st.ok()) {
        we.row = placeholder;
        we.locked = true;
        t->BindRow(static_cast<int32_t>(order[oi]), placeholder);
        continue;
      }
      // Key already indexed: resurrect an unlocked tombstone, else conflict.
      // The row must still be indexed once locked: an aborter or a deleting
      // committer may have unlinked it between our Get and TryLock, and a
      // resurrected unindexed row would commit a key no lookup can find.
      Row* existing = idx->Get(we.key);
      if (existing == nullptr || !existing->TryLock()) return false;
      if (!existing->IsAbsent() || idx->Get(we.key) != existing) {
        existing->Unlock();
        return false;  // live duplicate, or unlinked under us
      }
      we.row = existing;
      we.locked = true;
      t->BindRow(static_cast<int32_t>(order[oi]), existing);
    } else {
      if (!we.row->LockWithSpin(kLockSpins)) return false;
      we.locked = true;
      if (we.row->IsAbsent()) return false;  // deleted under us; cleanup unlocks
    }
  }
  return true;
}

void OccBase::UnlockWriteSet(TxnDescriptor* t) {
  for (WriteEntry& we : t->write_set) {
    if (!we.locked) continue;
    we.locked = false;
    if (we.kind == WriteEntry::Kind::kInsert &&
        TidWord::Version(we.row->tid.load(std::memory_order_relaxed)) == 0) {
      // Fresh placeholder: unlink it while still locked, then unlock it. A
      // concurrent inserter of the key cannot resurrect a locked row, so the
      // key-based Remove can only unlink this placeholder; a racing reader
      // that still holds the pointer sees absent+unlocked and skips it. A
      // RESURRECTED tombstone (version > 0) is instead restored by a plain
      // unlock — with versions on its chain must stay index-reachable for
      // older snapshots, and either way its delete version is not ours to
      // erase.
      we.row->tid.store(TidWord::kAbsentBit | TidWord::kLockBit,
                        std::memory_order_release);
      db_->GetIndex(we.table_id)->Remove(we.key);
      we.row->tid.store(TidWord::kAbsentBit, std::memory_order_release);
    } else {
      we.row->Unlock();
    }
  }
}

uint64_t OccBase::LogWrites(const TxnDescriptor* t, uint64_t commit_ts) {
  if (log_ == nullptr || t->write_set.empty()) return 0;
  return log_->LogCommit(t->thread_id, t, commit_ts);
}

uint64_t OccBase::AwaitDurable(uint64_t ticket, uint64_t begin_nanos,
                               uint32_t thread_id, TxnStats& s) {
  if (ticket == 0) return 0;
  s.log_records++;
  // Async mode acknowledges from memory — WaitDurable returns immediately —
  // so counting it as a durable ack would pass off in-memory latency as
  // durable-ack latency. Leave the durable_* stats at zero.
  if (!log_->options().sync_ack) return 0;
  const uint64_t wait_start = NowNanos();
  obs::HeartbeatPhase(thread_id, obs::Phase::kLogWait, wait_start);
  const bool durable = log_->WaitDurable(ticket);
  const uint64_t now = NowNanos();
  s.durable_wait_ns += now - wait_start;
  if (obs::Enabled()) {
    s.phase_log_wait.Record(now - wait_start);
    obs::SpanEvent(thread_id, obs::Phase::kLogWait, wait_start, now);
  }
  if (durable) {
    s.durable_acks++;
    s.latency_durable.Record(now - begin_nanos);
  } else {
    s.durable_ack_failures++;
  }
  return now - wait_start;
}

void OccBase::MaybeCaptureSlo(uint32_t tid, uint64_t txn_id, TxnStats& s,
                              uint64_t begin_ns, uint64_t commit_start,
                              uint64_t validation_end, uint64_t end_ns,
                              uint64_t log_wait_ns, AbortReason reason) {
  obs::FlightRecorder* r = obs::Recorder();
  if (r == nullptr) return;
  const uint64_t slo_ns = r->SloNanos();
  if (slo_ns == 0) return;
  const uint64_t total = (end_ns - begin_ns) + log_wait_ns;
  if (total <= slo_ns) return;
  // Slowest-phase attribution from the timestamps the commit path already
  // took. The first four Phase values are exactly the commit pipeline, so
  // the duration index doubles as the Phase.
  const uint64_t durs[TxnStats::kNumSloPhases] = {
      commit_start - begin_ns, validation_end - commit_start,
      end_ns - validation_end, log_wait_ns};
  uint32_t slowest = 0;
  for (uint32_t p = 1; p < TxnStats::kNumSloPhases; p++) {
    if (durs[p] > durs[slowest]) slowest = p;
  }
  s.slo_violations[slowest][AbortReasonColumn(reason)]++;
  s.latency_slo.Record(total);
  // Retroactive capture: a sampled attempt already has its spans in the
  // ring; an unsampled one gets them force-emitted now, tagged with
  // kOutlierFlag. The log-wait span is reconstructed as [end, end + wait] —
  // its true start trails `end_ns` by the nanoseconds FinishTxn took.
  if (!r->IsSampled(tid)) {
    uint64_t start = begin_ns;
    const uint64_t ends[TxnStats::kNumSloPhases] = {
        commit_start, validation_end, end_ns, end_ns + log_wait_ns};
    for (uint32_t p = 0; p < TxnStats::kNumSloPhases; p++) {
      if (ends[p] > start) {
        r->Emit(tid, obs::EventType::kSpan,
                static_cast<uint8_t>(p) | obs::kOutlierFlag, start,
                ends[p] - start, txn_id, 0);
      }
      start = ends[p];
    }
  }
  const uint64_t total_us = total / 1000;
  r->Emit(tid, obs::EventType::kSloViolation,
          obs::SloDetail(static_cast<obs::Phase>(slowest),
                         static_cast<uint8_t>(reason)),
          end_ns + log_wait_ns, total, txn_id,
          total_us > 0xFFFFFFFFull ? 0xFFFFFFFFu
                                   : static_cast<uint32_t>(total_us));
}

uint64_t OccBase::ApplyWritesAndUnlock(TxnDescriptor* t, uint64_t commit_ts) {
  // MVCC pre-pass: link the pre-image of every locked row BEFORE any payload
  // byte changes, then fence (ReadAtSnapshot's locked-row handshake relies
  // on install-before-apply). The chronologically-first write entry of each
  // key (prev < 0) identifies its row exactly once.
  if (mv_ != nullptr) {
    TxnStats& s = stats(t->thread_id);
    const uint64_t before = s.mv_versions_installed;
    for (const WriteEntry& we : t->write_set) {
      if (we.prev >= 0 || we.row == nullptr) continue;
      mv_->InstallPredecessor(t->thread_id, we.row, &s);
    }
    mv::VersionStore::PublishFence();
    const uint64_t installed = s.mv_versions_installed - before;
    if (installed > 0 && obs::Enabled()) {
      obs::VersionInstall(t->thread_id, NowNanos(), installed);
    }
  }
  // Apply after-images in chronological order (multiple partial updates of
  // one row compose left to right).
  for (const WriteEntry& we : t->write_set) {
    if (we.kind == WriteEntry::Kind::kDelete || we.row == nullptr) continue;
    std::memcpy(we.row->Data() + we.field_offset, t->ImageAt(we.data_offset),
                we.data_size);
  }
  // Redo-log the writeset while every write lock is still held: a later
  // transaction can only observe these writes after the locks drop below,
  // so its own record lands in the WAL (and in a group-commit epoch) no
  // earlier than this one — recovery's whole-epoch prefix stays
  // dependency-closed (see LogManager's class comment).
  const uint64_t log_ticket = LogWrites(t, commit_ts);
  for (WriteEntry& we : t->write_set) {
    if (!we.locked) continue;
    we.locked = false;
    // The locked entry is the chronologically-first write of its key; the
    // commit decision must follow the NET kind — the newest entry in the
    // chain — or an update-then-delete chain would commit as a live update.
    const int li = t->FindWrite(we.table_id, we.key);
    if (li >= 0 && t->write_set[li].kind == WriteEntry::Kind::kDelete) {
      // With versions on, the tombstone must STAY indexed: a snapshot older
      // than this delete still resolves the row through its chain, and an
      // unindexed row is unreachable. GcQuiesce unindexes it once no
      // snapshot can need it. (The resurrect path in LockWriteSet already
      // handles indexed tombstones.)
      if (mv_ == nullptr) db_->GetIndex(we.table_id)->Remove(we.key);
      we.row->UnlockAsDeleted(commit_ts);
    } else {
      we.row->UnlockWithVersion(commit_ts);
    }
  }
  return log_ticket;
}

void OccBase::FinishTxn(TxnDescriptor* t, TxnState final_state) {
  t->state.store(final_state, std::memory_order_release);
  ThreadCtx& ctx = *ctxs_[t->thread_id];
  const uint32_t thread_id = t->thread_id;
  if (mv_ != nullptr && t->snapshot_ts != 0) {
    mv_->ReleaseSnapshot(thread_id);
  }
  ctx.retired.Retire(t, epoch_.Current());
  epoch_.Exit(thread_id);
}

Status OccBase::SnapshotPointRead(TxnDescriptor* t, uint32_t table_id,
                                  uint64_t key, void* out) {
  // The first read freezes the snapshot; every later read of this
  // transaction — point or scan — shares the same pinned timestamp.
  if (t->snapshot_ts == 0) {
    t->snapshot_ts = mv_->AcquireSnapshot(t->thread_id);
  }
  TxnStats& s = stats(t->thread_id);
  s.mv_snapshot_point_reads++;
  Row* row = db_->GetIndex(table_id)->Get(key);
  mv::SnapshotRead r = mv::SnapshotRead::kInvisible;
  if (row != nullptr) {
    r = mv_->ReadAtSnapshot(row, t->snapshot_ts, out, &s);
  }
  // Eviction check AFTER the chain read but BEFORE interpreting the result:
  // a pruner that evicted this snapshot may have freed exactly the node the
  // read needed, faking invisibility — or the handshake may have served a
  // version newer than the snapshot. The slot-coherence argument
  // (DESIGN.md §14.3) guarantees an evicted reader observes the sentinel
  // here, so the transient wrong value is discarded by the abort — the same
  // discipline OCC applies to dirty reads.
  if (mv_->SnapshotEvicted(t->thread_id)) {
    NoteAbortCause(t->thread_id, AbortReason::kSnapshotEvicted);
    return Status::Aborted("snapshot evicted");
  }
  if (r == mv::SnapshotRead::kInvisible) return Status::NotFound();
  return Status::Ok();
}

Status OccBase::CommitSnapshotReadOnly(TxnDescriptor* t) {
  TxnStats& s = stats(t->thread_id);
  const bool scan_txn = t->is_scan_txn;
  const uint32_t tid = t->thread_id;
  const uint64_t txn_id = t->txn_id;
  const uint64_t begin_nanos = t->begin_nanos;
  // Mandatory final eviction check: every read since the last check is only
  // trustworthy if the snapshot stayed pinned through it. FinishTxn releases
  // the slot (clearing a sentinel along the way), so this is the last point
  // where the eviction is observable.
  if (mv_->SnapshotEvicted(tid)) {
    NoteAbortCause(tid, AbortReason::kSnapshotEvicted);
    FinishTxn(t, TxnState::kAborted);
    const uint64_t end = NowNanos();
    s.abort_ns += end - begin_nanos;
    s.aborts++;
    if (scan_txn) s.scan_txn_aborts++;
    if (obs::Enabled()) {
      const ThreadCtx& ctx = *ctxs_[tid];
      obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, end, txn_id);
      obs::TxnAbort(tid, end, txn_id,
                    static_cast<uint8_t>(ctx.last_abort_reason),
                    ctx.last_conflict_range);
    }
    MaybeCaptureSlo(tid, txn_id, s, begin_nanos, end, end, end, 0,
                    AbortReason::kSnapshotEvicted);
    obs::HeartbeatClear(tid);
    return Status::Aborted("snapshot evicted");
  }
  FinishTxn(t, TxnState::kCommitted);
  const uint64_t end = NowNanos();
  s.read_write_ns += end - begin_nanos;
  s.commits++;
  s.mv_snapshot_txns++;
  s.latency_all.Record(end - begin_nanos);
  if (scan_txn) {
    s.scan_txn_commits++;
    s.latency_scan.Record(end - begin_nanos);
  }
  if (obs::Enabled()) {
    // The whole transaction is one execute phase: no validate, no apply.
    s.phase_execute.Record(end - begin_nanos);
    obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, end, txn_id);
    obs::TxnCommit(tid, end, txn_id, scan_txn);
  }
  MaybeCaptureSlo(tid, txn_id, s, begin_nanos, end, end, end, 0,
                  AbortReason::kNone);
  obs::HeartbeatClear(tid);
  return Status::Ok();
}

Status OccBase::Commit(TxnDescriptor* t) {
  // Read-only snapshot transactions commit trivially: every read was served
  // at the frozen snapshot, so there is nothing to validate, no lock to
  // take, no commit timestamp to draw, and no WAL record to write.
  // (snapshot_ts != 0 implies mv_ != nullptr; writes are rejected once the
  // snapshot is frozen, so HasWrites() can only hold for descriptors that
  // wrote before their first read and never froze one.)
  if (t->snapshot_ts != 0 && !t->HasWrites()) {
    return CommitSnapshotReadOnly(t);
  }
  TxnStats& s = stats(t->thread_id);
  const bool scan_txn = t->is_scan_txn;
  const uint32_t tid = t->thread_id;
  const uint64_t txn_id = t->txn_id;
  const uint64_t begin_nanos = t->begin_nanos;
  const uint64_t commit_start = NowNanos();
  obs::HeartbeatPhase(tid, obs::Phase::kValidate, commit_start);

  t->state.store(TxnState::kValidating, std::memory_order_release);
  bool ok = true;
  uint64_t cts = 0;
  // Writers announce their commit window to the watermark so snapshot
  // acquirers can prove every in-flight cts exceeds their snapshot.
  const bool mv_window = mv_ != nullptr && t->HasWrites();
  if (t->HasWrites()) {
    ok = LockWriteSet(t);
    if (ok) {
      // The write set is final once every lock is held: freeze the sorted
      // key fingerprints that validators will probe against, then publish.
      t->FreezeWriteFingerprints();
      RegisterWrites(t);  // Algorithm 1 steps 1-4: lock, then register
    } else {
      NoteAbortCause(t->thread_id, AbortReason::kLockFail);
    }
  }
  if (ok) {
    // Slot publish must precede the timestamp draw (clock.h, invariant i).
    if (mv_window) mv_->BeginCommit(tid);
    cts = clock_.Next();  // step 5: serialization point
    t->commit_ts.store(cts, std::memory_order_release);
    if (!ValidateReadSet(t)) {
      NoteAbortCause(t->thread_id, AbortReason::kReadValidation);
      ok = false;
    } else {
      ok = ValidateScans(t);  // protocols count their own abort causes
    }
  }
  const uint64_t validation_end = NowNanos();
  obs::HeartbeatPhase(tid, obs::Phase::kWriteApply, validation_end);

  if (ok) {
    uint64_t log_ticket = 0;
    if (t->HasWrites()) log_ticket = ApplyWritesAndUnlock(t, cts);
    // Slot clears only after every write is applied and every lock dropped:
    // once the watermark passes cts, readers at snapshots >= cts must find
    // the new versions in place.
    if (mv_window) mv_->EndCommit(tid);
    FinishTxn(t, TxnState::kCommitted);
    const uint64_t end = NowNanos();
    s.validation_ns += validation_end - commit_start;
    s.read_write_ns += (commit_start - begin_nanos) + (end - validation_end);
    s.commits++;
    s.latency_all.Record(end - begin_nanos);
    if (scan_txn) {
      s.scan_txn_commits++;
      s.latency_scan.Record(end - begin_nanos);
    }
    if (obs::Enabled()) {
      // Phase breakdown from the timestamps this path already takes; spans
      // only land in the ring for sampled transactions.
      s.phase_execute.Record(commit_start - begin_nanos);
      s.phase_validate.Record(validation_end - commit_start);
      s.phase_apply.Record(end - validation_end);
      obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, commit_start, txn_id);
      obs::SpanEvent(tid, obs::Phase::kValidate, commit_start, validation_end, txn_id);
      obs::SpanEvent(tid, obs::Phase::kWriteApply, validation_end, end, txn_id);
      obs::TxnCommit(tid, end, txn_id, scan_txn);
    }
    // The group-commit wait happens after the in-memory commit is fully
    // published (locks dropped, descriptor retired) so concurrent workers
    // are never stalled behind this worker's fsync batch.
    const uint64_t log_wait_ns = AwaitDurable(log_ticket, begin_nanos, tid, s);
    MaybeCaptureSlo(tid, txn_id, s, begin_nanos, commit_start, validation_end,
                    end, log_wait_ns, AbortReason::kNone);
    obs::HeartbeatClear(tid);
    return Status::Ok();
  }

  UnlockWriteSet(t);
  // The slot was only occupied if the timestamp draw happened; clear it
  // after the locks drop, same as the commit path.
  if (mv_window && cts != 0) mv_->EndCommit(tid);
  FinishTxn(t, TxnState::kAborted);
  const uint64_t end = NowNanos();
  s.abort_ns += end - begin_nanos;
  s.aborts++;
  if (scan_txn) s.scan_txn_aborts++;
  if (obs::Enabled()) {
    const ThreadCtx& ctx = *ctxs_[tid];
    obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, commit_start, txn_id);
    obs::SpanEvent(tid, obs::Phase::kValidate, commit_start, validation_end, txn_id);
    obs::TxnAbort(tid, end, txn_id,
                  static_cast<uint8_t>(ctx.last_abort_reason),
                  ctx.last_conflict_range);
  }
  MaybeCaptureSlo(tid, txn_id, s, begin_nanos, commit_start, validation_end,
                  end, 0, ctxs_[tid]->last_abort_reason);
  obs::HeartbeatClear(tid);
  return Status::Aborted();
}

Status OccBase::SnapshotScan(TxnDescriptor* t, uint32_t table_id,
                             uint64_t start_key, uint64_t end_key,
                             uint64_t limit, ScanConsumer* consumer) {
  // A snapshot cannot overlay this transaction's own uncommitted writes;
  // such transactions take the validating scan path instead (and MVCC-off
  // protocols always do).
  if (mv_ == nullptr || t->HasWrites()) {
    return Scan(t, table_id, start_key, end_key, limit, consumer);
  }
  if (t->snapshot_ts == 0) {
    t->snapshot_ts = mv_->AcquireSnapshot(t->thread_id);
  }
  const uint64_t snapshot = t->snapshot_ts;
  ThreadCtx& ctx = *ctxs_[t->thread_id];
  char* buf = ctx.scratch.data();
  TxnStats& s = stats(t->thread_id);
  const uint64_t chain_reads_before = s.mv_chain_reads;
  const uint64_t start_ns = obs::Sampled(t->thread_id) ? NowNanos() : 0;
  uint64_t n = 0;
  const uint64_t effective_end = end_key == 0 ? ~0ULL : end_key;
  // No read set, no predicates, no locks: every row resolves to its newest
  // version <= snapshot, so there is nothing to validate at commit and the
  // scan can never abort — regardless of concurrent writers.
  db_->GetIndex(table_id)->ScanRange(
      start_key, effective_end, [&](uint64_t key, Row* row) -> bool {
        switch (mv_->ReadAtSnapshot(row, snapshot, buf, &s)) {
          case mv::SnapshotRead::kInvisible:
            return true;
          case mv::SnapshotRead::kCurrent:
          case mv::SnapshotRead::kChain:
            break;
        }
        n++;
        const bool want_more = consumer == nullptr || consumer->OnRecord(key, buf);
        if (!want_more) return false;
        return !(limit != 0 && n >= limit);
      });
  // Same eviction discipline as SnapshotPointRead: if the pinned snapshot
  // was evicted mid-scan, the delivered records may mix versions — abort
  // before reporting the scan as complete.
  if (mv_->SnapshotEvicted(t->thread_id)) {
    NoteAbortCause(t->thread_id, AbortReason::kSnapshotEvicted);
    return Status::Aborted("snapshot evicted");
  }
  s.scanned_records += n;
  s.mv_snapshot_scans++;
  s.mv_snapshot_records += n;
  if (start_ns != 0) {
    obs::SnapshotScan(t->thread_id, start_ns, NowNanos(), n,
                      static_cast<uint32_t>(s.mv_chain_reads -
                                            chain_reads_before));
  }
  return Status::Ok();
}

void OccBase::Abort(TxnDescriptor* t) {
  // Read-phase abort: no locks are held before Commit runs. When no protocol
  // cause was latched, the workload abandoned the transaction voluntarily
  // (e.g. a NotFound mid-transaction): attribute kExplicit so the cause
  // counters still sum to `aborts`.
  NoteAbortCause(t->thread_id, AbortReason::kExplicit);
  TxnStats& s = stats(t->thread_id);
  const bool scan_txn = t->is_scan_txn;
  const uint32_t tid = t->thread_id;
  const uint64_t txn_id = t->txn_id;
  const uint64_t begin_nanos = t->begin_nanos;
  FinishTxn(t, TxnState::kAborted);
  const uint64_t end = NowNanos();
  s.abort_ns += end - begin_nanos;
  s.aborts++;
  if (scan_txn) s.scan_txn_aborts++;
  if (obs::Enabled()) {
    const ThreadCtx& ctx = *ctxs_[tid];
    obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, end, txn_id);
    obs::TxnAbort(tid, end, txn_id,
                  static_cast<uint8_t>(ctx.last_abort_reason),
                  ctx.last_conflict_range);
  }
  MaybeCaptureSlo(tid, txn_id, s, begin_nanos, end, end, end, 0,
                  ctxs_[tid]->last_abort_reason);
  obs::HeartbeatClear(tid);
}

}  // namespace rocc
