#include "cc/two_phase_locking.h"

#include <cstring>

#include "common/timer.h"
#include "mv/version_store.h"

namespace rocc {

bool TplNoWait::OwnsLock(const TxnDescriptor* t, const Row* row) const {
  return t->lock_index.Find(reinterpret_cast<uintptr_t>(row), 0) >= 0;
}

bool TplNoWait::AcquireLock(TxnDescriptor* t, Row* row) {
  if (OwnsLock(t, row)) return true;
  if (!row->TryLock()) {  // no-wait: the caller must abort
    NoteAbortCause(t->thread_id, AbortReason::kLockFail);
    return false;
  }
  t->lock_index.Put(reinterpret_cast<uintptr_t>(row), 0,
                    static_cast<int32_t>(t->read_set.size()));
  t->read_set.push_back({row, 0});
  return true;
}

Status TplNoWait::Read(TxnDescriptor* t, uint32_t table_id, uint64_t key, void* out) {
  Row* row = db_->GetIndex(table_id)->Get(key);
  if (row == nullptr) return Status::NotFound();
  if (!AcquireLock(t, row)) return Status::Aborted("lock conflict");
  if (row->IsAbsent() && t->FindWriteByRow(row) < 0) {
    return Status::NotFound();  // a foreign tombstone; own inserts overlay below
  }
  std::memcpy(out, row->Data(), row->payload_size);
  // Overlay deferred writes so reads see this transaction's prior updates:
  // the newest entry decides visibility, the chain replays chronologically.
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0) {
    if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) {
      return Status::NotFound();
    }
    t->ReplayChain(wi, static_cast<char*>(out));
  }
  return Status::Ok();
}

Status TplNoWait::Update(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                         const void* data, uint32_t size, uint32_t field_offset) {
  if (t->snapshot_ts != 0) {
    return Status::InvalidArgument("snapshot transaction is read-only");
  }
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0 && t->write_set[wi].kind == WriteEntry::Kind::kDelete) {
    return Status::NotFound();  // updating a row this txn already deleted
  }
  Row* row = db_->GetIndex(table_id)->Get(key);
  if (row == nullptr) return Status::NotFound();
  if (!AcquireLock(t, row)) return Status::Aborted("lock conflict");
  if (row->IsAbsent() && wi < 0) return Status::NotFound();
  WriteEntry we;
  we.row = row;
  we.key = key;
  we.table_id = table_id;
  we.kind = WriteEntry::Kind::kUpdate;
  we.locked = true;
  we.data_offset = t->AppendImage(data, size);
  we.data_size = size;
  we.field_offset = field_offset;
  t->AppendWrite(we);
  return Status::Ok();
}

Status TplNoWait::Insert(TxnDescriptor* t, uint32_t table_id, uint64_t key,
                         const void* payload) {
  if (t->snapshot_ts != 0) {
    return Status::InvalidArgument("snapshot transaction is read-only");
  }
  Table* tab = db_->GetTable(table_id);
  OrderedIndex* idx = db_->GetIndex(table_id);
  Row* placeholder = tab->CreatePlaceholderRow(key);  // locked + absent
  Status st = idx->Insert(key, placeholder);
  Row* target = placeholder;
  if (!st.ok()) {
    // The key is already indexed. A live row — or one locked by another
    // transaction — is a no-wait conflict; an unlocked tombstone is
    // resurrected in place (with versions on, deleted rows stay indexed
    // until GC, so this path is the normal reinsert route). Once locked it
    // must still be indexed: it may have been unlinked between Get and
    // TryLock (see OccBase::LockWriteSet).
    Row* existing = idx->Get(key);
    if (existing == nullptr || !existing->TryLock()) {
      NoteAbortCause(t->thread_id, AbortReason::kLockFail);
      return Status::Aborted("duplicate key");
    }
    if (!existing->IsAbsent() || idx->Get(key) != existing) {
      existing->Unlock();
      NoteAbortCause(t->thread_id, AbortReason::kLockFail);
      return Status::Aborted("duplicate key");
    }
    target = existing;
  }
  t->lock_index.Put(reinterpret_cast<uintptr_t>(target), 0,
                    static_cast<int32_t>(t->read_set.size()));
  t->read_set.push_back({target, 0});  // we hold its lock
  WriteEntry we;
  we.row = target;
  we.key = key;
  we.table_id = table_id;
  we.kind = WriteEntry::Kind::kInsert;
  we.locked = true;
  we.data_offset = t->AppendImage(payload, tab->row_size());
  we.data_size = tab->row_size();
  we.field_offset = 0;
  t->AppendWrite(we);
  return Status::Ok();
}

Status TplNoWait::Remove(TxnDescriptor* t, uint32_t table_id, uint64_t key) {
  if (t->snapshot_ts != 0) {
    return Status::InvalidArgument("snapshot transaction is read-only");
  }
  const int wi = t->FindWrite(table_id, key);
  if (wi >= 0 && t->write_set[wi].kind == WriteEntry::Kind::kDelete) {
    return Status::NotFound();  // already deleted by this txn
  }
  Row* row = db_->GetIndex(table_id)->Get(key);
  if (row == nullptr) return Status::NotFound();
  if (!AcquireLock(t, row)) return Status::Aborted("lock conflict");
  if (row->IsAbsent() && wi < 0) return Status::NotFound();
  WriteEntry we;
  we.row = row;
  we.key = key;
  we.table_id = table_id;
  we.kind = WriteEntry::Kind::kDelete;
  we.locked = true;
  we.data_offset = 0;
  we.data_size = 0;
  we.field_offset = 0;
  t->AppendWrite(we);
  return Status::Ok();
}

Status TplNoWait::Scan(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                       uint64_t end_key, uint64_t limit, ScanConsumer* consumer) {
  Status result = Status::Ok();
  uint64_t n = 0;
  char* buf = ctxs_[t->thread_id]->scratch.data();
  db_->GetIndex(table_id)->ScanRange(
      start_key, end_key == 0 ? ~0ULL : end_key, [&](uint64_t key, Row* row) -> bool {
        if (!AcquireLock(t, row)) {
          result = Status::Aborted("lock conflict");
          return false;
        }
        if (row->IsAbsent()) {
          // Own insert placeholders are delivered (read-your-own-writes);
          // foreign tombstones are invisible.
          const int wi = t->FindWriteByRow(row);
          if (wi < 0 || t->write_set[wi].kind != WriteEntry::Kind::kInsert) {
            return true;
          }
        }
        std::memcpy(buf, row->Data(), row->payload_size);
        const int wi = t->FindWrite(table_id, key);
        if (wi >= 0) {
          if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) return true;
          t->ReplayChain(wi, buf);
        }
        n++;
        const bool more = consumer == nullptr || consumer->OnRecord(key, buf);
        if (!more) return false;
        return !(limit != 0 && n >= limit);
      });
  stats(t->thread_id).scanned_records += n;
  return result;
}

void TplNoWait::ReleaseAll(TxnDescriptor* t, uint64_t commit_ts, bool committed) {
  for (const ReadEntry& re : t->read_set) {
    Row* row = re.row;
    if (!committed) {
      // Abort: the oldest entry for the row says what placeholder cleanup
      // (if any) is needed.
      const int wi = t->FindWriteByRow(row);
      if (wi >= 0 && t->write_set[wi].kind == WriteEntry::Kind::kInsert &&
          TidWord::Version(row->tid.load(std::memory_order_relaxed)) == 0) {
        // Fresh placeholder this transaction created: unlink it while still
        // locked, then unlock it, so no concurrent inserter can resurrect
        // it in between (see OccBase::UnlockWriteSet). A resurrected
        // tombstone (version > 0) instead falls through to a plain unlock,
        // restoring the delete marker — and, with versions on, keeping its
        // chain reachable for older snapshots.
        row->tid.store(TidWord::kAbsentBit | TidWord::kLockBit,
                       std::memory_order_release);
        db_->GetIndex(t->write_set[wi].table_id)->Remove(t->write_set[wi].key);
        row->tid.store(TidWord::kAbsentBit, std::memory_order_release);
      } else {
        row->Unlock();
      }
      continue;
    }
    // Commit: the NET kind — the newest entry in the row's chain — decides,
    // or an insert-then-delete chain would commit the row as live.
    const int wi = t->FindLatestWriteByRow(row);
    if (wi < 0) {
      row->Unlock();  // read-only lock
    } else if (t->write_set[wi].kind == WriteEntry::Kind::kDelete) {
      // With versions on, the tombstone stays indexed so older snapshots
      // can still reach its chain; GcQuiesce unindexes it later.
      if (mv_ == nullptr) {
        db_->GetIndex(t->write_set[wi].table_id)->Remove(t->write_set[wi].key);
      }
      row->UnlockAsDeleted(commit_ts);
    } else {
      row->UnlockWithVersion(commit_ts);
    }
  }
}

Status TplNoWait::Commit(TxnDescriptor* t) {
  TxnStats& s = stats(t->thread_id);
  const bool scan_txn = t->is_scan_txn;
  const uint32_t tid = t->thread_id;
  const uint64_t txn_id = t->txn_id;
  const uint64_t begin_nanos = t->begin_nanos;
  const uint64_t commit_start = NowNanos();
  obs::HeartbeatPhase(tid, obs::Phase::kWriteApply, commit_start);

  // Same watermark discipline as OccBase: announce the commit window before
  // drawing the timestamp, clear it after the shrink phase drops the locks.
  const bool mv_window = mv_ != nullptr && t->HasWrites();
  if (mv_window) mv_->BeginCommit(tid);
  const uint64_t cts = clock_.Next();
  t->commit_ts.store(cts, std::memory_order_release);
  // MVCC pre-pass: pre-images link before any payload write (see OccBase).
  if (mv_ != nullptr) {
    for (const WriteEntry& we : t->write_set) {
      if (we.prev >= 0 || we.row == nullptr) continue;
      mv_->InstallPredecessor(tid, we.row, &s);
    }
    mv::VersionStore::PublishFence();
  }
  // Locks were all acquired during the growing phase; apply and shrink.
  for (const WriteEntry& we : t->write_set) {
    if (we.kind == WriteEntry::Kind::kDelete) continue;
    std::memcpy(we.row->Data() + we.field_offset, t->ImageAt(we.data_offset),
                we.data_size);
  }
  // Same discipline as OccBase: the redo record is appended before the
  // shrink phase releases any lock, then the durability wait runs after the
  // in-memory commit is published.
  const uint64_t log_ticket = LogWrites(t, cts);
  ReleaseAll(t, cts, /*committed=*/true);
  if (mv_window) mv_->EndCommit(tid);
  FinishTxn(t, TxnState::kCommitted);

  const uint64_t end = NowNanos();
  s.validation_ns += end - commit_start;
  s.read_write_ns += commit_start - begin_nanos;
  s.commits++;
  s.latency_all.Record(end - begin_nanos);
  if (scan_txn) {
    s.scan_txn_commits++;
    s.latency_scan.Record(end - begin_nanos);
  }
  if (obs::Enabled()) {
    // 2PL has no separate validation: the commit-entry -> end window is the
    // apply + shrink phase.
    s.phase_execute.Record(commit_start - begin_nanos);
    s.phase_apply.Record(end - commit_start);
    obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, commit_start, txn_id);
    obs::SpanEvent(tid, obs::Phase::kWriteApply, commit_start, end, txn_id);
    obs::TxnCommit(tid, end, txn_id, scan_txn);
  }
  const uint64_t log_wait_ns = AwaitDurable(log_ticket, begin_nanos, tid, s);
  // 2PL has no validation window: attribute commit-entry -> end to apply.
  MaybeCaptureSlo(tid, txn_id, s, begin_nanos, commit_start, commit_start, end,
                  log_wait_ns, AbortReason::kNone);
  obs::HeartbeatClear(tid);
  return Status::Ok();
}

void TplNoWait::Abort(TxnDescriptor* t) {
  // No cause latched = the workload abandoned the transaction voluntarily.
  NoteAbortCause(t->thread_id, AbortReason::kExplicit);
  TxnStats& s = stats(t->thread_id);
  const bool scan_txn = t->is_scan_txn;
  const uint32_t tid = t->thread_id;
  const uint64_t txn_id = t->txn_id;
  const uint64_t begin_nanos = t->begin_nanos;
  ReleaseAll(t, 0, /*committed=*/false);
  FinishTxn(t, TxnState::kAborted);
  const uint64_t end = NowNanos();
  s.abort_ns += end - begin_nanos;
  s.aborts++;
  if (scan_txn) s.scan_txn_aborts++;
  if (obs::Enabled()) {
    obs::SpanEvent(tid, obs::Phase::kExecute, begin_nanos, end, txn_id);
    obs::TxnAbort(tid, end, txn_id, static_cast<uint8_t>(LastAbortReason(tid)),
                  obs::kNoRange);
  }
  MaybeCaptureSlo(tid, txn_id, s, begin_nanos, end, end, end, 0,
                  LastAbortReason(tid));
  obs::HeartbeatClear(tid);
}

}  // namespace rocc
