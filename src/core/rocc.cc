#include "core/rocc.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <inttypes.h>

#include "cc/occ_util.h"

namespace rocc {

Status ValidateRangeConfig(const RangeConfig& rc) {
  if (rc.key_min >= rc.key_max) {
    return Status::InvalidArgument("RangeConfig: key_min must be < key_max");
  }
  if (rc.ring_capacity == 0) {
    return Status::InvalidArgument("RangeConfig: ring_capacity must be > 0");
  }
  return Status::Ok();
}

Rocc::Rocc(Database* db, uint32_t num_threads, RoccOptions options)
    : OccBase(db, num_threads), options_(std::move(options)) {
  // Misconfiguration is a programming error: fail fast, before any worker
  // can run against a layout that cannot satisfy the protocol's invariants.
  managers_.resize(db->NumTables());
  for (const RangeConfig& rc : options_.tables) {
    const Status st = ValidateRangeConfig(rc);
    if (!st.ok() || rc.table_id >= db->NumTables()) {
      std::fprintf(stderr, "rocc: invalid RangeConfig for table %u: %s\n",
                   rc.table_id,
                   st.ok() ? "table_id out of range" : st.ToString().c_str());
      std::abort();
    }
    const uint64_t span = rc.key_max - rc.key_min;
    uint32_t num_ranges = rc.num_ranges == 0 ? 1 : rc.num_ranges;
    if (num_ranges > span) {
      std::fprintf(stderr,
                   "rocc: warning: table %u requests %u ranges over a span of "
                   "%" PRIu64 " keys; clamping to the span\n",
                   rc.table_id, num_ranges, span);
      num_ranges = static_cast<uint32_t>(span);
    }
    managers_[rc.table_id] = std::make_unique<RangeManager>(
        rc.key_min, rc.key_max, num_ranges, rc.ring_capacity);
  }
  for (size_t i = 0; i < managers_.size(); i++) {
    if (managers_[i] == nullptr) {
      managers_[i] = std::make_unique<RangeManager>(
          0, 1ULL << 62, 1, options_.default_ring_capacity);
    }
  }
}

std::vector<RangeTelemetry> Rocc::LiveRangeTelemetry(size_t top_n) {
  std::vector<RangeTelemetry> out;
  for (const auto& m : managers_) {
    if (m != nullptr) out.push_back(m->Telemetry(top_n));
  }
  return out;
}

Status Rocc::Scan(TxnDescriptor* t, uint32_t table_id, uint64_t start_key,
                  uint64_t end_key, uint64_t limit, ScanConsumer* consumer) {
  // Declared-read-only transactions opt out of range validation entirely:
  // resolve against the multi-version store at a frozen snapshot instead of
  // fencing predicates against writer rings. Such a scan can never
  // validate-abort. A multi-scan read-only transaction (BeginReadOnly) pins
  // ONE snapshot across all its scans and point reads — OccBase freezes
  // t->snapshot_ts on the first read, and every later operation reuses it —
  // so the whole transaction observes a single consistent cut.
  if (t->snapshot_reads && !t->HasWrites() && version_store() != nullptr) {
    return SnapshotScan(t, table_id, start_key, end_key, limit, consumer);
  }
  RangeManager* rm = managers_[table_id].get();
  const uint64_t end_bound = (end_key == 0) ? rm->key_max() : end_key;
  uint64_t cursor = std::max(start_key, rm->key_min());
  uint64_t produced = 0;
  const bool precise = PreciseBoundaries();

  while (cursor < end_bound && (limit == 0 || produced < limit)) {
    const uint32_t rid = rm->RangeOf(cursor);
    const uint64_t range_lo = rm->RangeStart(rid);
    const uint64_t range_end = rm->RangeEnd(rid);
    // Keys beyond the configured key space clamp into the last logical range
    // (writers register there too), so the last range absorbs any scan tail
    // past key_max — otherwise the cursor could never reach end_bound.
    const bool last_range = rid + 1 == rm->num_ranges();
    const uint64_t range_hi =
        last_range ? end_bound : std::min(range_end, end_bound);

    // Construct the predicate BEFORE scanning the range (§III-C2): taking
    // rd_ts first is the moral equivalent of acquiring a range read lock.
    RangePredicate p;
    p.table_id = table_id;
    p.range_id = rid;
    p.rd_ts = rm->ring(rid).Version();

    uint64_t last_key = 0;
    uint64_t n = 0;
    bool stopped = false;
    const uint64_t remaining = (limit == 0) ? 0 : limit - produced;
    Status st = ScanRecords(t, table_id, cursor, range_hi, remaining, consumer,
                            /*track_records=*/false, &last_key, &n, &stopped);
    if (!st.ok()) return st;
    produced += n;

    // A consumer stop bounds the scan exactly like reaching the limit: the
    // logical extent ends just past the last delivered key.
    const bool hit_limit = (limit != 0 && produced >= limit) || stopped;
    if (precise) {
      p.start_key = cursor;
      p.end_key = hit_limit ? last_key + 1 : range_hi;
      p.cover = !hit_limit && cursor <= range_lo && range_hi == range_end;
    } else {
      // MVRCC-style imprecision: every touched range counts as fully read.
      p.start_key = range_lo;
      p.end_key = range_end;
      p.cover = true;
    }
    t->predicates.push_back(p);

    if (hit_limit) break;
    cursor = range_hi;
  }
  return Status::Ok();
}

void Rocc::RegisterWrites(TxnDescriptor* t) {
  if (!options_.register_writes) return;
  TxnStats& s = stats(t->thread_id);
  for (const WriteEntry& we : t->write_set) {
    RangeManager* rm = managers_[we.table_id].get();
    const uint32_t rid = rm->RangeOf(we.key);
    // A transaction registers in each range only once (§V-H); the dedup
    // list holds (table, range) tags, kept sorted so the membership probe is
    // O(log R) even for bulk writers spanning many ranges.
    const uint64_t tag = (static_cast<uint64_t>(we.table_id) << 32) | rid;
    const auto it = std::lower_bound(t->registered_ranges.begin(),
                                     t->registered_ranges.end(), tag);
    if (it != t->registered_ranges.end() && *it == tag) continue;
    t->registered_ranges.insert(it, tag);
    rm->ring(rid).Register(t);
    s.registrations++;
    rm->stats(rid).registrations.fetch_add(1, std::memory_order_relaxed);
  }
}

void Rocc::NoteScanAbort(TxnDescriptor* t, const RangePredicate& p,
                         AbortReason reason) {
  NoteAbortCause(t->thread_id, reason);
  // Attribute the abort to the predicate's range for the trace: the abort
  // event then carries which range's ring the conflict came from. First
  // attribution wins, matching NoteAbortCause's first-reason-wins rule.
  if (ctxs_[t->thread_id]->last_conflict_range == obs::kNoRange) {
    ctxs_[t->thread_id]->last_conflict_range = p.range_id;
  }
  RangeStats& rs = managers_[p.table_id]->stats(p.range_id);
  std::atomic<uint64_t>& counter =
      reason == AbortReason::kRingLost ? rs.ring_lost : rs.scan_conflict;
  counter.fetch_add(1, std::memory_order_relaxed);
  // Contention heatmap: the same attribution, keyed by the full reason so
  // /vars and report --json can render range_id × AbortReason without a
  // trace dump. kNone never reaches this path (callers pass a real cause).
  const uint32_t col = AbortReasonColumn(reason);
  if (col > 0) {
    rs.abort_by_reason[col - 1].fetch_add(1, std::memory_order_relaxed);
  }
}

bool Rocc::ValidatePredicate(TxnDescriptor* t, const RangePredicate& p,
                             uint64_t my_cts, uint32_t* pace_counter) {
  RangeManager* rm = managers_[p.table_id].get();
  TxnRing& ring = rm->ring(p.range_id);
  TxnStats& s = stats(t->thread_id);

  // Effective key bounds of the predicate for precise checks: a covering
  // predicate spans its range, a partial one its observed extent.
  const uint64_t lo = p.cover ? rm->RangeStart(p.range_id) : p.start_key;
  const uint64_t hi = p.cover ? rm->RangeEnd(p.range_id) : p.end_key;

  const uint64_t v_ts = ring.Version();
  if (v_ts == p.rd_ts) return true;  // unchanged range: fast path
  if (v_ts - p.rd_ts >= ring.capacity()) {
    NoteScanAbort(t, p, AbortReason::kRingLost);
    return false;  // the ring wrapped: conflict information was lost
  }

  for (uint64_t seq = p.rd_ts + 1; seq <= v_ts; seq++) {
    TxnDescriptor* writer = ring.Get(seq);
    if (writer == nullptr) {
      NoteScanAbort(t, p, AbortReason::kRingLost);
      return false;  // slot overwritten concurrently
    }
    s.validated_txns++;
    PaceValidation(pace_counter);
    if (writer == t) continue;  // own registration
    if (writer->state.load(std::memory_order_acquire) == TxnState::kAborted) {
      continue;  // its writes were never applied
    }
    const uint64_t wcts = WaitForCommitTs(writer);
    if (wcts == 0) {
      // Aborted meanwhile, or unresolved past the spin budget.
      if (writer->state.load(std::memory_order_acquire) == TxnState::kAborted) {
        continue;
      }
      NoteAbortCause(t->thread_id, AbortReason::kUnresolved);
      return false;  // conservative
    }
    if (wcts > my_cts) continue;  // serializes after this transaction
    if (p.cover && options_.cover_fast_path) {
      // Any writer registered to a fully covered range intersects it.
      NoteScanAbort(t, p, AbortReason::kScanConflict);
      return false;
    }

    // Precise key check against the writer's frozen fingerprints
    // (Algorithm 1 steps 19-24). The fingerprints were built before the
    // writer registered, so the acquire on the ring slot makes them safely
    // readable here; the interval reject + binary search replaces the O(W)
    // writeset walk.
    PaceValidation(pace_counter);
    if (writer->WritesIntersect(p.table_id, lo, hi)) {
      NoteScanAbort(t, p, AbortReason::kScanConflict);
      return false;
    }
  }
  return true;
}

bool Rocc::ValidateScans(TxnDescriptor* t) {
  if (t->predicates.empty()) return true;
  const uint64_t my_cts = t->commit_ts.load(std::memory_order_relaxed);
  uint32_t pace_counter = 0;
  for (const RangePredicate& p : t->predicates) {
    if (!ValidatePredicate(t, p, my_cts, &pace_counter)) return false;
  }
  return true;
}

}  // namespace rocc
