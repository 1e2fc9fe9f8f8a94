#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/stats.h"

namespace rocc {

/// Aligned text table + CSV emitter used by the figure benchmarks so every
/// experiment prints the same rows the paper plots.
class ReportTable {
 public:
  explicit ReportTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  /// Render as an aligned text table.
  std::string ToText() const;
  /// Render as CSV (headers + rows).
  std::string ToCsv() const;

  /// Print both the text table and, when `csv` is true, the CSV block.
  void Print(bool csv = false) const;

  static std::string Fmt(double v, int precision = 2);
  static std::string Fmt(uint64_t v);

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable run report: accumulates named tables and rewrites one
/// JSON file after every addition, so the file on disk is always valid JSON
/// even when a sweeping binary is interrupted mid-run.
///
/// Cells that parse as finite numbers are emitted as JSON numbers, everything
/// else as strings, so downstream tooling can diff throughput trajectories
/// without knowing each table's column types.
class JsonReport {
 public:
  JsonReport(std::string binary, std::string parameters);

  /// Append a table (snapshot of its current rows) under `title`.
  void AddTable(const std::string& title, const ReportTable& table);

  std::string ToJson() const;

  /// Rewrite `path` with the full report; returns false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  struct Entry {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  std::string binary_;
  std::string environment_;
  std::string parameters_;
  std::vector<Entry> tables_;
};

/// Print the standard benchmark banner: title, environment (paper Table I),
/// and the parameter line.
void PrintBanner(const std::string& title, const std::string& params);

/// Standard retry-telemetry columns every bench appends to its tables:
/// give_ups, escalations, protected commits, mean / p99 attempts per commit,
/// and the total adaptive-backoff time in milliseconds. Use the two together
/// so every table reports the contention manager the same way.
std::vector<std::string> ContentionHeaders();
std::vector<std::string> ContentionCells(const TxnStats& stats);

/// Extended latency summary, one row per populated distribution: the
/// end-to-end latencies (all / scan / durable) and, when the flight recorder
/// ran, the per-phase breakdown (execute / validate / apply / log_wait).
/// Columns: kind, count, mean_us, p50_us, p95_us, p99_us, p999_us, stddev_us,
/// max_us. Empty distributions are skipped, so the table is stable across
/// configurations (no durable row without a log, no phase rows without obs).
ReportTable LatencySummaryTable(const TxnStats& stats);

/// Per-cause abort columns derived from the single AbortReasonName table:
/// headers are "abort_<name>" for every cause in kAbortCauses, cells the
/// matching counters. Use both together so every bench labels abort causes
/// identically.
std::vector<std::string> AbortBreakdownHeaders();
std::vector<std::string> AbortBreakdownCells(const TxnStats& stats);

}  // namespace rocc
