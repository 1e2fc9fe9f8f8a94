#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/cells.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Set-ups per end-to-end run; the median is setup_s.
inline constexpr uint32_t kSetups = 5;
/// Slices of each window; every timing is the median over the slices.
inline constexpr uint32_t kSlices = 10;

/// One invocation of the benchmark on one cell.
struct RunConfig {
  CellSpec spec;
  uint64_t seed = 1;
  uint64_t txns = 0;      ///< logical transactions in the measured window
  std::string wal_root;   ///< parent of the per-engine WAL directories
};

struct RunReport {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;   ///< correctness gate; empty = correct
  std::vector<std::string> refused;    ///< percentiles the samples cannot support
  std::vector<std::string> diagnostics;
  uint64_t attempted = 0;
  uint64_t failed = 0;                 ///< logical txns that did not commit

  bool correct() const { return failures.empty(); }
  const Metric* Find(const std::string& name) const;
};

/// Untraced run: the end-to-end metrics.
RunReport MeasureEndToEnd(const RunConfig& config);

/// An untraced window (for the tracing overhead) followed by a traced window
/// on a fresh engine: the per-layer metrics.
RunReport MeasurePerLayer(const RunConfig& config);

}  // namespace perfbench
