// Closed-loop benchmark program. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --wal-dir DIR
//
// prints each metric by name with its unit and per-run diagnostics, and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 the per-layer metrics of a traced run. perfbench/run.py builds
// this program and supplies --wal-dir inside the checkout.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench/measure.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --wal-dir DIR\nworkloads:");
  for (const std::string& n : perfbench::CellNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, wal_dir;
  uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--wal-dir") {
      wal_dir = value;
    } else if (arg == "--seed") {
      ok = ParseUint(value, &seed);
      have_seed = ok;
    } else if (arg == "--seconds") {
      ok = ParseUint(value, &seconds);
    } else if (arg == "--trace") {
      ok = ParseUint(value, &trace);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument %s %s\n", arg.c_str(), value);
      Usage();
      return 2;
    }
  }
  const std::optional<perfbench::CellSpec> spec =
      perfbench::FindCell(workload, perfbench::Scale::kFull);
  if (!spec || !have_seed || seconds == 0 || seconds > 600 || trace > 1 ||
      wal_dir.empty()) {
    Usage();
    return 2;
  }

  perfbench::RunConfig config;
  config.spec = *spec;
  config.seed = seed;
  config.txns = seconds * spec->txns_per_second;
  config.wal_root = wal_dir;

  perfbench::RunReport report;
  try {
    report = trace == 1 ? perfbench::MeasurePerLayer(config)
                        : perfbench::MeasureEndToEnd(config);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }

  std::printf("workload %s seed %llu trace %llu\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(trace));
  std::printf("diag warmup_txns=%llu window_txns=%llu workers=%u\n",
              static_cast<unsigned long long>(spec->warmup_txns),
              static_cast<unsigned long long>(config.txns), spec->workers);
  for (const std::string& d : report.diagnostics) {
    std::printf("diag %s\n", d.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (!report.refused.empty()) {
    for (const std::string& p : report.refused) {
      std::fprintf(stderr, "perfbench: refusing percentile %s\n", p.c_str());
    }
    return 3;
  }

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); i++) {
    const perfbench::Metric& m = report.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
