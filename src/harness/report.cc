#include "harness/report.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/sysinfo.h"

namespace rocc {

ReportTable::ReportTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void ReportTable::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string ReportTable::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string ReportTable::Fmt(uint64_t v) { return std::to_string(v); }

std::string ReportTable::ToText() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); c++) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); c++) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); c++) {
      out << "  ";
      out << cells[c];
      for (size_t pad = cells[c].size(); pad < widths[c]; pad++) out << ' ';
    }
    out << '\n';
  };
  emit(headers_);
  std::string rule;
  for (size_t c = 0; c < headers_.size(); c++) rule += "  " + std::string(widths[c], '-');
  out << rule << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string ReportTable::ToCsv() const {
  std::ostringstream out;
  for (size_t c = 0; c < headers_.size(); c++) {
    out << headers_[c] << (c + 1 < headers_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); c++) {
      out << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
  }
  return out.str();
}

void ReportTable::Print(bool csv) const {
  std::fputs(ToText().c_str(), stdout);
  if (csv) {
    std::fputs("\n[csv]\n", stdout);
    std::fputs(ToCsv().c_str(), stdout);
  }
  std::fflush(stdout);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A cell is a JSON number when strtod consumes it fully and the value is
/// finite (JSON has no nan/inf literals).
bool IsJsonNumber(const std::string& s) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && errno == 0 && std::isfinite(v);
}

void EmitJsonValue(std::ostringstream& out, const std::string& cell) {
  if (IsJsonNumber(cell)) {
    out << cell;
  } else {
    out << '"' << JsonEscape(cell) << '"';
  }
}

}  // namespace

JsonReport::JsonReport(std::string binary, std::string parameters)
    : binary_(std::move(binary)),
      environment_(SysInfo::Probe().ToString()),
      parameters_(std::move(parameters)) {}

void JsonReport::AddTable(const std::string& title, const ReportTable& table) {
  tables_.push_back({title, table.headers(), table.rows()});
}

std::string JsonReport::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"binary\": \"" << JsonEscape(binary_) << "\",\n";
  out << "  \"environment\": \"" << JsonEscape(environment_) << "\",\n";
  out << "  \"parameters\": \"" << JsonEscape(parameters_) << "\",\n";
  out << "  \"tables\": [";
  for (size_t ti = 0; ti < tables_.size(); ti++) {
    const Entry& e = tables_[ti];
    out << (ti == 0 ? "\n" : ",\n");
    out << "    {\n      \"title\": \"" << JsonEscape(e.title) << "\",\n";
    out << "      \"rows\": [";
    for (size_t ri = 0; ri < e.rows.size(); ri++) {
      out << (ri == 0 ? "\n" : ",\n") << "        {";
      const auto& row = e.rows[ri];
      for (size_t c = 0; c < e.headers.size() && c < row.size(); c++) {
        if (c > 0) out << ", ";
        out << '"' << JsonEscape(e.headers[c]) << "\": ";
        EmitJsonValue(out, row[c]);
      }
      out << '}';
    }
    out << "\n      ]\n    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool JsonReport::WriteTo(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << ToJson();
  return static_cast<bool>(out);
}

std::vector<std::string> ContentionHeaders() {
  return {"give_ups",      "escalations",  "protected_commits",
          "attempts_mean", "attempts_p99", "backoff_ms"};
}

std::vector<std::string> ContentionCells(const TxnStats& stats) {
  const Histogram& a = stats.attempts_per_commit;
  return {ReportTable::Fmt(stats.give_ups),
          ReportTable::Fmt(stats.escalations),
          ReportTable::Fmt(stats.protected_commits),
          ReportTable::Fmt(a.count() == 0 ? 0.0 : a.Mean(), 2),
          ReportTable::Fmt(static_cast<uint64_t>(a.Percentile(99))),
          ReportTable::Fmt(static_cast<double>(stats.backoff_ns_total) / 1e6, 3)};
}

ReportTable LatencySummaryTable(const TxnStats& stats) {
  ReportTable table({"kind", "count", "mean_us", "p50_us", "p95_us", "p99_us",
                     "p999_us", "stddev_us", "max_us"});
  struct NamedHist {
    const char* kind;
    const Histogram* h;
  };
  const NamedHist hists[] = {
      {"all", &stats.latency_all},
      {"scan", &stats.latency_scan},
      {"durable", &stats.latency_durable},
      {"phase_execute", &stats.phase_execute},
      {"phase_validate", &stats.phase_validate},
      {"phase_apply", &stats.phase_apply},
      {"phase_log_wait", &stats.phase_log_wait},
  };
  for (const NamedHist& nh : hists) {
    const Histogram& h = *nh.h;
    if (h.count() == 0) continue;
    table.AddRow({nh.kind, ReportTable::Fmt(h.count()),
                  ReportTable::Fmt(h.Mean() / 1e3, 1),
                  ReportTable::Fmt(static_cast<double>(h.Percentile(50)) / 1e3, 1),
                  ReportTable::Fmt(static_cast<double>(h.Percentile(95)) / 1e3, 1),
                  ReportTable::Fmt(static_cast<double>(h.Percentile(99)) / 1e3, 1),
                  ReportTable::Fmt(static_cast<double>(h.Percentile(99.9)) / 1e3, 1),
                  ReportTable::Fmt(h.Stddev() / 1e3, 1),
                  ReportTable::Fmt(static_cast<double>(h.max()) / 1e3, 1)});
  }
  return table;
}

std::vector<std::string> AbortBreakdownHeaders() {
  std::vector<std::string> headers;
  headers.reserve(kNumAbortCauses);
  for (AbortReason r : kAbortCauses) {
    headers.push_back(std::string("abort_") + AbortReasonName(r));
  }
  return headers;
}

std::vector<std::string> AbortBreakdownCells(const TxnStats& stats) {
  std::vector<std::string> cells;
  cells.reserve(kNumAbortCauses);
  for (AbortReason r : kAbortCauses) {
    cells.push_back(ReportTable::Fmt(AbortCauseCount(stats, r)));
  }
  return cells;
}

void PrintBanner(const std::string& title, const std::string& params) {
  const SysInfo info = SysInfo::Probe();
  std::printf("=== %s ===\n", title.c_str());
  std::printf("environment: %s\n", info.ToString().c_str());
  if (!params.empty()) std::printf("parameters : %s\n", params.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace rocc
