#include "src/observe/import_stats.h"

#include <cstdio>

#include "src/observe/json.h"

namespace tde {
namespace observe {

namespace {
std::string Fmt(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
}  // namespace

uint64_t ImportStats::input_bytes() const {
  uint64_t n = 0;
  for (const ColumnImportStats& c : columns) n += c.input_bytes;
  return n;
}

uint64_t ImportStats::encoded_bytes() const {
  uint64_t n = 0;
  for (const ColumnImportStats& c : columns) n += c.encoded_bytes;
  return n;
}

double ImportStats::compression_ratio() const {
  const uint64_t enc = encoded_bytes();
  return enc == 0 ? 0.0
                  : static_cast<double>(input_bytes()) /
                        static_cast<double>(enc);
}

std::string ImportStats::ToString() const {
  std::string out = "import '" + table_name + "': " + std::to_string(rows) +
                    " rows, " + std::to_string(bytes_parsed) +
                    " bytes parsed, " + std::to_string(parse_errors) +
                    " parse errors, " + Fmt("%.0f", rows_per_second()) +
                    " rows/s, ratio " + Fmt("%.2f", compression_ratio()) +
                    "x\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %-24s %-10s %-18s %12s %12s %7s %7s %9s %9s\n", "column",
                "type", "encoding", "input", "encoded", "ratio", "changes",
                "start_ms", "task_ms");
  out += line;
  for (const ColumnImportStats& c : columns) {
    std::snprintf(line, sizeof(line),
                  "  %-24s %-10s %-18s %12llu %12llu %6.2fx %7d %9.2f %9.2f\n",
                  c.column.c_str(), c.type.c_str(), c.encoding.c_str(),
                  static_cast<unsigned long long>(c.input_bytes),
                  static_cast<unsigned long long>(c.encoded_bytes),
                  c.compression_ratio(), c.encoding_changes,
                  c.start_seconds * 1e3, c.task_seconds * 1e3);
    out += line;
  }
  return out;
}

std::string ImportStats::ToJson() const {
  std::string out = "{\"table\":\"" + JsonEscape(table_name) +
                    "\",\"rows\":" + std::to_string(rows) +
                    ",\"bytes_parsed\":" + std::to_string(bytes_parsed) +
                    ",\"parse_errors\":" + std::to_string(parse_errors) +
                    ",\"parse_seconds\":" + Fmt("%.6f", parse_seconds) +
                    ",\"encode_seconds\":" + Fmt("%.6f", encode_seconds) +
                    ",\"rows_per_second\":" + Fmt("%.1f", rows_per_second()) +
                    ",\"compression_ratio\":" +
                    Fmt("%.4f", compression_ratio()) + ",\"columns\":[";
  bool first = true;
  for (const ColumnImportStats& c : columns) {
    if (!first) out += ",";
    first = false;
    out += "{\"column\":\"" + JsonEscape(c.column) + "\",\"type\":\"" +
           JsonEscape(c.type) + "\",\"encoding\":\"" + JsonEscape(c.encoding) +
           "\",\"rows\":" + std::to_string(c.rows) +
           ",\"input_bytes\":" + std::to_string(c.input_bytes) +
           ",\"encoded_bytes\":" + std::to_string(c.encoded_bytes) +
           ",\"compression_ratio\":" + Fmt("%.4f", c.compression_ratio()) +
           ",\"encoding_changes\":" + std::to_string(c.encoding_changes) +
           ",\"bytes_written\":" + std::to_string(c.bytes_written) +
           ",\"header_manipulations\":" +
           std::to_string(c.header_manipulations) +
           ",\"token_width\":" + std::to_string(c.token_width) +
           ",\"start_seconds\":" + Fmt("%.6f", c.start_seconds) +
           ",\"task_seconds\":" + Fmt("%.6f", c.task_seconds) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace observe
}  // namespace tde
