#include "src/observe/query_stats.h"

#include <cstdio>

#include "src/observe/json.h"

namespace tde {
namespace observe {

namespace {

std::string Ms(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

using Numbers = std::vector<std::pair<std::string, uint64_t>>;

/// The node's nonzero query counts, labelled with their tde_queries column
/// names.
Numbers Counts(const OperatorStats& node) {
  Numbers out;
  for (int i = 0; i < kNumQueryCounters; ++i) {
    const uint64_t n = node.counts[static_cast<size_t>(i)];
    if (n > 0) {
      out.emplace_back(QueryCounterColumnName(static_cast<QueryCounter>(i)),
                       n);
    }
  }
  return out;
}

void RenderNode(const OperatorStats& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  *out += "  rows=" + std::to_string(node.rows) +
          " blocks=" + std::to_string(node.blocks) +
          " time=" + Ms(node.total_ns());
  if (node.task_ns > 0) *out += " task=" + Ms(node.task_ns);
  if (!node.children.empty()) {
    *out += " (self " + Ms(node.self_ns()) + ")";
  }
  for (const Numbers& numbers : {node.extras, Counts(node)}) {
    for (const auto& [label, value] : numbers) {
      *out += " " + label + "=" + std::to_string(value);
    }
  }
  for (const auto& [label, value] : node.tags) {
    *out += " " + label + "=" + value;
  }
  *out += "\n";
  for (const auto& child : node.children) {
    RenderNode(*child, depth + 1, out);
  }
}

/// ,"key":{"label":value,...}, or nothing when `numbers` is empty.
void JsonNumbers(const char* key, const Numbers& numbers, std::string* out) {
  if (numbers.empty()) return;
  *out += std::string(",\"") + key + "\":{";
  for (size_t i = 0; i < numbers.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "\"" + JsonEscape(numbers[i].first) +
            "\":" + std::to_string(numbers[i].second);
  }
  *out += "}";
}

void JsonNode(const OperatorStats& node, std::string* out) {
  *out += "{\"name\":\"" + JsonEscape(node.name) +
          "\",\"rows\":" + std::to_string(node.rows) +
          ",\"blocks\":" + std::to_string(node.blocks) +
          ",\"open_ns\":" + std::to_string(node.open_ns) +
          ",\"next_ns\":" + std::to_string(node.next_ns) +
          ",\"close_ns\":" + std::to_string(node.close_ns);
  if (node.task_ns > 0) {
    *out += ",\"task_ns\":" + std::to_string(node.task_ns);
  }
  JsonNumbers("extras", node.extras, out);
  JsonNumbers("counts", Counts(node), out);
  if (!node.tags.empty()) {
    *out += ",\"tags\":{";
    bool first = true;
    for (const auto& [label, value] : node.tags) {
      if (!first) *out += ",";
      first = false;
      *out += "\"" + JsonEscape(label) + "\":\"" + JsonEscape(value) + "\"";
    }
    *out += "}";
  }
  *out += ",\"children\":[";
  bool first = true;
  for (const auto& child : node.children) {
    if (!first) *out += ",";
    first = false;
    JsonNode(*child, out);
  }
  *out += "]}";
}

}  // namespace

uint64_t OperatorStats::self_ns() const {
  uint64_t t = task_ns > 0 ? task_ns : total_ns();
  for (const auto& child : children) {
    const uint64_t c = child->total_ns();
    t = t > c ? t - c : 0;
  }
  return t;
}

void OperatorStats::SumCounts(
    std::array<uint64_t, kNumQueryCounters>* sum) const {
  for (size_t i = 0; i < counts.size(); ++i) (*sum)[i] += counts[i];
  for (const auto& child : children) child->SumCounts(sum);
}

std::string QueryStats::ToString() const {
  std::string out;
  if (root != nullptr) RenderNode(*root, 0, &out);
  out += "total: " + Ms(total_ns) + "\n";
  if (journal_id != 0) {
    out += "journal query id: " + std::to_string(journal_id) + "\n";
  }
  if (!notes.empty()) {
    out += "tactical decisions:\n";
    for (const std::string& n : notes) {
      out += "  " + n + "\n";
    }
  }
  return out;
}

std::string QueryStats::ToJson() const {
  std::string out = "{\"total_ns\":" + std::to_string(total_ns) + ",\"root\":";
  if (root != nullptr) {
    JsonNode(*root, &out);
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

}  // namespace observe
}  // namespace tde
