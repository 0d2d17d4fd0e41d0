#include "src/textscan/inference.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/textscan/parsers.h"

namespace tde {

void SplitRecord(std::string_view record, char sep,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  bool in_quotes = false;
  for (size_t i = 0; i <= record.size(); ++i) {
    if (i == record.size() || (record[i] == sep && !in_quotes)) {
      fields->push_back(record.substr(start, i - start));
      start = i + 1;
      continue;
    }
    // A doubled quote inside a quoted field toggles twice — back to
    // quoted, which is exactly right for an escaped literal quote.
    if (record[i] == '"') in_quotes = !in_quotes;
  }
}

bool NextRecord(std::string_view data, size_t* pos, std::string_view* record) {
  if (*pos >= data.size()) return false;
  size_t end = *pos;
  bool in_quotes = false;
  while (end < data.size() && (data[end] != '\n' || in_quotes)) {
    if (data[end] == '"') in_quotes = !in_quotes;
    ++end;
  }
  size_t len = end - *pos;
  if (len > 0 && data[*pos + len - 1] == '\r') --len;
  *record = data.substr(*pos, len);
  *pos = end < data.size() ? end + 1 : end;
  return true;
}

size_t SkipRecords(std::string_view data, size_t* pos, size_t max_rows) {
  const char* const base = data.data();
  const size_t n = data.size();
  // First `c` in [from, to), or `to`.
  auto find = [base](char c, size_t from, size_t to) -> size_t {
    if (from >= to) return to;
    const void* hit = std::memchr(base + from, c, to - from);
    return hit == nullptr ? to : static_cast<const char*>(hit) - base;
  };
  size_t p = *pos;
  size_t rows = 0;
  while (rows < max_rows && p < n) {
    size_t end = find('\n', p, n);
    // Each quote before the candidate end opens a quoted stretch; a
    // newline before its closing quote is content, so the record runs on.
    for (size_t quote = find('"', p, end); quote < end;) {
      const size_t close = find('"', quote + 1, n);
      if (close == n) {  // unterminated: the record runs to the end
        end = n;
        break;
      }
      if (close > end) end = find('\n', close + 1, n);
      quote = find('"', close + 1, end);
    }
    size_t len = end - p;
    if (len > 0 && base[end - 1] == '\r') --len;
    rows += len > 0;
    p = end < n ? end + 1 : end;
  }
  *pos = p;
  return rows;
}

namespace {

/// Candidate types in specificity order: the earliest candidate with zero
/// (or minimal) errors wins, falling back to string.
constexpr std::array<TypeId, 5> kCandidates = {
    TypeId::kBool, TypeId::kInteger, TypeId::kDate, TypeId::kDateTime,
    TypeId::kReal};

char InferSeparator(std::string_view data, size_t sample_rows) {
  constexpr std::array<char, 4> kSeps = {',', '\t', '|', ';'};
  // Pick the separator whose per-record field count is most consistent
  // (and greater than one).
  char best = ',';
  double best_score = -1;
  for (char sep : kSeps) {
    size_t pos = 0;
    std::string_view rec;
    std::vector<std::string_view> fields;
    std::vector<size_t> counts;
    while (counts.size() < sample_rows && NextRecord(data, &pos, &rec)) {
      if (rec.empty()) continue;
      // Quote-aware: a separator inside a quoted field is content and
      // must not inflate this candidate's field count.
      SplitRecord(rec, sep, &fields);
      counts.push_back(fields.size());
    }
    if (counts.empty()) continue;
    const size_t mode = counts[0];
    if (mode <= 1) continue;
    size_t agree = 0;
    for (size_t c : counts) agree += (c == mode);
    const double score =
        static_cast<double>(agree) / static_cast<double>(counts.size()) +
        1e-6 * static_cast<double>(mode);
    if (score > best_score) {
      best_score = score;
      best = sep;
    }
  }
  return best;
}

}  // namespace

Result<InferredFormat> InferFormat(std::string_view data,
                                   const InferenceOptions& options) {
  InferredFormat out;
  out.field_separator = options.field_separator != 0
                            ? options.field_separator
                            : InferSeparator(data, options.sample_rows);

  // Collect a sample block of rows.
  std::vector<std::vector<std::string_view>> sample;
  size_t pos = 0;
  std::string_view rec;
  std::vector<std::string_view> fields;
  while (sample.size() < options.sample_rows + 1 &&
         NextRecord(data, &pos, &rec)) {
    if (rec.empty()) continue;
    SplitRecord(rec, out.field_separator, &fields);
    sample.push_back(fields);
  }
  if (sample.empty()) {
    return {Status::ParseError("no records in input")};
  }
  const size_t ncols = sample[0].size();

  // Competitive typing over rows 1..n (row 0 may be a header); the parser
  // producing the fewest errors wins (Sect. 5.1.1).
  std::vector<TypeId> types(ncols, TypeId::kString);
  for (size_t c = 0; c < ncols; ++c) {
    size_t best_errors = std::numeric_limits<size_t>::max();
    TypeId best = TypeId::kString;
    for (TypeId cand : kCandidates) {
      size_t errors = 0;
      size_t nonempty = 0;
      bool saw_alpha_bool = false;
      for (size_t r = 1; r < sample.size(); ++r) {
        if (c >= sample[r].size()) continue;
        const std::string_view f = TrimField(sample[r][c]);
        if (f.empty()) continue;
        ++nonempty;
        Lane lane;
        if (!ParseField(cand, f, &lane)) ++errors;
        if (cand == TypeId::kBool && !f.empty() &&
            (f[0] == 't' || f[0] == 'T' || f[0] == 'f' || f[0] == 'F')) {
          saw_alpha_bool = true;
        }
      }
      // A column of bare 0/1 digits is an integer, not a boolean: the bool
      // candidate only wins if a true/false spelling appears.
      if (cand == TypeId::kBool && !saw_alpha_bool) continue;
      if (nonempty == 0) {
        best = TypeId::kString;
        break;
      }
      if (errors == 0) {
        best = cand;
        best_errors = 0;
        break;  // candidates are ordered by specificity
      }
      if (errors < best_errors) {
        best_errors = errors;
        best = cand;
      }
    }
    // Only a perfect parse wins; otherwise the column stays a string.
    if (best_errors != 0 && best != TypeId::kString) best = TypeId::kString;
    types[c] = best;
  }

  // Header detection (Sect. 5.1.1): apply the winning parsers to the first
  // row; if there were errors, the values are the column names.
  bool header = false;
  for (size_t c = 0; c < ncols && c < sample[0].size(); ++c) {
    if (types[c] == TypeId::kString) continue;
    const std::string_view f = TrimField(sample[0][c]);
    if (f.empty()) continue;
    Lane lane;
    if (!ParseField(types[c], f, &lane)) {
      header = true;
      break;
    }
  }
  out.has_header = header;

  std::string scratch;
  for (size_t c = 0; c < ncols; ++c) {
    std::string name;
    if (header && c < sample[0].size()) {
      name = std::string(UnquoteField(sample[0][c], &scratch));
    }
    if (name.empty()) name = "col" + std::to_string(c);
    out.schema.AddField({std::move(name), types[c]});
  }
  return out;
}

}  // namespace tde
