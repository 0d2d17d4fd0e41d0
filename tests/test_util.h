#ifndef TDE_TESTS_TEST_UTIL_H_
#define TDE_TESTS_TEST_UTIL_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/flow_table.h"
#include "src/plan/strategic.h"
#include "src/storage/heap_accelerator.h"
#include "src/textscan/parsers.h"

namespace tde {
namespace testutil {

/// Every strategic rewrite off: the plan runs as parsed — decode, then
/// filter, join, aggregate and sort — the control that rewritten plans are
/// compared against.
inline StrategicOptions AllRewritesOff() {
  StrategicOptions off;
  off.enable_invisible_join = false;
  off.enable_rank_join = false;
  off.enable_simplification = false;
  off.enable_filter_pushdown = false;
  off.enable_projection_pruning = false;
  off.enable_metadata_pruning = false;
  off.enable_run_filters = false;
  off.enable_dict_predicates = false;
  off.enable_dict_grouping = false;
  off.enable_run_aggregation = false;
  off.enable_metadata_aggregates = false;
  off.enable_topn = false;
  off.enable_dict_sort = false;
  off.enable_sort_pruning = false;
  return off;
}

/// A flow operator backed by in-memory lanes (column-major).
class VectorSource : public Operator {
 public:
  VectorSource(Schema schema, std::vector<ColumnVector> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {}

  static std::unique_ptr<VectorSource> Ints(
      std::vector<std::pair<std::string, std::vector<Lane>>> cols) {
    Schema schema;
    std::vector<ColumnVector> data;
    for (auto& [name, lanes] : cols) {
      schema.AddField({name, TypeId::kInteger});
      ColumnVector cv;
      cv.type = TypeId::kInteger;
      cv.lanes = std::move(lanes);
      data.push_back(std::move(cv));
    }
    return std::make_unique<VectorSource>(std::move(schema), std::move(data));
  }

  /// Adds a string column built from literal values.
  void AddStringColumn(const std::string& name,
                       const std::vector<std::string>& values) {
    schema_.AddField({name, TypeId::kString});
    ColumnVector cv;
    cv.type = TypeId::kString;
    auto heap = std::make_shared<StringHeap>();
    HeapAccelerator acc(heap.get());
    for (const auto& s : values) cv.lanes.push_back(acc.Add(s));
    cv.heap = std::move(heap);
    columns_.push_back(std::move(cv));
  }

  Status Open() override {
    row_ = 0;
    return Status::OK();
  }

  Status Next(Block* block, bool* eos) override {
    const uint64_t total = columns_.empty() ? 0 : columns_[0].lanes.size();
    if (row_ >= total) {
      block->columns.clear();
      *eos = true;
      return Status::OK();
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kBlockSize, total - row_));
    block->columns.clear();
    for (const ColumnVector& src : columns_) {
      ColumnVector cv;
      cv.type = src.type;
      cv.heap = src.heap;
      cv.lanes.assign(
          src.lanes.begin() + static_cast<ptrdiff_t>(row_),
          src.lanes.begin() + static_cast<ptrdiff_t>(row_ + take));
      block->columns.push_back(std::move(cv));
    }
    row_ += take;
    *eos = false;
    return Status::OK();
  }

  const Schema& output_schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<ColumnVector> columns_;
  uint64_t row_ = 0;
};

/// Flattens one column of drained blocks into a lane vector.
inline std::vector<Lane> Flatten(const std::vector<Block>& blocks,
                                 size_t col) {
  std::vector<Lane> out;
  for (const Block& b : blocks) {
    out.insert(out.end(), b.columns[col].lanes.begin(),
               b.columns[col].lanes.end());
  }
  return out;
}

/// Runs `fn(thread_index)` on `n` threads simultaneously (a start barrier
/// maximizes interleaving) and returns the first failure, prefixed with
/// the failing thread's index so a seeded workload can be replayed:
/// "[thread 3] <status>". OK when every thread succeeded. gtest-free so
/// scheduler/engine stress drivers and benchmarks can share it; in a test,
/// assert `RunConcurrently(...).ok()`.
inline Status RunConcurrently(int n,
                              const std::function<Status(int)>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  Status first_failure;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i]() {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++ready == n) {
          go = true;
          cv.notify_all();
        } else {
          cv.wait(lock, [&]() { return go; });
        }
      }
      Status st = fn(i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_failure.ok()) {
          first_failure = Status(st.code(), "[thread " + std::to_string(i) +
                                                "] " + std::string(st.message()));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return first_failure;
}

/// Drains an operator, aborting on failure (gtest-free so benchmarks can
/// share this header).
inline std::vector<Block> Drain(Operator* op) {
  std::vector<Block> out;
  const Status st = DrainOperator(op, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "Drain failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  return out;
}

/// A CSV whose awkward records sit on both sides of every TextScan chunk
/// boundary (a chunk is one block of rows): quoted separators, quoted
/// newlines, doubled quotes, CRLF endings, blank lines, unparseable REAL
/// fields and records longer than a whole chunk. Columns: id INTEGER,
/// note STRING, val REAL, tag STRING; a header line comes first. The
/// expected rows are recorded as the text is written.
struct AwkwardCsv {
  std::string text;
  Schema schema;
  std::vector<std::string> notes;  // per row
  std::vector<Lane> vals;          // per row; kNullSentinel if unparseable
  std::vector<std::string> tags;   // per row
  uint64_t parse_errors = 0;
};

inline AwkwardCsv MakeAwkwardCsv(size_t rows) {
  AwkwardCsv csv;
  csv.schema = Schema({{"id", TypeId::kInteger},
                       {"note", TypeId::kString},
                       {"val", TypeId::kReal},
                       {"tag", TypeId::kString}});
  csv.text = "id,note,val,tag\n";
  for (size_t r = 0; r < rows; ++r) {
    const std::string id = std::to_string(r);
    std::string note = "plain " + id;
    std::string note_field = note;
    std::string val = id + ".5";
    std::string end = "\n";
    // Three rows either side of each boundary; the kind rotates with the
    // boundary, so every kind lands at every distance from one.
    const size_t d = r % kBlockSize;
    if (d < 3 || d >= kBlockSize - 3) {
      switch ((r / kBlockSize + (d + 3) % kBlockSize) % 7) {
        case 0:
          note = "a,b " + id;
          note_field = "\"" + note + "\"";
          break;
        case 1:
          note = "line1\nline2 " + id;
          note_field = "\"" + note + "\"";
          break;
        case 2:
          note = "say \"hi\" " + id;
          note_field = "\"say \"\"hi\"\" " + id + "\"";
          break;
        case 3:
          end = "\r\n";
          break;
        case 4:
          csv.text += "\n\r\n";  // blank records are skipped
          break;
        case 5:
          val = "x" + id;
          ++csv.parse_errors;
          break;
        case 6:
          note.clear();
          for (int line = 0; line < 400; ++line) {
            note += std::string(99, static_cast<char>('a' + line % 26));
            note += line % 2 == 0 ? '\n' : ',';
          }
          note += id;
          note_field = "\"" + note + "\"";
          break;
      }
    }
    const std::string tag = "t" + std::to_string(r % 5);
    csv.text += id + "," + note_field + "," + val + "," + tag + end;
    Lane lane = kNullSentinel;
    if (!ParseField(TypeId::kReal, val, &lane)) lane = kNullSentinel;
    csv.notes.push_back(std::move(note));
    csv.vals.push_back(lane);
    csv.tags.push_back(tag);
  }
  return csv;
}

}  // namespace testutil
}  // namespace tde

#endif  // TDE_TESTS_TEST_UTIL_H_
