#include "src/textscan/text_scan.h"

#include <chrono>
#include <cstdio>

#include "src/exec/scheduler.h"
#include "src/textscan/parsers.h"

namespace tde {

namespace {
/// Chunks (one block of rows each) cut per batch: enough tasks to keep
/// every worker busy between the batch's serial boundary pass and its
/// Wait().
constexpr size_t kBatchChunks = 64;
}  // namespace

Result<std::unique_ptr<TextScan>> TextScan::FromFile(const std::string& path,
                                                     TextScanOptions options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {Status::IOError("cannot open '" + path + "'")};
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string data(static_cast<size_t>(size), '\0');
  const size_t got = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) {
    return {Status::IOError("short read from '" + path + "'")};
  }
  return std::unique_ptr<TextScan>(
      new TextScan(std::move(data), std::move(options)));
}

std::unique_ptr<TextScan> TextScan::FromBuffer(std::string data,
                                               TextScanOptions options) {
  return std::unique_ptr<TextScan>(
      new TextScan(std::move(data), std::move(options)));
}

Status TextScan::Open() {
  pos_ = 0;
  parse_errors_ = 0;
  pending_.clear();
  input_done_ = false;
  scan_stats_ = TextScanStats{};
  scan_stats_.bytes = data_.size();

  if (options_.schema.has_value()) {
    format_.schema = *options_.schema;
    format_.has_header = options_.has_header.value_or(false);
    format_.field_separator =
        options_.field_separator != 0 ? options_.field_separator : ',';
  } else {
    InferenceOptions inf;
    inf.sample_rows = options_.sample_rows;
    inf.field_separator = options_.field_separator;
    TDE_ASSIGN_OR_RETURN(format_, InferFormat(data_, inf));
    if (options_.has_header.has_value()) {
      // Inference only names columns from a header it detected itself; a
      // caller overriding its verdict (an all-string table defeats the
      // competitive-parsing heuristic) still wants the first row's names.
      if (*options_.has_header && !format_.has_header) {
        AdoptHeaderNames();
      }
      format_.has_header = *options_.has_header;
    }
  }

  schema_ = Schema();
  col_map_.clear();
  if (options_.columns.empty()) {
    for (size_t i = 0; i < format_.schema.num_fields(); ++i) {
      schema_.AddField(format_.schema.field(i));
      col_map_.push_back(i);
    }
  } else {
    for (const std::string& name : options_.columns) {
      TDE_ASSIGN_OR_RETURN(size_t i, format_.schema.FieldIndex(name));
      schema_.AddField(format_.schema.field(i));
      col_map_.push_back(i);
    }
  }

  // Skip the header record.
  if (format_.has_header) {
    std::string_view rec;
    NextRecord(data_, &pos_, &rec);
  }
  return Status::OK();
}

void TextScan::AdoptHeaderNames() {
  size_t pos = 0;
  std::string_view rec;
  if (!NextRecord(data_, &pos, &rec)) return;
  std::vector<std::string_view> fields;
  SplitRecord(rec, format_.field_separator, &fields);
  Schema renamed;
  for (size_t c = 0; c < format_.schema.num_fields(); ++c) {
    std::string name;
    if (c < fields.size()) {
      std::string_view f = fields[c];
      if (f.size() >= 2 && f.front() == '"' && f.back() == '"') {
        f.remove_prefix(1);
        f.remove_suffix(1);
        for (size_t i = 0; i < f.size(); ++i) {
          name += f[i];
          if (f[i] == '"' && i + 1 < f.size() && f[i + 1] == '"') ++i;
        }
      } else {
        name = std::string(f);
      }
    }
    if (name.empty()) name = format_.schema.field(c).name;
    renamed.AddField({std::move(name), format_.schema.field(c).type});
  }
  format_.schema = std::move(renamed);
}

Status TextScan::FillBatch() {
  const auto t0 = std::chrono::steady_clock::now();
  // One serial pass cuts the batch into record-aligned chunks of one block
  // each, looking only at newlines and quote parity.
  struct Chunk {
    size_t begin = 0;
    size_t end = 0;
    size_t rows = 0;
  };
  std::vector<Chunk> chunks;
  while (chunks.size() < kBatchChunks) {
    Chunk chunk;
    chunk.begin = pos_;
    chunk.rows = SkipRecords(data_, &pos_, kBlockSize);
    chunk.end = pos_;
    if (chunk.rows == 0) break;
    chunks.push_back(chunk);
  }
  if (chunks.empty()) {
    input_done_ = true;
    return Status::OK();
  }

  // Each chunk tokenizes and parses its records in its own task: the
  // parsers share only read-only state and take no locale lock (Sect.
  // 5.1.2-5.1.3). Wait() helps, so a scan driven from a pool thread
  // cannot stall the pool.
  std::vector<Block> blocks(chunks.size());
  std::vector<uint64_t> errors(chunks.size(), 0);
  auto group = TaskScheduler::Global().CreateGroup();
  for (size_t i = 0; i < chunks.size(); ++i) {
    group->Submit([&, i]() {
      errors[i] = ParseChunk(chunks[i].begin, chunks[i].end, chunks[i].rows,
                             &blocks[i]);
    });
  }
  group->Wait();

  for (size_t i = 0; i < chunks.size(); ++i) {
    parse_errors_ += errors[i];
    scan_stats_.rows += chunks[i].rows;
    pending_.push_back(std::move(blocks[i]));
  }
  scan_stats_.parse_errors = parse_errors_;
  scan_stats_.parse_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return Status::OK();
}

uint64_t TextScan::ParseChunk(size_t begin, size_t end, size_t rows,
                              Block* out) const {
  const size_t ncols = col_map_.size();
  out->columns.resize(ncols);
  std::vector<StringHeap*> heaps(ncols, nullptr);  // the chunk's own
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVector& cv = out->columns[c];
    cv.type = schema_.field(c).type;
    cv.lanes.resize(rows);
    if (cv.type == TypeId::kString) {
      auto heap = std::make_shared<StringHeap>();
      heaps[c] = heap.get();
      cv.heap = std::move(heap);
    }
  }
  // The chunk ends on a record boundary, so reading only up to `end` yields
  // exactly the records a whole-buffer read would.
  const std::string_view data(data_.data(), end);
  size_t pos = begin;
  std::string_view rec;
  std::vector<std::string_view> fields;
  std::string scratch;
  uint64_t errors = 0;
  for (size_t r = 0; r < rows && NextRecord(data, &pos, &rec);) {
    if (rec.empty()) continue;
    SplitRecord(rec, format_.field_separator, &fields);
    for (size_t c = 0; c < ncols; ++c) {
      ColumnVector& cv = out->columns[c];
      const size_t file_col = col_map_[c];
      Lane& lane = cv.lanes[r];
      if (file_col >= fields.size()) {
        lane = kNullSentinel;
      } else if (heaps[c] != nullptr) {
        const std::string_view f = UnquoteField(fields[file_col], &scratch);
        lane = f.empty() ? kNullSentinel : heaps[c]->Add(f);
      } else if (!ParseField(cv.type, fields[file_col], &lane)) {
        lane = kNullSentinel;
        ++errors;
      }
    }
    ++r;
  }
  return errors;
}

Status TextScan::Next(Block* block, bool* eos) {
  if (pending_.empty() && !input_done_) {
    TDE_RETURN_NOT_OK(FillBatch());
  }
  if (pending_.empty()) {
    block->columns.clear();
    *eos = true;
    return Status::OK();
  }
  *block = std::move(pending_.front());
  pending_.pop_front();
  *eos = false;
  return Status::OK();
}

}  // namespace tde
