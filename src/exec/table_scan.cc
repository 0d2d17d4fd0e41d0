#include "src/exec/table_scan.h"

#include <algorithm>

#include "src/observe/journal.h"

namespace tde {

TableScan::TableScan(std::shared_ptr<const Table> table,
                     TableScanOptions options)
    : table_(std::move(table)), options_(std::move(options)) {
  if (options_.code_tables == nullptr) {
    options_.code_tables = std::make_shared<ScanCodeTables>();
  }
  if (options_.columns.empty()) {
    for (size_t i = 0; i < table_->num_columns(); ++i) {
      cols_.push_back(table_->column_ptr(i));
    }
  } else {
    for (const std::string& name : options_.columns) {
      auto r = table_->ColumnByName(name);
      if (!r.ok()) {
        init_error_ = r.status();
        return;
      }
      cols_.push_back(r.MoveValue());
    }
  }
  for (const auto& col : cols_) schema_.AddField({col->name(), col->type()});
}

Status TableScan::Open() {
  rows_scanned_ = 0;
  TDE_RETURN_NOT_OK(init_error_);
  // Normalize the visit list once: sorted, disjoint, clamped to the table.
  ranges_ = NormalizeRanges(options_.ranges);
  const uint64_t total = table_->rows();
  if (ranges_.empty()) {
    ranges_.push_back({0, total});
  } else {
    for (RowRange& r : ranges_) r.end = std::min(r.end, total);
    ranges_ = NormalizeRanges(std::move(ranges_));
    if (ranges_.empty()) ranges_.push_back({0, 0});  // fully pruned scan
  }
  range_idx_ = 0;
  row_ = ranges_.front().begin;
  // Per-row stored width across the scanned columns, priced once: the
  // decode loop only bumps a row count, and Close converts rows into the
  // compressed/decoded byte counters.
  stored_bytes_per_block_row_ = 0;
  for (const auto& col : cols_) {
    stored_bytes_per_block_row_ += col->TokenWidth();
  }
  // Pin cold columns for the whole scan: one cache touch per column per
  // query, and the payload cannot be evicted while blocks reference it.
  pins_.assign(cols_.size(), nullptr);
  for (size_t i = 0; i < cols_.size(); ++i) {
    TDE_ASSIGN_OR_RETURN(pins_[i], cols_[i]->Pin());
  }
  // Entry tables for code-mode columns, built once for every copy of this
  // scan, so every block shares one table and the mode cannot change
  // mid-scan.
  ScanCodeTables& shared = *options_.code_tables;
  std::lock_guard<std::mutex> lock(shared.mu);
  if (!shared.built) {
    shared.dicts.assign(cols_.size(), nullptr);
    const auto& names = options_.code_columns;
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (std::find(names.begin(), names.end(), cols_[i]->name()) !=
          names.end()) {
        shared.dicts[i] = CodeEntryTable(cols_[i], pins_[i].get());
      }
    }
    shared.built = true;
  }
  code_dicts_ = shared.dicts;
  return Status::OK();
}

std::shared_ptr<const ArrayDictionary> CodeEntryTable(
    const std::shared_ptr<const Column>& column,
    const pager::LoadedColumn* pin) {
  if (column->compression() == CompressionKind::kArrayDict) {
    // The stored tokens are already dense codes into the dictionary.
    return pin ? std::shared_ptr<const ArrayDictionary>(pin->dict)
               : std::shared_ptr<const ArrayDictionary>(column,
                                                        column->array_dict());
  }
  const EncodedStream* stream = pin ? pin->stream.get() : column->data();
  if (column->compression() != CompressionKind::kHeap || stream == nullptr ||
      stream->type() != EncodingType::kDictionary) {
    return nullptr;  // no dense code: the column decodes normally
  }
  auto d = std::make_shared<ArrayDictionary>();
  d->type = column->type();
  d->values = stream->CodeEntries();
  return d;
}

void TableScan::Close() {
  pins_.clear();
  observe::QueryCount(observe::QueryCounter::kBytesScannedCompressed,
                      rows_scanned_ * stored_bytes_per_block_row_);
  observe::QueryCount(observe::QueryCounter::kBytesScannedDecoded,
                      rows_scanned_ * cols_.size() * sizeof(Lane));
  rows_scanned_ = 0;
}

Status TableScan::Next(Block* block, bool* eos) {
  block->columns.assign(cols_.size(), ColumnVector{});
  while (range_idx_ < ranges_.size() && row_ >= ranges_[range_idx_].end) {
    ++range_idx_;
    if (range_idx_ < ranges_.size()) row_ = ranges_[range_idx_].begin;
  }
  if (range_idx_ >= ranges_.size()) {
    *eos = true;
    return Status::OK();
  }
  const size_t take = static_cast<size_t>(
      std::min<uint64_t>(kBlockSize, ranges_[range_idx_].end - row_));
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Column& col = *cols_[i];
    const pager::LoadedColumn* pin = pins_[i].get();
    ColumnVector& out = block->columns[i];
    out.type = col.type();
    out.lanes.resize(take);
    const EncodedStream* stream = pin ? pin->stream.get() : col.data();
    if (stream == nullptr) {
      return Status::Internal("column has no data stream");
    }
    if (code_dicts_[i] != nullptr &&
        col.compression() == CompressionKind::kHeap &&
        stream->GetCodes(row_, take, out.lanes.data())) {
      // Compressed-domain emission: lanes are dense dictionary codes into
      // the attached entry table, for the aggregate's group keys and the
      // invisible join's column.
      out.dict = code_dicts_[i];
      out.heap = pin ? std::shared_ptr<const StringHeap>(pin->heap)
                     : std::shared_ptr<const StringHeap>(cols_[i], col.heap());
      continue;
    }
    TDE_RETURN_NOT_OK(stream->Get(row_, take, out.lanes.data()));
    if (col.compression() == CompressionKind::kHeap) {
      // A pinned payload's heap shared_ptr keeps the bytes alive past
      // eviction; for hot columns the column itself anchors the heap.
      out.heap = pin ? std::shared_ptr<const StringHeap>(pin->heap)
                     : std::shared_ptr<const StringHeap>(cols_[i], col.heap());
    } else if (code_dicts_[i] != nullptr) {
      out.dict = code_dicts_[i];  // array-dictionary tokens are its codes
    } else if (col.compression() == CompressionKind::kArrayDict) {
      const ArrayDictionary* dict = pin ? pin->dict.get() : col.array_dict();
      const auto& values = dict->values;
      for (Lane& v : out.lanes) v = values[static_cast<size_t>(v)];
    }
  }
  row_ += take;
  rows_scanned_ += take;
  *eos = false;
  return Status::OK();
}

}  // namespace tde
