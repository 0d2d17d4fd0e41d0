#include "src/exec/flow_table.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include <chrono>

#include "src/encoding/manipulate.h"
#include "src/exec/scheduler.h"
#include "src/observe/metrics.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/segment/segmented_stream.h"

namespace tde {

namespace {

/// Sorts a dictionary-encoded string column's heap (Sect. 3.4.3 / 6.3):
/// the dictionary entries are the distinct heap tokens; sort their strings
/// (cheap — the domain is small), rebuild the heap in collation order and
/// write the new tokens back into the dictionary header. The rows of the
/// column — which can be arbitrarily many — are never touched. For a
/// segmented column the remap runs over every segment's own dictionary
/// (all segments must be dictionary-encoded, else the heap stays unsorted).
/// `*applied` reports whether a remap actually happened (import telemetry).
Status SortColumnHeap(Column* col, bool* applied) {
  *applied = false;
  auto* stream = col->mutable_data();
  StringHeap* heap = col->mutable_heap();
  if (heap == nullptr || heap->sorted()) return Status::OK();

  // The dictionary buffers to remap: one per segment, or the single
  // monolithic stream buffer.
  std::vector<std::vector<uint8_t>*> bufs;
  SegmentedStream* seg = nullptr;
  if (stream->segmented()) {
    seg = static_cast<SegmentedStream*>(stream);
    const std::vector<SegmentShape> shapes = seg->Shapes();
    for (size_t i = 0; i < shapes.size(); ++i) {
      if (shapes[i].encoding != EncodingType::kDictionary) return Status::OK();
      std::vector<uint8_t>* b = seg->MutableSegmentBuffer(i);
      if (b == nullptr) return Status::OK();
      bufs.push_back(b);
    }
    if (bufs.empty()) return Status::OK();
  } else {
    if (stream->type() != EncodingType::kDictionary) return Status::OK();
    bufs.push_back(stream->mutable_buffer());
  }
  *applied = true;

  // Collect the distinct tokens from the dictionary entries (an identity
  // remap that records what it sees; segments may share tokens).
  std::vector<Lane> old_tokens;
  std::unordered_set<Lane> seen;
  for (std::vector<uint8_t>* buf : bufs) {
    TDE_RETURN_NOT_OK(RemapDictEntries(buf, [&](Lane v) {
      if (v != kNullSentinel && seen.insert(v).second) old_tokens.push_back(v);
      return v;
    }));
  }

  std::vector<size_t> order(old_tokens.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return Collate(heap->collation(), heap->Get(old_tokens[a]),
                   heap->Get(old_tokens[b])) < 0;
  });

  auto sorted_heap = std::make_shared<StringHeap>(heap->collation());
  std::unordered_map<Lane, Lane> remap;
  remap.reserve(old_tokens.size() + 1);
  remap[kNullSentinel] = kNullSentinel;  // NULL entries never touch the heap
  for (size_t i : order) {
    remap[old_tokens[i]] = sorted_heap->Add(heap->Get(old_tokens[i]));
  }
  for (std::vector<uint8_t>* buf : bufs) {
    TDE_RETURN_NOT_OK(RemapDictEntries(
        buf, [&](Lane v) { return remap.find(v)->second; }));
  }
  sorted_heap->set_sorted(true);
  col->set_heap(std::move(sorted_heap));
  if (seg != nullptr) seg->RefreshSegmentFacts();
  return Status::OK();
}

/// Concatenates column `i` of the drained blocks, in block order, into one
/// build input, re-homing string tokens into the column's own heap
/// (deduplicated by the accelerator when it is on). Each block's copy of
/// the column is released once read. Touches no other column, so one task
/// per column can run it concurrently.
ColumnBuildInput GatherColumn(const Field& field, size_t i,
                              const FlowTableOptions& options,
                              size_t total_rows, std::vector<Block>* blocks) {
  ColumnBuildInput in;
  in.name = field.name;
  in.type = field.type;
  in.lanes.reserve(total_rows);
  std::unique_ptr<HeapAccelerator> accel;
  if (in.type == TypeId::kString) {
    in.heap = std::make_shared<StringHeap>();
    if (options.heap_acceleration) {
      accel = std::make_unique<HeapAccelerator>(in.heap.get(),
                                                options.accelerator_threshold);
    }
  }
  for (Block& block : *blocks) {
    if (i >= block.columns.size()) continue;
    ColumnVector& cv = block.columns[i];
    if (in.type == TypeId::kString) {
      for (const Lane token : cv.lanes) {
        if (token == kNullSentinel) {
          in.lanes.push_back(kNullSentinel);
        } else if (accel != nullptr) {
          in.lanes.push_back(accel->Add(cv.heap->Get(token)));
        } else {
          in.lanes.push_back(in.heap->Add(cv.heap->Get(token)));
        }
      }
    } else {
      in.lanes.insert(in.lanes.end(), cv.lanes.begin(), cv.lanes.end());
    }
    cv = ColumnVector{};
  }
  if (accel != nullptr) {
    in.accel_active = true;
    in.accel_distinct = accel->distinct_count();
    in.accel_arrived_sorted = accel->arrived_sorted();
  }
  return in;
}

}  // namespace

Result<std::shared_ptr<Column>> BuildColumn(
    ColumnBuildInput in, const FlowTableOptions& options,
    observe::ColumnImportStats* stats_out) {
  DynamicEncoderOptions enc;
  enc.enable_encodings = options.enable_encodings;
  enc.allowed = options.allowed;
  enc.width = 8;
  enc.sign_extend = in.type != TypeId::kString && IsSignedType(in.type);
  enc.prefer_dictionary = in.type == TypeId::kString;
  const size_t n = in.lanes.size();
  const uint64_t seg_rows =
      options.segment_rows != 0 ? options.segment_rows : DefaultSegmentRows();
  // Columns longer than one segment are built as a SegmentedStream: the
  // drain-accumulated lanes stream through Append, which seals (and
  // independently encodes) each full segment as its boundary passes.
  const bool segmented = static_cast<uint64_t>(n) > seg_rows;

  auto col = std::make_shared<Column>(in.name, in.type);
  EncodingStats stats;
  int encoding_changes = 0;
  uint64_t bytes_written = 0;
  if (segmented) {
    auto seg = std::make_shared<SegmentedStream>(enc, seg_rows);
    for (size_t row = 0; row < n; row += kBlockSize) {
      const size_t take = std::min<size_t>(kBlockSize, n - row);
      stats.Update(in.lanes.data() + row, take);
      TDE_RETURN_NOT_OK(seg->Append(in.lanes.data() + row, take));
    }
    TDE_RETURN_NOT_OK(seg->Finalize());
    encoding_changes = seg->encoding_changes();
    bytes_written = seg->bytes_written();
    col->set_data(std::move(seg));
  } else {
    DynamicEncoder encoder(enc);
    for (size_t row = 0; row < n; row += kBlockSize) {
      const size_t take = std::min<size_t>(kBlockSize, n - row);
      TDE_RETURN_NOT_OK(encoder.Append(in.lanes.data() + row, take));
    }
    TDE_ASSIGN_OR_RETURN(EncodedColumn encoded, encoder.Finalize());
    stats = std::move(encoded.stats);
    encoding_changes = encoded.encoding_changes;
    bytes_written = encoded.bytes_written;
    col->set_data(std::move(encoded.stream));
  }
  col->set_encoding_changes(encoding_changes);
  if (in.type == TypeId::kString) {
    col->set_compression(CompressionKind::kHeap);
    col->set_heap(in.heap);
  }

  ColumnMetadata meta;
  if (options.enable_encodings) {
    meta = ExtractMetadata(stats);
  } else if (in.type == TypeId::kString && in.accel_active) {
    // With encodings off, the only metadata comes from fortuitous
    // circumstances: the accelerator's statistics (Sect. 6.4).
    meta.cardinality_known = true;
    meta.cardinality = in.accel_distinct;
  }
  if (in.type == TypeId::kString && in.accel_active &&
      in.accel_arrived_sorted) {
    // Strings happened to arrive in collation order, so the heap is
    // already sorted (another fortuitous detection).
    col->mutable_heap()->set_sorted(true);
    meta.sorted = true;
  }
  *col->mutable_metadata() = meta;

  uint64_t manipulations = 0;
  if (options.enable_encodings && options.post_process) {
    // Sect. 3.4 manipulations, applied as a post-processing step of the
    // FlowTable build.
    bool heap_sorted = false;
    TDE_RETURN_NOT_OK(SortColumnHeap(col.get(), &heap_sorted));
    const bool signed_values =
        in.type != TypeId::kString && IsSignedType(in.type);
    bool narrowed = false;
    if (col->data()->segmented()) {
      // Narrowing is a header manipulation on one stream buffer; for a
      // segmented column it applies per segment (each may narrow to a
      // different width — that is the point of per-segment encodings).
      auto* seg = static_cast<SegmentedStream*>(col->mutable_data());
      const std::vector<SegmentShape> shapes = seg->Shapes();
      for (size_t i = 0; i < shapes.size(); ++i) {
        std::vector<uint8_t>* b = seg->MutableSegmentBuffer(i);
        if (b == nullptr) continue;
        TDE_ASSIGN_OR_RETURN(uint8_t w, NarrowStreamWidth(b, signed_values));
        narrowed |= w != shapes[i].width;
      }
      seg->RefreshSegmentFacts();
    } else {
      const uint8_t before = col->data()->width();
      TDE_ASSIGN_OR_RETURN(
          uint8_t w,
          NarrowStreamWidth(col->mutable_data()->mutable_buffer(),
                            signed_values));
      narrowed = w != before;
    }
    manipulations += (heap_sorted ? 1 : 0) + (narrowed ? 1 : 0);
  }

  if (stats_out != nullptr && observe::StatsEnabled()) {
    stats_out->column = col->name();
    stats_out->type = TypeName(in.type);
    stats_out->encoding = EncodingName(col->data()->type());
    stats_out->rows = col->rows();
    stats_out->input_bytes = col->LogicalSize();
    stats_out->encoded_bytes = col->PhysicalSize();
    stats_out->encoding_changes = encoding_changes;
    stats_out->bytes_written = bytes_written;
    stats_out->header_manipulations = manipulations;
    stats_out->token_width = col->TokenWidth();
  }
  return col;
}

FlowTable::FlowTable(std::unique_ptr<Operator> child, FlowTableOptions options)
    : child_(std::move(child)), options_(std::move(options)) {}

const Schema& FlowTable::output_schema() const {
  return built_ ? scan_->output_schema() : child_->output_schema();
}

Status FlowTable::Open() {
  if (built_) {
    return scan_->Open();
  }
  TDE_RETURN_NOT_OK(child_->Open());
  const Schema& in_schema = child_->output_schema();
  const size_t ncols = in_schema.num_fields();

  // The drain only collects blocks; every per-row step runs in the column
  // tasks below.
  std::vector<Block> blocks;
  size_t total_rows = 0;
  while (true) {
    Block b;
    bool eos = false;
    TDE_RETURN_NOT_OK(child_->Next(&b, &eos));
    if (eos) break;
    total_rows += b.rows();
    blocks.push_back(std::move(b));
  }
  child_->Close();

  // One task per column gathers and encodes it — independently, so the
  // work is distributed across cores (Sect. 3.3). Each column still sees
  // its rows in input order, so the table does not depend on the pool size.
  const auto encode_start = std::chrono::steady_clock::now();
  std::vector<Result<std::shared_ptr<Column>>> results(
      ncols, Result<std::shared_ptr<Column>>(Status::OK()));
  column_stats_.assign(ncols, observe::ColumnImportStats{});
  auto group = TaskScheduler::Global().CreateGroup();
  for (size_t i = 0; i < ncols; ++i) {
    group->Submit([&, i]() {
      const auto task_start = std::chrono::steady_clock::now();
      results[i] = BuildColumn(
          GatherColumn(in_schema.field(i), i, options_, total_rows, &blocks),
          options_, &column_stats_[i]);
      column_stats_[i].task_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        task_start)
              .count();
    });
  }
  group->Wait();
  auto table = std::make_shared<Table>(options_.table_name);
  for (size_t i = 0; i < ncols; ++i) {
    TDE_RETURN_NOT_OK(results[i].status());
    table->AddColumn(results[i].MoveValue());
  }
  encode_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - encode_start)
                        .count();
  if (!observe::StatsEnabled()) column_stats_.clear();

  table_ = std::move(table);
  scan_ = std::make_unique<TableScan>(table_);
  built_ = true;
  return scan_->Open();
}

Status FlowTable::Next(Block* block, bool* eos) {
  return scan_->Next(block, eos);
}

void FlowTable::Close() {
  if (scan_) scan_->Close();
}

Result<std::shared_ptr<Table>> FlowTable::Build(
    std::unique_ptr<Operator> child, FlowTableOptions options) {
  FlowTable ft(std::move(child), std::move(options));
  TDE_RETURN_NOT_OK(ft.Open());
  ft.Close();
  return ft.table();
}

}  // namespace tde
