#include "src/core/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include <cinttypes>
#include <functional>
#include <unordered_map>

#include "src/encoding/manipulate.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/format.h"
#include "src/storage/segment/segment_builder.h"
#include "src/storage/segment/segmented_stream.h"
#include "src/exec/sort.h"
#include "src/observe/introspect.h"
#include "src/observe/journal.h"
#include "src/observe/metrics.h"
#include "src/sql/parser.h"

namespace tde {

namespace {

/// Runs the import pipeline (TextScan -> optional Sort -> FlowTable) while
/// keeping the FlowTable instance in scope, so parse- and encode-side
/// telemetry can be harvested into `stats_out` after the build.
Result<std::shared_ptr<Table>> BuildImport(std::unique_ptr<TextScan> scan,
                                           const std::string& table_name,
                                           ImportOptions options,
                                           observe::ImportStats* stats_out) {
  TextScan* raw_scan = scan.get();
  std::unique_ptr<Operator> flow = std::move(scan);
  if (!options.sort_by.empty()) {
    flow = std::make_unique<Sort>(std::move(flow), options.sort_by);
  }
  options.flow.table_name = table_name;
  FlowTable ft(std::move(flow), std::move(options.flow));
  TDE_RETURN_NOT_OK(ft.Open());
  ft.Close();
  if (stats_out != nullptr && observe::StatsEnabled()) {
    const TextScanStats& parse = raw_scan->scan_stats();
    stats_out->table_name = table_name;
    stats_out->bytes_parsed = parse.bytes;
    stats_out->rows = parse.rows;
    stats_out->parse_errors = parse.parse_errors;
    stats_out->parse_seconds = parse.parse_seconds;
    stats_out->encode_seconds = ft.encode_seconds();
    stats_out->columns = ft.column_stats();
  }
  return ft.table();
}

/// Registry-side import accounting, shared by all import entry points.
void RecordImport(const observe::ImportStats& stats) {
  auto& reg = observe::MetricsRegistry::Global();
  reg.GetCounter("import.tables")->Add();
  reg.GetCounter("import.rows")->Add(stats.rows);
  reg.GetCounter("import.bytes_parsed")->Add(stats.bytes_parsed);
  reg.GetCounter("import.parse_errors")->Add(stats.parse_errors);
  reg.GetGauge("import.last_compression_ratio_ppt")
      ->Set(static_cast<int64_t>(stats.compression_ratio() * 1000));
}

}  // namespace

Result<std::shared_ptr<Table>> Engine::ImportTextFile(
    const std::string& path, const std::string& table_name,
    ImportOptions options) {
  TDE_ASSIGN_OR_RETURN(auto scan, TextScan::FromFile(path, options.text));
  observe::ImportStats stats;
  TDE_ASSIGN_OR_RETURN(
      auto table,
      BuildImport(std::move(scan), table_name, std::move(options), &stats));
  db_.AddTable(table);
  if (observe::StatsEnabled()) {
    RecordImport(stats);
    import_stats_.push_back(std::move(stats));
  }
  return table;
}

Result<std::shared_ptr<Table>> Engine::ImportTextBuffer(
    std::string data, const std::string& table_name, ImportOptions options) {
  auto scan = TextScan::FromBuffer(std::move(data), options.text);
  observe::ImportStats stats;
  TDE_ASSIGN_OR_RETURN(
      auto table,
      BuildImport(std::move(scan), table_name, std::move(options), &stats));
  db_.AddTable(table);
  if (observe::StatsEnabled()) {
    RecordImport(stats);
    import_stats_.push_back(std::move(stats));
  }
  return table;
}

Result<QueryResult> Engine::Execute(const Plan& plan,
                                    const StrategicOptions& strategic) const {
  // Readers hold the append/query lock shared for the whole run: an
  // AppendRows (exclusive) can never mutate a column mid-query, and
  // concurrent queries proceed in parallel on the shared pool.
  std::shared_lock<std::shared_mutex> read(*exec_mu_);
  return ExecutePlan(plan, strategic);
}

namespace {

/// Renders `text` as a single-column result, one row per line.
QueryResult TextResult(const std::string& column_name,
                       const std::string& text) {
  Schema schema({{column_name, TypeId::kString}});
  Block b;
  b.columns.resize(1);
  b.columns[0].type = TypeId::kString;
  auto heap = std::make_shared<StringHeap>();
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    b.columns[0].lanes.push_back(
        heap->Add(std::string_view(text).substr(start, end - start)));
    start = end + 1;
  }
  b.columns[0].heap = std::move(heap);
  std::vector<Block> blocks;
  blocks.push_back(std::move(b));
  return QueryResult(std::move(schema), std::move(blocks));
}

const char* KindName(observe::MetricKind kind) {
  switch (kind) {
    case observe::MetricKind::kCounter:
      return "counter";
    case observe::MetricKind::kGauge:
      return "gauge";
    case observe::MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// Column-input makers for the virtual tables, all built through the same
/// per-column encoding pipeline as any other table.
ColumnBuildInput StrCol(const char* name) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kString;
  in.heap = std::make_shared<StringHeap>();
  return in;
}

ColumnBuildInput IntCol(const char* name) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kInteger;
  return in;
}

Result<std::shared_ptr<Table>> BuildVirtualTable(
    const char* name, std::vector<ColumnBuildInput> inputs) {
  FlowTableOptions opt;
  auto table = std::make_shared<Table>(name);
  for (ColumnBuildInput& in : inputs) {
    if (in.heap != nullptr) {
      // The builders above append without interning, but downstream
      // dictionary-code machinery (GROUP BY, string predicates) compares
      // codes, not bytes — equal strings must share one heap entry.
      auto interned = std::make_shared<StringHeap>();
      std::unordered_map<std::string, Lane> seen;
      for (Lane& t : in.lanes) {
        std::string s(in.heap->Get(t));
        auto it = seen.find(s);
        if (it == seen.end()) it = seen.emplace(s, interned->Add(s)).first;
        t = it->second;
      }
      in.heap = std::move(interned);
    }
    TDE_ASSIGN_OR_RETURN(auto col, BuildColumn(std::move(in), opt));
    table->AddColumn(std::move(col));
  }
  return table;
}

/// Materializes the tde_queries virtual table: one row per journal entry
/// (most recent queries last), the per-query counter deltas as columns.
Result<std::shared_ptr<Table>> BuildQueriesTable() {
  std::vector<ColumnBuildInput> cols;
  cols.push_back(IntCol("id"));
  cols.push_back(StrCol("sql"));
  cols.push_back(StrCol("fingerprint"));
  cols.push_back(IntCol("wall_us"));
  cols.push_back(IntCol("cpu_us"));
  cols.push_back(IntCol("rows_out"));
  cols.push_back(IntCol("ok"));
  for (int i = 0; i < observe::kNumQueryCounters; ++i) {
    cols.push_back(IntCol(observe::QueryCounterColumnName(
        static_cast<observe::QueryCounter>(i))));
  }
  for (const observe::QueryJournalEntry& e :
       observe::QueryJournal::Global().Snapshot()) {
    size_t c = 0;
    cols[c].lanes.push_back(static_cast<Lane>(e.id));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(e.sql));
    ++c;
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, e.plan_fingerprint);
    cols[c].lanes.push_back(cols[c].heap->Add(fp));
    ++c;
    cols[c].lanes.push_back(static_cast<Lane>(e.wall_ns / 1000));
    ++c;
    cols[c].lanes.push_back(static_cast<Lane>(e.cpu_ns / 1000));
    ++c;
    cols[c].lanes.push_back(static_cast<Lane>(e.rows_out));
    ++c;
    cols[c].lanes.push_back(e.ok ? 1 : 0);
    ++c;
    for (int i = 0; i < observe::kNumQueryCounters; ++i) {
      cols[c].lanes.push_back(
          static_cast<Lane>(e.counters[static_cast<size_t>(i)]));
      ++c;
    }
  }
  return BuildVirtualTable("tde_queries", std::move(cols));
}

/// Materializes the tde_columns virtual table: one row per stored column
/// with its physical shape. Unknowable fields of unloaded cold columns
/// (bit width, run count) surface as NULL.
Result<std::shared_ptr<Table>> BuildColumnsTable(const Database& db) {
  std::vector<ColumnBuildInput> cols;
  cols.push_back(StrCol("table_name"));
  cols.push_back(StrCol("column_name"));
  cols.push_back(StrCol("type"));
  cols.push_back(StrCol("encoding"));
  cols.push_back(StrCol("compression"));
  cols.push_back(StrCol("residency"));
  cols.push_back(IntCol("rows"));
  cols.push_back(IntCol("bits"));
  cols.push_back(IntCol("runs"));
  cols.push_back(IntCol("dict_entries"));
  cols.push_back(IntCol("heap_entries"));
  cols.push_back(IntCol("compressed_bytes"));
  cols.push_back(IntCol("logical_bytes"));
  cols.push_back(IntCol("ratio_ppt"));
  for (const observe::ColumnReport& r : observe::BuildColumnReports(db)) {
    size_t c = 0;
    cols[c].lanes.push_back(cols[c].heap->Add(r.table));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(r.column));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(r.type));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(r.encoding));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(r.compression));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(r.residency));
    ++c;
    cols[c++].lanes.push_back(static_cast<Lane>(r.rows));
    cols[c++].lanes.push_back(r.bits < 0 ? kNullSentinel : r.bits);
    cols[c++].lanes.push_back(r.runs < 0 ? kNullSentinel : r.runs);
    cols[c++].lanes.push_back(r.dict_entries < 0 ? kNullSentinel
                                                 : r.dict_entries);
    cols[c++].lanes.push_back(static_cast<Lane>(r.heap_entries));
    cols[c++].lanes.push_back(static_cast<Lane>(r.compressed_bytes));
    cols[c++].lanes.push_back(static_cast<Lane>(r.logical_bytes));
    cols[c++].lanes.push_back(r.ratio_ppt());
  }
  return BuildVirtualTable("tde_columns", std::move(cols));
}

/// Materializes the tde_segments virtual table: one row per stored
/// segment across every column — position, per-segment encoding, zone map
/// and residency. Monolithic columns contribute their single
/// pseudo-segment. Built from directory facts; never faults data in.
Result<std::shared_ptr<Table>> BuildSegmentsTable(const Database& db) {
  std::vector<ColumnBuildInput> cols;
  cols.push_back(StrCol("table_name"));
  cols.push_back(StrCol("column_name"));
  cols.push_back(IntCol("segment"));
  cols.push_back(IntCol("start_row"));
  cols.push_back(IntCol("rows"));
  cols.push_back(StrCol("encoding"));
  cols.push_back(IntCol("width"));
  cols.push_back(IntCol("bits"));
  cols.push_back(IntCol("physical_bytes"));
  cols.push_back(IntCol("resident"));
  cols.push_back(IntCol("open_tail"));
  cols.push_back(IntCol("min_value"));
  cols.push_back(IntCol("max_value"));
  cols.push_back(IntCol("sorted"));
  cols.push_back(IntCol("cardinality"));
  cols.push_back(IntCol("null_count"));
  for (const auto& table : db.tables()) {
    for (size_t i = 0; i < table->num_columns(); ++i) {
      const Column& col = table->column(i);
      const std::vector<SegmentShape> shapes = col.SegmentShapes();
      for (size_t s = 0; s < shapes.size(); ++s) {
        const SegmentShape& sh = shapes[s];
        const ColumnMetadata& z = sh.zone.meta;
        size_t c = 0;
        cols[c].lanes.push_back(cols[c].heap->Add(table->name()));
        ++c;
        cols[c].lanes.push_back(cols[c].heap->Add(col.name()));
        ++c;
        cols[c++].lanes.push_back(static_cast<Lane>(s));
        cols[c++].lanes.push_back(static_cast<Lane>(sh.start_row));
        cols[c++].lanes.push_back(static_cast<Lane>(sh.rows));
        cols[c].lanes.push_back(cols[c].heap->Add(EncodingName(sh.encoding)));
        ++c;
        cols[c++].lanes.push_back(sh.width);
        cols[c++].lanes.push_back(sh.bits);
        cols[c++].lanes.push_back(static_cast<Lane>(sh.physical_bytes));
        cols[c++].lanes.push_back(sh.resident ? 1 : 0);
        cols[c++].lanes.push_back(sh.open_tail ? 1 : 0);
        cols[c++].lanes.push_back(
            z.min_max_known ? static_cast<Lane>(z.min_value) : kNullSentinel);
        cols[c++].lanes.push_back(
            z.min_max_known ? static_cast<Lane>(z.max_value) : kNullSentinel);
        cols[c++].lanes.push_back(z.sorted ? 1 : 0);
        cols[c++].lanes.push_back(z.cardinality_known
                                      ? static_cast<Lane>(z.cardinality)
                                      : kNullSentinel);
        cols[c++].lanes.push_back(sh.zone.null_count >= 0
                                      ? static_cast<Lane>(sh.zone.null_count)
                                      : kNullSentinel);
      }
    }
  }
  return BuildVirtualTable("tde_segments", std::move(cols));
}

/// Materializes the tde_cache virtual table: the column cache's residency
/// set in LRU order (empty for engines without a lazily opened database).
Result<std::shared_ptr<Table>> BuildCacheTable(
    const pager::ColumnCache* cache) {
  std::vector<ColumnBuildInput> cols;
  cols.push_back(IntCol("lru_position"));
  cols.push_back(StrCol("table_name"));
  cols.push_back(StrCol("column_name"));
  cols.push_back(IntCol("bytes"));
  cols.push_back(IntCol("pinned"));
  for (const observe::CacheEntryReport& e :
       observe::BuildCacheReport(cache).entries) {
    size_t c = 0;
    cols[c++].lanes.push_back(e.lru_position);
    cols[c].lanes.push_back(cols[c].heap->Add(e.table));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(e.column));
    ++c;
    cols[c++].lanes.push_back(static_cast<Lane>(e.bytes));
    cols[c++].lanes.push_back(e.pinned ? 1 : 0);
  }
  return BuildVirtualTable("tde_cache", std::move(cols));
}

/// Materializes the tde_metrics virtual table: one row per registered
/// metric, histogram percentiles as columns (NULL for counters/gauges).
Result<std::shared_ptr<Table>> BuildMetricsTable() {
  // Touch the shared pool so its scheduler.* metrics (pool size, tasks
  // run, queue waits) exist in the snapshot even before the first
  // parallel query constructs it.
  TaskScheduler::Global();
  std::vector<ColumnBuildInput> cols;
  cols.push_back(StrCol("metric"));
  cols.push_back(StrCol("kind"));
  cols.push_back(IntCol("value"));
  cols.push_back(IntCol("sum"));
  cols.push_back(IntCol("p50"));
  cols.push_back(IntCol("p90"));
  cols.push_back(IntCol("p99"));
  for (const observe::MetricSample& s :
       observe::MetricsRegistry::Global().Snapshot()) {
    const bool hist = s.kind == observe::MetricKind::kHistogram;
    size_t c = 0;
    cols[c].lanes.push_back(cols[c].heap->Add(s.name));
    ++c;
    cols[c].lanes.push_back(cols[c].heap->Add(KindName(s.kind)));
    ++c;
    cols[c++].lanes.push_back(s.value);
    cols[c++].lanes.push_back(hist ? static_cast<Lane>(s.sum)
                                   : kNullSentinel);
    cols[c++].lanes.push_back(hist ? static_cast<Lane>(s.p50)
                                   : kNullSentinel);
    cols[c++].lanes.push_back(hist ? static_cast<Lane>(s.p90)
                                   : kNullSentinel);
    cols[c++].lanes.push_back(hist ? static_cast<Lane>(s.p99)
                                   : kNullSentinel);
  }
  return BuildVirtualTable("tde_metrics", std::move(cols));
}

/// Materializes the tde_stats virtual table (metric, kind, value): the
/// global registry snapshot plus per-import telemetry, built through the
/// same per-column encoding pipeline as any other table.
Result<std::shared_ptr<Table>> BuildStatsTable(
    const std::vector<observe::ImportStats>& imports) {
  TaskScheduler::Global();  // scheduler.* metrics exist from first snapshot
  ColumnBuildInput metric, kind, value;
  metric.name = "metric";
  metric.type = TypeId::kString;
  metric.heap = std::make_shared<StringHeap>();
  kind.name = "kind";
  kind.type = TypeId::kString;
  kind.heap = std::make_shared<StringHeap>();
  value.name = "value";
  value.type = TypeId::kInteger;
  auto add = [&](const std::string& m, const char* k, int64_t v) {
    metric.lanes.push_back(metric.heap->Add(m));
    kind.lanes.push_back(kind.heap->Add(k));
    value.lanes.push_back(v);
  };

  for (const observe::MetricSample& s :
       observe::MetricsRegistry::Global().Snapshot()) {
    add(s.name, KindName(s.kind), s.value);
    if (s.kind == observe::MetricKind::kHistogram) {
      add(s.name + ".sum", "histogram", static_cast<int64_t>(s.sum));
      add(s.name + ".p50", "histogram", static_cast<int64_t>(s.p50));
      add(s.name + ".p99", "histogram", static_cast<int64_t>(s.p99));
    }
  }
  for (const observe::ImportStats& imp : imports) {
    const std::string prefix = "import." + imp.table_name + ".";
    add(prefix + "rows", "import", static_cast<int64_t>(imp.rows));
    add(prefix + "parse_errors", "import",
        static_cast<int64_t>(imp.parse_errors));
    add(prefix + "input_bytes", "import",
        static_cast<int64_t>(imp.input_bytes()));
    add(prefix + "encoded_bytes", "import",
        static_cast<int64_t>(imp.encoded_bytes()));
    add(prefix + "compression_ratio_ppt", "import",
        static_cast<int64_t>(imp.compression_ratio() * 1000));
    for (const observe::ColumnImportStats& c : imp.columns) {
      add(prefix + c.column + ".header_manipulations", "import",
          static_cast<int64_t>(c.header_manipulations));
      add(prefix + c.column + ".encoding_changes", "import",
          c.encoding_changes);
    }
  }

  std::vector<ColumnBuildInput> inputs;
  inputs.push_back(std::move(metric));
  inputs.push_back(std::move(kind));
  inputs.push_back(std::move(value));
  return BuildVirtualTable("tde_stats", std::move(inputs));
}

}  // namespace

Result<QueryResult> Engine::ExecuteSql(const std::string& sql) const {
  return ExecuteSql(sql, StrategicOptions{});
}

Result<QueryResult> Engine::ExecuteSql(const std::string& sql,
                                       const StrategicOptions& strategic) const {
  // The journal stamps each recorded query with the statement that spawned
  // it; the view stays valid for the whole call.
  observe::ScopedQueryText query_text(sql);
  // The virtual tables: when the query mentions one (and no real table
  // shadows the name), parse against a database copy — cheap, tables are
  // shared — extended with freshly materialized snapshots. The plan pins
  // each snapshot table through its shared_ptr.
  auto parse = [&]() -> Result<sql::ParsedQuery> {
    struct VirtualTable {
      const char* name;
      std::function<Result<std::shared_ptr<Table>>()> build;
    };
    const VirtualTable virtuals[] = {
        {"tde_stats", [&] { return BuildStatsTable(import_stats_); }},
        {"tde_queries", [] { return BuildQueriesTable(); }},
        {"tde_columns", [&] { return BuildColumnsTable(db_); }},
        {"tde_segments", [&] { return BuildSegmentsTable(db_); }},
        {"tde_cache", [&] { return BuildCacheTable(cache_.get()); }},
        {"tde_metrics", [] { return BuildMetricsTable(); }},
    };
    auto mentioned = [&](const VirtualTable& v) {
      return sql.find(v.name) != std::string::npos &&
             !db_.GetTable(v.name).ok();
    };
    bool any = false;
    for (const VirtualTable& v : virtuals) any = any || mentioned(v);
    if (!any) return sql::ParseQuery(sql, db_);
    Database extended = db_;
    for (const VirtualTable& v : virtuals) {
      if (!mentioned(v)) continue;
      TDE_ASSIGN_OR_RETURN(auto table, v.build());
      extended.AddTable(std::move(table));
    }
    return sql::ParseQuery(sql, extended);
  };
  TDE_ASSIGN_OR_RETURN(sql::ParsedQuery q, parse());

  if (q.explain) {
    if (q.analyze) {
      // EXPLAIN ANALYZE executes the plan without going through Execute(),
      // so it takes the append/query read lock itself.
      std::shared_lock<std::shared_mutex> read(*exec_mu_);
      TDE_ASSIGN_OR_RETURN(std::string text,
                           ExplainAnalyzePlan(q.plan, nullptr, strategic));
      return TextResult("plan", text);
    }
    TDE_ASSIGN_OR_RETURN(std::string text, ExplainPlan(q.plan, strategic));
    return TextResult("plan", text);
  }
  return Execute(q.plan, strategic);
}

std::string Engine::StorageReportJson() const {
  return observe::StorageReportJson(db_, cache_.get());
}

std::string Engine::StatsJson() const {
  std::string out = "{\"registry\":";
  out += observe::MetricsRegistry::Global().ToJson();
  out += ",\"imports\":[";
  for (size_t i = 0; i < import_stats_.size(); ++i) {
    if (i > 0) out += ',';
    out += import_stats_[i].ToJson();
  }
  out += "]}";
  return out;
}

Status Engine::SaveDatabase(const std::string& path) const {
  return pager::WriteDatabaseV2(db_, path);
}

Result<Engine> Engine::OpenDatabase(const std::string& path,
                                    OpenOptions options) {
  auto cache = std::make_shared<pager::ColumnCache>(options.cache_budget_bytes);
  TDE_ASSIGN_OR_RETURN(Database db, pager::OpenDatabaseV2(path, cache));
  Engine e;
  *e.database() = std::move(db);
  e.cache_ = std::move(cache);
  return e;
}

namespace {
Status StatFile(const std::string& path, int64_t* mtime, int64_t* size) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat '" + path + "'");
  }
  *mtime = static_cast<int64_t>(st.st_mtime);
  *size = static_cast<int64_t>(st.st_size);
  return Status::OK();
}
}  // namespace

Result<std::shared_ptr<Table>> Engine::AttachTextFile(
    const std::string& path, const std::string& table_name,
    ImportOptions options) {
  Attachment att;
  att.path = path;
  att.table_name = table_name;
  att.options = options;
  TDE_RETURN_NOT_OK(StatFile(path, &att.mtime, &att.size));
  TDE_ASSIGN_OR_RETURN(auto table,
                       ImportTextFile(path, table_name, std::move(options)));
  attachments_.push_back(std::move(att));
  return table;
}

Result<int> Engine::RefreshChanged() {
  int rebuilt = 0;
  for (Attachment& att : attachments_) {
    int64_t mtime = 0, size = 0;
    TDE_RETURN_NOT_OK(StatFile(att.path, &mtime, &size));
    if (mtime == att.mtime && size == att.size) continue;
    TDE_ASSIGN_OR_RETURN(auto scan,
                         TextScan::FromFile(att.path, att.options.text));
    observe::ImportStats stats;
    TDE_ASSIGN_OR_RETURN(
        auto table,
        BuildImport(std::move(scan), att.table_name, att.options, &stats));
    TDE_RETURN_NOT_OK(db_.ReplaceTable(std::move(table)));
    if (observe::StatsEnabled()) {
      RecordImport(stats);
      import_stats_.push_back(std::move(stats));
    }
    att.mtime = mtime;
    att.size = size;
    ++rebuilt;
  }
  return rebuilt;
}

Result<uint64_t> Engine::AppendRows(const std::string& table_name,
                                    const Block& rows) {
  // Appends mutate streams, heaps and metadata in place, so they exclude
  // queries (and one another) for their duration: readers see the table
  // before or after the append, never a torn middle.
  std::unique_lock<std::shared_mutex> write(*exec_mu_);
  TDE_ASSIGN_OR_RETURN(auto table, db_.GetTable(table_name));
  if (rows.num_columns() != table->num_columns()) {
    return Status::InvalidArgument(
        "append block has " + std::to_string(rows.num_columns()) +
        " columns, table '" + table_name + "' has " +
        std::to_string(table->num_columns()));
  }
  const size_t n = rows.rows();
  for (size_t i = 0; i < rows.num_columns(); ++i) {
    const ColumnVector& in = rows.columns[i];
    const Column& col = table->column(i);
    if (in.lanes.size() != n) {
      return Status::InvalidArgument("ragged append block: column '" +
                                     col.name() + "'");
    }
    if (in.type != col.type()) {
      return Status::InvalidArgument("type mismatch appending to column '" +
                                     col.name() + "'");
    }
    if (col.compression() == CompressionKind::kArrayDict) {
      return Status::NotImplemented(
          "append to dictionary-compressed column '" + col.name() + "'");
    }
    if (col.type() == TypeId::kString && in.heap == nullptr) {
      return Status::InvalidArgument("string column '" + col.name() +
                                     "' appended without a heap");
    }
  }
  if (n == 0) return table->rows();

  // The table's join key indexes describe its old rows.
  table->DropIndexes();
  for (size_t i = 0; i < rows.num_columns(); ++i) {
    const ColumnVector& in = rows.columns[i];
    Column* col = table->mutable_column(i);
    // Append mutates in place: a cold column must leave the cache first.
    TDE_RETURN_NOT_OK(col->Warm());
    std::shared_ptr<EncodedStream> cur = col->data_ptr();
    if (cur == nullptr) {
      return Status::Internal("column '" + col->name() +
                              "' has no stream to append to");
    }
    SegmentedStream* seg = nullptr;
    if (cur->segmented()) {
      seg = static_cast<SegmentedStream*>(cur.get());
    } else {
      // First append: the whole existing stream becomes sealed segment 0,
      // with the column-level metadata as its zone map.
      auto wrapped = std::make_shared<SegmentedStream>();
      if (cur->size() > 0) {
        SegmentZone zone;
        zone.meta = col->metadata();
        TDE_RETURN_NOT_OK(wrapped->AddSealed(std::move(cur), std::move(zone)));
      }
      seg = wrapped.get();
      col->set_data(std::move(wrapped));
    }

    bool any_null = false;
    bool have_mm = false;
    int64_t mn = 0, mx = 0;
    if (col->type() == TypeId::kString) {
      // Re-intern by text through the column's heap: a string it already
      // holds keeps its token, which code grouping and COUNTD take to name
      // the string. New entries land behind the sorted prefix, so token
      // order stops implying string order.
      StringHeap* heap = col->mutable_heap();
      if (heap == nullptr) {
        auto h = std::make_shared<StringHeap>();
        heap = h.get();
        col->set_heap(std::move(h));
      }
      HeapAccelerator accel(heap);
      accel.IndexExisting();
      const uint64_t entries = heap->entry_count();
      std::vector<Lane> lanes(n);
      for (size_t r = 0; r < n; ++r) {
        if (in.lanes[r] == kNullSentinel) {
          lanes[r] = kNullSentinel;
          any_null = true;
        } else {
          lanes[r] = accel.Add(in.heap->Get(in.lanes[r]));
        }
      }
      if (heap->entry_count() != entries) heap->set_sorted(false);
      TDE_RETURN_NOT_OK(seg->Append(lanes.data(), n));
    } else {
      for (size_t r = 0; r < n; ++r) {
        if (in.lanes[r] == kNullSentinel) {
          any_null = true;
          continue;
        }
        const int64_t v = static_cast<int64_t>(in.lanes[r]);
        if (!have_mm || v < mn) mn = v;
        if (!have_mm || v > mx) mx = v;
        have_mm = true;
      }
      TDE_RETURN_NOT_OK(seg->Append(in.lanes.data(), n));
    }

    // Conservative column-level metadata merge: ordering/density/
    // cardinality facts no longer hold; the value envelope extends.
    ColumnMetadata* m = col->mutable_metadata();
    m->sorted = false;
    m->dense = false;
    m->unique = false;
    m->cardinality_known = false;
    if (col->type() == TypeId::kString) {
      m->min_max_known = false;
    } else if (m->min_max_known && have_mm) {
      m->min_value = std::min(m->min_value, mn);
      m->max_value = std::max(m->max_value, mx);
    } else {
      m->min_max_known = false;
    }
    if (any_null) {
      m->null_known = true;
      m->has_nulls = true;
    }
  }
  return table->rows();
}

Result<int> Engine::OptimizeTable(const std::string& table_name) {
  // AlterColumn rewrites columns in place — same exclusion as AppendRows.
  std::unique_lock<std::shared_mutex> write(*exec_mu_);
  TDE_ASSIGN_OR_RETURN(auto table, db_.GetTable(table_name));
  // Indexes were built over the columns this may re-encode.
  table->DropIndexes();
  int converted = 0;
  for (size_t i = 0; i < table->num_columns(); ++i) {
    Column* col = table->mutable_column(i);
    if (col->compression() != CompressionKind::kNone) continue;
    if (col->type() == TypeId::kString || col->type() == TypeId::kBool) {
      continue;  // strings are heap-compressed; booleans gain nothing
    }
    // Eligibility screens on directory facts; only candidates that pass get
    // warmed (AlterColumnToDictionary mutates in place, so a cold column
    // must be promoted out of the cache first).
    const EncodingType enc = col->encoding_type();
    if (enc != EncodingType::kDictionary && enc != EncodingType::kRunLength &&
        enc != EncodingType::kFrameOfReference) {
      continue;
    }
    if (enc == EncodingType::kFrameOfReference) {
      // Peek the packed bit width through a transient pin: a rejected
      // candidate stays in the cache (evictable) instead of being
      // permanently warmed outside the budget. Candidates that pass are
      // warmed by AlterColumnToDictionary itself.
      TDE_ASSIGN_OR_RETURN(auto pin, col->Pin());
      const EncodedStream* stream = pin ? pin->stream.get() : col->data();
      if (stream == nullptr || stream->bits() > 15) continue;
    }
    // Only worthwhile for genuine dimensions: small domain, many rows.
    if (enc != EncodingType::kFrameOfReference &&
        (!col->metadata().cardinality_known ||
         col->metadata().cardinality * 4 > col->rows())) {
      continue;
    }
    const Status st = AlterColumnToDictionary(col);
    if (st.ok()) {
      ++converted;
    } else if (st.code() != StatusCode::kCapacityExceeded &&
               st.code() != StatusCode::kNotImplemented) {
      return st;
    }
  }
  return converted;
}

Status AlterColumnToDictionary(Column* column) {
  if (column->compression() != CompressionKind::kNone) {
    return Status::InvalidArgument(
        "column is already dictionary compressed");
  }
  // In-place transformation: a cold column must first be promoted to a
  // plain hot column (materialize, detach from the cache).
  TDE_RETURN_NOT_OK(column->Warm());
  EncodedStream* stream = column->mutable_data();
  if (stream != nullptr && stream->segmented()) {
    // Dictionary compression spans the whole column, so a segmented stream
    // first collapses to one monolithic stream (re-encoded under the same
    // encoder configuration its segments sealed with). AlterColumn is
    // already the heavyweight rebuild path, and the result — like every
    // dictionary-compressed column — is frozen against further appends.
    auto* seg = static_cast<SegmentedStream*>(stream);
    TDE_ASSIGN_OR_RETURN(
        auto flat, MaterializeMonolithic(*seg, seg->encoder_options()));
    column->set_data(std::shared_ptr<EncodedStream>(std::move(flat)));
    stream = column->mutable_data();
  }
  const bool signed_values = IsSignedType(column->type());

  if (stream->type() == EncodingType::kDictionary) {
    // Sect. 3.4.3: copy the encoding dictionary into a compression
    // dictionary; the encoding entries become (sorted, narrowed) tokens.
    TDE_ASSIGN_OR_RETURN(DictCompression dc,
                         EncodingToCompression(*stream, signed_values));
    auto dict = std::make_shared<ArrayDictionary>();
    dict->type = column->type();
    dict->values = std::move(dc.dictionary);
    dict->sorted = true;
    column->set_array_dict(std::move(dict));
    column->set_data(std::move(dc.tokens));
    column->set_compression(CompressionKind::kArrayDict);
    column->mutable_metadata()->cardinality_known = true;
    column->mutable_metadata()->cardinality =
        column->array_dict()->values.size();
    return Status::OK();
  }

  if (stream->type() == EncodingType::kRunLength) {
    // Sect. 3.4.1/3.4.3: decompose into value and count streams, dictionary
    // the values, rebuild -> a scalar dictionary-compressed column with a
    // run-length encoded token stream, at O(runs) cost.
    TDE_ASSIGN_OR_RETURN(RleDecomposition parts, DecomposeRle(*stream));
    auto dict = std::make_shared<ArrayDictionary>();
    dict->type = column->type();
    dict->values = parts.values;
    std::sort(dict->values.begin(), dict->values.end());
    dict->values.erase(std::unique(dict->values.begin(), dict->values.end()),
                       dict->values.end());
    dict->sorted = true;
    for (Lane& v : parts.values) {
      v = static_cast<Lane>(
          std::lower_bound(dict->values.begin(), dict->values.end(), v) -
          dict->values.begin());
    }
    TDE_ASSIGN_OR_RETURN(auto tokens,
                         RebuildRle(parts, stream->width(),
                                    /*sign_extend=*/false));
    TDE_RETURN_NOT_OK(tokens->Finalize());
    column->set_array_dict(std::move(dict));
    column->set_data(std::move(tokens));
    column->set_compression(CompressionKind::kArrayDict);
    column->mutable_metadata()->cardinality_known = true;
    column->mutable_metadata()->cardinality =
        column->array_dict()->values.size();
    return Status::OK();
  }

  if (stream->type() == EncodingType::kFrameOfReference) {
    // Sect. 3.4.3's frame-of-reference variant: the sorted dictionary is
    // the frame envelope; some entries may not occur in the column.
    TDE_ASSIGN_OR_RETURN(DictCompression dc, ForToCompression(*stream));
    auto dict = std::make_shared<ArrayDictionary>();
    dict->type = column->type();
    dict->values = std::move(dc.dictionary);
    dict->sorted = true;
    column->set_array_dict(std::move(dict));
    column->set_data(std::move(dc.tokens));
    column->set_compression(CompressionKind::kArrayDict);
    column->mutable_metadata()->cardinality_known = true;
    column->mutable_metadata()->cardinality =
        column->array_dict()->values.size();
    return Status::OK();
  }

  return Status::NotImplemented(
      "dictionary conversion requires a dictionary-, run-length- or "
      "frame-of-reference-encoded column");
}

}  // namespace tde
