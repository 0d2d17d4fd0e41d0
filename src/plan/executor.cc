#include "src/plan/executor.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>

#include "src/exec/compressed_predicate.h"
#include "src/exec/filter.h"
#include "src/exec/instrument.h"
#include "src/exec/invisible_join.h"
#include "src/exec/limit.h"
#include "src/exec/ordered_aggregate.h"
#include "src/exec/parallel_rollup.h"
#include "src/exec/scheduler.h"
#include "src/exec/table_scan.h"
#include "src/exec/topn.h"
#include "src/observe/journal.h"
#include "src/observe/metrics.h"
#include "src/observe/trace.h"
#include "src/plan/strategic.h"

namespace tde {

/// The stats of a replicated chain's copies. Every copy of a chain
/// operator records into a node of its own, so concurrent morsel tasks
/// never write one node; Fold sums them into the node the plan's stats
/// tree shows once the tasks are done.
class MorselStats {
 public:
  /// Wraps one copy of the chain operator shown as `shown` (returned bare
  /// when stats are off).
  std::unique_ptr<Operator> Wrap(
      std::unique_ptr<Operator> op,
      const std::shared_ptr<observe::OperatorStats>& shown,
      const std::function<void(observe::OperatorStats*)>& on_close) {
    if (shown == nullptr) return op;
    auto node = std::make_shared<observe::OperatorStats>();
    node->name = shown->name;
    copies_.emplace_back(shown.get(), node);
    return std::make_unique<Instrumented>(std::move(op), std::move(node),
                                          on_close);
  }

  /// Sums the copies' rows, blocks and times into their shown nodes, so
  /// each chain operator shows once with its time summed over morsels.
  /// Extras describe the query, not the morsel: one copy's are kept.
  void Fold() {
    for (const auto& [shown, copy] : copies_) {
      shown->rows += copy->rows;
      shown->blocks += copy->blocks;
      shown->open_ns += copy->open_ns;
      shown->next_ns += copy->next_ns;
      shown->close_ns += copy->close_ns;
      if (shown->extras.empty()) shown->extras = copy->extras;
      if (shown->tags.empty()) shown->tags = copy->tags;
    }
    copies_.clear();
  }

 private:
  std::vector<std::pair<observe::OperatorStats*,
                        std::shared_ptr<observe::OperatorStats>>>
      copies_;
};

namespace {

ColumnProps PropsOf(const Column& col) {
  ColumnProps p;
  p.meta = col.metadata();
  p.width = col.TokenWidth();
  p.type = col.type();
  return p;
}

/// Properties of an inner column as a join emits it: the values (so the
/// bounds and width) are the inner table's, but the rows follow the outer
/// input, so the inner table's order facts do not carry over.
ColumnProps JoinedProps(const Column& col) {
  ColumnProps p = PropsOf(col);
  p.meta.sorted = false;
  p.meta.dense = false;
  p.meta.unique = false;
  return p;
}

/// For the output of an unordered Exchange, whose blocks arrive in the
/// order its workers finish them: no order fact of the input holds.
void DropOrderFacts(PropMap* props) {
  for (auto& [name, p] : *props) {
    p.meta.sorted = false;
    p.meta.dense = false;
  }
}

/// Wraps the built plan's operator in the instrumentation layer: a stats
/// node named `name` with the given children (the stats nodes of the
/// operator's lowered inputs), recorded into by an Instrumented wrapper.
/// No-op when stats collection is disabled.
void Attach(BuiltPlan* out, std::string name,
            std::vector<std::shared_ptr<observe::OperatorStats>> children,
            std::function<void(observe::OperatorStats*)> on_close = {}) {
  if (!observe::StatsEnabled()) return;
  auto node = std::make_shared<observe::OperatorStats>();
  node->name = std::move(name);
  for (auto& c : children) {
    if (c != nullptr) node->children.push_back(std::move(c));
  }
  out->op = std::make_unique<Instrumented>(std::move(out->op), node,
                                           std::move(on_close));
  out->stats = std::move(node);
}

/// Fills `out->props` with the column properties a scan of `node` exposes.
Status ScanProps(const PlanNode& node, BuiltPlan* out) {
  if (node.columns.empty()) {
    for (size_t i = 0; i < node.table->num_columns(); ++i) {
      const Column& c = node.table->column(i);
      out->props[c.name()] = PropsOf(c);
    }
  } else {
    for (const std::string& n : node.columns) {
      TDE_ASSIGN_OR_RETURN(auto c, node.table->ColumnByName(n));
      out->props[n] = PropsOf(*c);
    }
  }
  for (const std::string& n : node.code_columns) {
    auto it = out->props.find(n);
    if (it != out->props.end()) it->second.codes = true;
  }
  return Status::OK();
}

using OnClose = std::function<void(observe::OperatorStats*)>;

/// What zone-map pruning leaves of a scan, by segment (SurvivingSegments).
struct ScanSegments {
  /// Whether the scan reads a multi-segment column (else `ranges` stays
  /// empty, barring pruning on a column it does not read).
  bool segmented = false;
  /// Surviving segment-aligned row ranges, in row order, each with its
  /// segment's zone map.
  std::vector<RowRange> ranges;
  std::vector<SegmentZone> zones;
  uint64_t segments_pruned = 0;
  uint64_t rows_pruned = 0;

  /// The visit list of one scan over all of them: empty (everything)
  /// unless pruning dropped a segment; {0,0} when it dropped all.
  std::vector<RowRange> Visit() const {
    if (segments_pruned == 0) return {};
    if (ranges.empty()) return {{0, 0}};
    return ranges;
  }

  /// Records the pruning as EXPLAIN's note and the query's
  /// kSegmentsPruned / kRowsPruned counts. The operator that applies the
  /// pruning calls it, once.
  void Record(std::vector<std::string>* notes) const {
    if (segments_pruned == 0) return;
    notes->push_back("scan: " + std::to_string(segments_pruned) +
                     " segment(s) zone-map pruned (" +
                     std::to_string(rows_pruned) + " rows skipped)");
    observe::QueryCount(observe::QueryCounter::kSegmentsPruned,
                        segments_pruned);
    observe::QueryCount(observe::QueryCounter::kRowsPruned, rows_pruned);
  }

  /// The pruning figures as operator stats extras.
  void AddExtras(observe::OperatorStats* s) const {
    if (segments_pruned == 0) return;
    s->extras.emplace_back("segments_pruned", segments_pruned);
    s->extras.emplace_back("rows_pruned", rows_pruned);
  }
};

/// The one place that turns a scan's segments into row ranges: the
/// segments of `zone_column` — or, when empty, of the first multi-segment
/// column the scan reads, which keeps that column's blob faults
/// range-local — clipped to what zone-map pruning under `predicate` (may
/// be null) leaves to visit, each with that segment's zone. Any consistent
/// partition of the row space is correct for the scans built from it.
/// Consults directory facts only.
ScanSegments SurvivingSegments(const PlanNode& scan, const ExprPtr& predicate,
                               const std::string& zone_column) {
  ScanSegments out;
  const Table& table = *scan.table;
  const SegmentPruneResult prune = PruneScanSegments(table, predicate);
  out.segments_pruned = prune.segments_pruned;
  out.rows_pruned = prune.rows_pruned;
  const std::vector<RowRange> visit =
      prune.segments_pruned > 0 ? prune.ranges
                                : std::vector<RowRange>{{0, table.rows()}};
  std::vector<std::string> names;
  if (!zone_column.empty()) {
    names.push_back(zone_column);
  } else if (!scan.columns.empty()) {
    names = scan.columns;
  } else {
    for (size_t i = 0; i < table.num_columns(); ++i) {
      names.push_back(table.column(i).name());
    }
  }
  for (const std::string& n : names) {
    auto c = table.ColumnByName(n);
    if (!c.ok()) continue;
    const std::vector<SegmentShape> shapes = c.value()->SegmentShapes();
    if (shapes.size() <= 1) continue;
    out.segmented = true;
    for (const SegmentShape& s : shapes) {
      for (const RowRange& v : visit) {
        const uint64_t b = std::max(s.start_row, v.begin);
        const uint64_t e = std::min(s.start_row + s.rows, v.end);
        if (b < e) {
          out.ranges.push_back({b, e});
          out.zones.push_back(s.zone);
        }
      }
    }
    return out;
  }
  if (prune.segments_pruned > 0) out.ranges = prune.ranges;
  return out;
}

using MakeOp =
    std::function<std::unique_ptr<Operator>(std::unique_ptr<Operator>)>;

/// Lowers one chain operator (filter, projection, join) over `child`:
/// `make(child.op)`, instrumented as `name`. While the child is replicable
/// so is the result: a copy is `make` over a copy of the child, so
/// whatever `make` captures (a lowered predicate, a join build) is shared.
void Chain(BuiltPlan* out, BuiltPlan child, std::string name, MakeOp make,
           OnClose on_close = {}) {
  out->op = make(std::move(child.op));
  const OnClose copy_close = on_close;
  Attach(out, std::move(name), {std::move(child.stats)}, std::move(on_close));
  if (!child.replicate) return;
  out->morsels = std::move(child.morsels);
  out->replicate = [rep = std::move(child.replicate), make = std::move(make),
                    shown = out->stats, copy_close](
                       std::vector<RowRange> ranges, MorselStats* stats) {
    return stats->Wrap(make(rep(std::move(ranges), stats)), shown,
                       copy_close);
  };
}

/// Lowers a scan, pruned by the zone maps of `predicate` (the filter or
/// invisible join directly above it, if any), and emitting `join_column`
/// as codes for the invisible join above it. A scan of a segmented table
/// is replicable: its morsels are the surviving ranges of `zone_column`'s
/// segments (SurvivingSegments), and each copy reads the ones it is given.
Result<BuiltPlan> BuildScan(const PlanNode& node,
                            const ExprPtr& predicate = nullptr,
                            const std::string& join_column = "",
                            const std::string& zone_column = "") {
  BuiltPlan out;
  TDE_RETURN_NOT_OK(ScanProps(node, &out));
  for (const std::string& n : node.code_columns) {
    out.notes.push_back("scan(" + n + "): dictionary codes (group key)");
  }
  const ScanSegments segs = SurvivingSegments(node, predicate, zone_column);
  segs.Record(&out.notes);
  TableScanOptions opts;
  opts.columns = node.columns;
  opts.code_columns = node.code_columns;
  if (!join_column.empty()) opts.code_columns.push_back(join_column);
  opts.ranges = segs.Visit();
  opts.code_tables = std::make_shared<ScanCodeTables>();
  out.op = std::make_unique<TableScan>(node.table, opts);
  // A scan narrowed by projection pruning reports how many columns it
  // decodes (0 = every column, not reported).
  const uint64_t columns = node.columns.size();
  OnClose on_close;
  if (columns > 0 || segs.segments_pruned > 0) {
    on_close = [columns, segs](observe::OperatorStats* s) {
      if (columns > 0) s->extras.emplace_back("columns", columns);
      segs.AddExtras(s);
    };
  }
  const OnClose copy_close = on_close;
  Attach(&out, "TableScan(" + node.table->name() + ")", {},
         std::move(on_close));
  if (segs.segmented) {
    out.morsels = segs.ranges;
    out.zones = segs.zones;
    out.replicate = [table = node.table, opts, shown = out.stats, copy_close](
                        std::vector<RowRange> ranges, MorselStats* stats) {
      TableScanOptions copy = opts;
      copy.ranges = std::move(ranges);
      return stats->Wrap(std::make_unique<TableScan>(table, std::move(copy)),
                         shown, copy_close);
    };
  }
  return out;
}

/// Lowers a filter's input. Zone-map segment pruning: a scan directly
/// under the filter is handed its predicate, and segments whose zone maps
/// prove it false are never visited — their blobs never fault in on the
/// lazy v3 path.
Result<BuiltPlan> BuildFilterInput(const PlanNode& filter,
                                   const StrategicOptions& options) {
  const PlanNodePtr& c = filter.children[0];
  if (c->kind == PlanNodeKind::kScan && c->table != nullptr) {
    return BuildScan(*c, filter.predicate);
  }
  return BuildExecutable(c, options);
}

/// Records `rewrites` dictionary-code wrappers lowered at `site` (the
/// operator that evaluates them) as EXPLAIN's `site: N what` note and the
/// query's kDictRewrites count, and returns the Close hook that shows them
/// as the operator's `dict_rewrites`.
OnClose NoteDictRewrites(int rewrites, const std::string& site,
                         const std::string& what,
                         std::vector<std::string>* notes) {
  if (rewrites == 0) return {};
  notes->push_back(site + ": " + std::to_string(rewrites) + " " + what);
  const auto n = static_cast<uint64_t>(rewrites);
  observe::QueryCount(observe::QueryCounter::kDictRewrites, n);
  return [n](observe::OperatorStats* s) {
    s->extras.emplace_back("dict_rewrites", n);
  };
}

/// Rewrites eligible string-column subtrees of `pred` into dictionary-code
/// predicates against `schema`, noting the rewrites (NoteDictRewrites)
/// under `site`, and setting *on_close, when given, to the hook that shows
/// them. Returns `pred` unchanged when dictionary-code predicates are off.
ExprPtr LowerPredicate(const ExprPtr& pred, const StrategicOptions& options,
                       const Schema& schema, std::vector<std::string>* notes,
                       const std::string& site = "filter",
                       OnClose* on_close = nullptr) {
  if (!options.enable_dict_predicates || pred == nullptr) return pred;
  int rewrites = 0;
  ExprPtr lowered = expr::RewriteDictPredicates(pred, schema, &rewrites);
  OnClose hook = NoteDictRewrites(rewrites, site,
                                  "dictionary-code predicate(s)", notes);
  if (on_close != nullptr) *on_close = std::move(hook);
  return lowered;
}

Result<BuiltPlan> BuildFilter(const PlanNode& node, BuiltPlan child,
                              const StrategicOptions& options) {
  BuiltPlan out;
  out.notes = std::move(child.notes);
  OnClose on_close;
  ExprPtr pred = LowerPredicate(node.predicate, options,
                                child.op->output_schema(), &out.notes,
                                "filter", &on_close);
  // Filtering keeps value bounds and order but can destroy density
  // (Sect. 3.4.2: "the filter will remove an existing dense attribute").
  out.props = std::move(child.props);
  for (auto& [name, p] : out.props) p.meta.dense = false;
  out.grouped_on = child.grouped_on;
  // Copies share the lowered predicate, and so its dictionary
  // translations.
  Chain(&out, std::move(child), "Filter",
        [pred](std::unique_ptr<Operator> in) -> std::unique_ptr<Operator> {
          return std::make_unique<Filter>(std::move(in), pred);
        },
        std::move(on_close));
  return out;
}

/// Lowers a projection. Computations over one string column the child has
/// props for — a stored column reached through a scan or a join's payload,
/// whose heap outlives the block — are evaluated once per heap entry
/// (RewriteDictComputations). A string an expression below computed has
/// no props, so its per-block heaps keep per-row evaluation.
Result<BuiltPlan> BuildProject(const PlanNode& node, BuiltPlan child,
                               const StrategicOptions& options) {
  BuiltPlan out;
  out.notes = std::move(child.notes);
  for (const ProjectedColumn& pc : node.projections) {
    if (const std::string* ref = pc.expr->AsColumnRef()) {
      auto it = child.props.find(*ref);
      if (it != child.props.end()) out.props[pc.name] = it->second;
      if (child.grouped_on == *ref) out.grouped_on = pc.name;
    }
  }
  std::vector<ProjectedColumn> projections = node.projections;
  OnClose on_close;
  if (options.enable_dict_predicates) {
    Schema heaps;
    for (const auto& [name, p] : child.props) {
      if (p.type == TypeId::kString && !p.codes) heaps.AddField({name, p.type});
    }
    int rewrites = 0;
    for (ProjectedColumn& pc : projections) {
      pc.expr = expr::RewriteDictComputations(pc.expr, heaps, &rewrites);
    }
    on_close = NoteDictRewrites(rewrites, "project",
                                "per-entry computation(s)", &out.notes);
  }
  // Copies share the lowered computations, and so their translations.
  Chain(&out, std::move(child), "Project",
        [projections = std::move(projections)](
            std::unique_ptr<Operator> in) -> std::unique_ptr<Operator> {
          return std::make_unique<Project>(std::move(in), projections);
        },
        std::move(on_close));
  return out;
}

Result<BuiltPlan> BuildAggregate(const PlanNode& node, BuiltPlan child,
                                 const StrategicOptions& options) {
  AggregateOptions agg = node.agg;
  agg.dict_code_keys = options.enable_dict_grouping;
  BuiltPlan out;
  out.notes = std::move(child.notes);
  // Dictionary-code grouping engages per string key (the operator decides
  // against the key's heap at run time); note it when a key is eligible.
  // The lowered key props decide: a child such as Project has no output
  // schema before it is opened.
  bool dict_keys = false;
  if (agg.dict_code_keys) {
    for (const std::string& k : agg.group_by) {
      auto it = child.props.find(k);
      if (it != child.props.end() &&
          (it->second.type == TypeId::kString || it->second.codes)) {
        dict_keys = true;
      }
    }
  }
  const bool ordered = !node.force_hash_agg && agg.group_by.size() == 1 &&
                       child.grouped_on == agg.group_by[0];
  HashAggregate* hash_raw = nullptr;
  OrderedAggregate* ordered_raw = nullptr;
  std::shared_ptr<MorselStats> morsel_stats;
  if (ordered) {
    if (!agg.group_by.empty()) {
      out.notes.push_back("aggregate(" + agg.group_by[0] +
                          "): ordered (grouped input)");
    }
    auto op =
        std::make_unique<OrderedAggregate>(std::move(child.op), std::move(agg));
    ordered_raw = op.get();
    out.op = std::move(op);
  } else {
    // Every key's id domain, and a lone key's hash algorithm. A string key
    // that is not a code scan's groups through a normalizer while
    // dictionary grouping is on, so its lane range is no id for the
    // composite index.
    std::vector<uint64_t> spans;
    for (const std::string& k : agg.group_by) {
      auto it = child.props.find(k);
      if (it == child.props.end()) {
        agg.key_domains.emplace_back();
        spans.push_back(0);
        continue;
      }
      const GroupingChoice gc = ChooseGrouping(it->second);
      if (agg.group_by.size() == 1 && !agg.hash_algorithm.has_value()) {
        agg.hash_algorithm = gc.algorithm;
      }
      agg.key_domains.push_back(gc.domain);
      const bool normalized = agg.dict_code_keys && !it->second.codes &&
                              it->second.type == TypeId::kString;
      spans.push_back(normalized ? 0 : gc.domain.span);
    }
    std::string index;
    const uint64_t slots = CompositeSlots(spans);
    if (agg.group_by.size() > 1 && slots > 0) {
      index = "composite direct index (" + std::to_string(slots) + " slots)";
    }
    if (index.empty()) {
      index = dict_keys && agg.group_by.size() == 1
                  ? std::string("dictionary codes (direct, late "
                                "materialization)")
                  : HashAlgorithmName(agg.hash_algorithm.value_or(
                        HashAlgorithm::kCollision)) +
                        std::string(" hash");
    }
    if (!agg.group_by.empty()) {
      out.notes.push_back("aggregate(" + agg.group_by[0] + "): " + index);
    }
    std::unique_ptr<HashAggregate> op;
    if (child.replicate && child.morsels.size() >= 2) {
      // Morsel-parallel aggregation: one copy of the input chain per
      // surviving segment range, each run as one task into a partial
      // aggregate; the partials merge in segment order. The whole-table
      // chain built above never runs.
      morsel_stats = std::make_shared<MorselStats>();
      std::vector<std::unique_ptr<Operator>> inputs;
      for (const RowRange& r : child.morsels) {
        inputs.push_back(child.replicate({r}, morsel_stats.get()));
      }
      child.op.reset();
      out.notes.push_back(
          "aggregate" +
          (agg.group_by.empty() ? std::string()
                                : "(" + agg.group_by[0] + ")") +
          ": " + std::to_string(inputs.size()) +
          " segment morsels in parallel");
      op = std::make_unique<HashAggregate>(std::move(inputs), std::move(agg));
    } else {
      op = std::make_unique<HashAggregate>(std::move(child.op),
                                           std::move(agg));
    }
    hash_raw = op.get();
    out.op = std::move(op);
  }
  for (const std::string& k : node.agg.group_by) {
    auto it = child.props.find(k);
    if (it != child.props.end()) out.props[k] = it->second;
  }
  OnClose on_close;
  if (dict_keys || morsel_stats != nullptr) {
    // The wrapper's Close runs after the aggregate's pipeline finishes, so
    // the group count and the morsel figures are final here.
    on_close = [hash_raw, ordered_raw, dict_keys,
                morsel_stats](observe::OperatorStats* s) {
      if (morsel_stats != nullptr) {
        morsel_stats->Fold();
        // The chain below reports time summed over morsel tasks; so does
        // this node's self time: the tasks' time replaces the wall time
        // spent waiting for them. cpu_us is the tasks' thread CPU time,
        // which leaves out time a task spent descheduled or blocked.
        const uint64_t wall = s->total_ns();
        const uint64_t waited = std::min(wall, hash_raw->morsel_wall_ns());
        s->task_ns = wall - waited + hash_raw->morsel_task_ns();
        s->extras.emplace_back("morsels", hash_raw->morsels());
        s->extras.emplace_back("threads", hash_raw->morsel_threads());
        s->extras.emplace_back("cpu_us", hash_raw->morsel_cpu_ns() / 1000);
      }
      if (!dict_keys) return;
      const uint64_t groups = hash_raw != nullptr
                                  ? hash_raw->groups_late_materialized()
                                  : ordered_raw->groups_late_materialized();
      if (groups == 0) return;
      s->extras.emplace_back("groups_late_materialized", groups);
      observe::QueryCount(observe::QueryCounter::kGroupsLateMaterialized,
                          groups);
    };
  }
  const std::string key =
      node.agg.group_by.empty() ? "" : "(" + node.agg.group_by[0] + ")";
  Attach(&out,
         (ordered ? "OrderedAggregate" : "HashAggregate") + key,
         {std::move(child.stats)}, std::move(on_close));
  return out;
}

/// Emits the one answer row of a metadata-answered whole-table aggregate
/// (TryMetadataAggregate). No scan ever opens — the answers were computed
/// from directory facts at strategic time.
class MetadataAggregateSource : public Operator {
 public:
  MetadataAggregateSource(Schema schema, std::vector<Lane> row)
      : schema_(std::move(schema)), row_(std::move(row)) {}

  Status Open() override {
    done_ = false;
    return Status::OK();
  }

  Status Next(Block* block, bool* eos) override {
    block->columns.clear();
    if (done_) {
      *eos = true;
      return Status::OK();
    }
    for (size_t i = 0; i < row_.size(); ++i) {
      ColumnVector cv;
      cv.type = schema_.field(i).type;
      cv.lanes.push_back(row_[i]);
      block->columns.push_back(std::move(cv));
    }
    done_ = true;
    *eos = false;
    return Status::OK();
  }

  const Schema& output_schema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<Lane> row_;
  bool done_ = false;
};

Result<BuiltPlan> BuildMetadataAggregate(const PlanNode& node) {
  const PlanNode& scan = *node.children[0];
  Schema schema;
  for (const AggSpec& a : node.agg.aggs) {
    TypeId input_type = TypeId::kInteger;
    if (a.kind != AggKind::kCountStar) {
      TDE_ASSIGN_OR_RETURN(auto c, scan.table->ColumnByName(a.input));
      input_type = c->type();
    }
    schema.AddField({a.output, agg_internal::OutputType(a.kind, input_type)});
  }
  BuiltPlan out;
  out.notes.push_back("aggregate: " + std::to_string(node.metadata_row.size()) +
                      " aggregate(s) answered from metadata, scan elided");
  observe::QueryCount(observe::QueryCounter::kMetadataAnswers,
                      node.metadata_row.size());
  const uint64_t answers = node.metadata_row.size();
  out.op = std::make_unique<MetadataAggregateSource>(std::move(schema),
                                                     node.metadata_row);
  Attach(&out, "MetadataAggregate(" + scan.table->name() + ")", {},
         [answers](observe::OperatorStats* s) {
           s->extras.emplace_back("metadata_answers", answers);
         });
  return out;
}

Result<BuiltPlan> BuildRunFoldAggregate(const PlanNode& node) {
  const PlanNode& isnode = *node.children[0];
  TDE_ASSIGN_OR_RETURN(auto col,
                       isnode.table->ColumnByName(isnode.index_column));
  TDE_ASSIGN_OR_RETURN(std::vector<IndexEntry> index, BuildIndexTable(*col));

  // Share the heap for cold token columns so it survives eviction (same as
  // BuildIndexedScan).
  std::shared_ptr<const StringHeap> value_heap;
  if (col->compression() == CompressionKind::kHeap) {
    TDE_ASSIGN_OR_RETURN(auto heap_pin, col->Pin());
    value_heap = heap_pin
                     ? std::shared_ptr<const StringHeap>(heap_pin->heap)
                     : std::shared_ptr<const StringHeap>(col, col->heap());
  }

  RunFoldOptions opts;
  opts.value_name = isnode.index_column;
  opts.value_type = col->type();
  opts.value_heap = std::move(value_heap);
  opts.group_by_value = !node.agg.group_by.empty();
  opts.aggs = node.agg.aggs;

  BuiltPlan out;
  out.notes.push_back("aggregate(" + isnode.index_column + "): folded " +
                      std::to_string(index.size()) + " runs (" +
                      std::to_string(IndexRowCount(index)) +
                      " rows) in the compressed domain");
  out.props[isnode.index_column] = PropsOf(*col);
  if (opts.group_by_value) out.grouped_on = isnode.index_column;
  auto op = std::make_unique<RunFoldAggregate>(std::move(index),
                                               std::move(opts));
  RunFoldAggregate* raw = op.get();
  out.op = std::move(op);
  Attach(&out, "RunFoldAggregate(" + isnode.index_column + ")", {},
         [raw](observe::OperatorStats* s) {
           s->extras.emplace_back("runs_folded", raw->runs_folded());
         });
  return out;
}

Result<BuiltPlan> BuildJoinTable(const PlanNode& node, BuiltPlan child,
                                 const StrategicOptions& options) {
  BuiltPlan out;
  out.notes = std::move(child.notes);
  {
    auto choice = ChooseJoinStrategy(*node.inner_table, node.join.inner_key);
    if (choice.ok()) {
      out.notes.push_back("join(" + node.join.inner_key + "): " +
                          JoinStrategyName(choice.value().strategy));
    }
  }
  for (const std::string& p : node.join.inner_payload) {
    TDE_ASSIGN_OR_RETURN(auto c, node.inner_table->ColumnByName(p));
    out.props[p] = JoinedProps(*c);
  }
  out.props.insert(child.props.begin(), child.props.end());
  // One build per query, shared by every probe copy; its key index is
  // kept with the inner table for the queries after it.
  const std::string site = "join(" + node.join.inner_key + ")";
  ExprPtr inner_pred =
      LowerPredicate(node.inner_predicate, options,
                     node.inner_table->GetSchema(), &out.notes, site);
  auto build = std::make_shared<JoinBuild>(node.inner_table, node.join,
                                           inner_pred);
  if (inner_pred != nullptr) {
    out.notes.push_back(site + ": inner predicate " + inner_pred->ToString());
  }
  OnClose on_close = [build, filtered = inner_pred != nullptr](
                         observe::OperatorStats* s) {
    if (filtered) {
      // How much of the inner table the pushed predicate left joinable.
      s->extras.emplace_back("inner_rows", build->inner_rows());
      s->extras.emplace_back("inner_rows_passed", build->inner_rows_passed());
    }
    s->extras.emplace_back("build_us", build->build_ns() / 1000);
    s->extras.emplace_back("build_tasks", build->build_tasks());
    s->tags.emplace_back("index", build->index_built() ? "built" : "reused");
  };
  Chain(&out, std::move(child), "HashJoin(" + node.join.inner_key + ")",
        [build](std::unique_ptr<Operator> outer) -> std::unique_ptr<Operator> {
          return std::make_unique<HashJoin>(std::move(outer), build);
        },
        std::move(on_close));
  return out;
}

/// Lowers an invisible join (Sect. 4.1) to one chain operator over its
/// scan, which emits the joined column as dense codes and is zone-map
/// pruned by the pushed predicate. The code map is built here, once per
/// query, and shared by every morsel copy of the join.
Result<BuiltPlan> BuildInvisibleJoin(const PlanNode& node,
                                     const StrategicOptions& options) {
  const PlanNode& scan = *node.children[0];
  if (scan.kind != PlanNodeKind::kScan) {
    return {Status::Internal("invisible join child must be a scan")};
  }
  const std::string& c = node.dict_column;
  TDE_ASSIGN_OR_RETURN(auto col, scan.table->ColumnByName(c));
  // A column nothing above reads (projection pruning left it out of the
  // scan) is scanned for its codes, but not emitted.
  PlanNode coded = scan;
  const bool emit = scan.columns.empty() ||
                    std::find(scan.columns.begin(), scan.columns.end(), c) !=
                        scan.columns.end();
  if (!emit) coded.columns.push_back(c);
  TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                       BuildScan(coded, node.inner_predicate, c));
  TDE_ASSIGN_OR_RETURN(std::shared_ptr<const CodeMap> map,
                       BuildCodeMap(col, node.inner_predicate,
                                    node.inner_projections));
  const expr::DictTranslation& pass = map->pass;
  std::string note = "invisible join(" + c + "): code map of " +
                     std::to_string(map->codes()) + " entries";
  if (node.inner_predicate != nullptr) {
    note += ", " + std::to_string(pass.count) + " pass";
    if (pass.count > 0) {
      note += pass.interval ? " as one code interval [" +
                                  std::to_string(pass.lo) + ", " +
                                  std::to_string(pass.hi) + "]"
                            : ", not one interval";
    }
  }
  BuiltPlan out;
  out.notes = std::move(child.notes);
  out.notes.push_back(std::move(note));
  // Density drops, as under a Filter; computed columns carry their type
  // alone, no order facts.
  out.props = std::move(child.props);
  for (auto& [name, p] : out.props) p.meta.dense = false;
  if (!emit) out.props.erase(c);
  const Schema& in = child.op->output_schema();
  for (const ProjectedColumn& pc : node.inner_projections) {
    TDE_ASSIGN_OR_RETURN(out.props[pc.name].type, pc.expr->ResultType(in));
  }
  // Blocks that arrive without codes filter the way a Filter does.
  ExprPtr row_pred = node.inner_predicate;
  if (row_pred != nullptr && options.enable_dict_predicates) {
    int rewrites = 0;
    row_pred = expr::RewriteDictPredicates(row_pred, in, &rewrites);
  }
  OnClose on_close = [map](observe::OperatorStats* s) {
    s->extras.emplace_back("codes", map->codes());
    s->extras.emplace_back("codes_passed", map->pass.count);
    s->extras.emplace_back("map_us", map->build_ns / 1000);
  };
  Chain(&out, std::move(child), "InvisibleJoin(" + c + ")",
        [c, emit, map, row_pred, computations = node.inner_projections](
            std::unique_ptr<Operator> in) -> std::unique_ptr<Operator> {
          return std::make_unique<InvisibleJoin>(std::move(in), c, emit, map,
                                                 row_pred, computations);
        },
        std::move(on_close));
  return out;
}

Result<BuiltPlan> BuildIndexedScan(const PlanNode& node, bool* grouped) {
  TDE_ASSIGN_OR_RETURN(auto col, node.table->ColumnByName(node.index_column));
  TDE_ASSIGN_OR_RETURN(std::vector<IndexEntry> index, BuildIndexTable(*col));

  // Share the payload heap for cold columns so it survives eviction; the
  // index-side predicate below needs it too when the values are tokens.
  std::shared_ptr<const StringHeap> value_heap;
  if (col->compression() == CompressionKind::kHeap) {
    TDE_ASSIGN_OR_RETURN(auto heap_pin, col->Pin());
    value_heap = heap_pin
                     ? std::shared_ptr<const StringHeap>(heap_pin->heap)
                     : std::shared_ptr<const StringHeap>(col, col->heap());
  }

  // Push the predicate down to the (tiny) index side: evaluate it once per
  // run over the entry values and keep qualifying ranges — whole runs are
  // emitted or skipped without ever touching their rows.
  uint64_t runs_skipped = 0;
  uint64_t rows_pruned = 0;
  const size_t total_runs = index.size();
  if (node.index_predicate != nullptr) {
    Schema index_schema;
    index_schema.AddField({node.index_column, col->type()});
    Block b;
    b.columns.resize(1);
    b.columns[0].type = col->type();
    b.columns[0].heap = value_heap;
    b.columns[0].lanes.reserve(index.size());
    for (const IndexEntry& e : index) b.columns[0].lanes.push_back(e.value);
    SelectionVector sel;
    TDE_RETURN_NOT_OK(
        BoundPredicate(node.index_predicate, index_schema).Select(b, &sel));
    std::vector<IndexEntry> kept;
    kept.reserve(sel.size());
    for (const uint32_t i : sel) kept.push_back(index[i]);
    runs_skipped = index.size() - kept.size();
    rows_pruned = IndexRowCount(index) - IndexRowCount(kept);
    index = std::move(kept);
    observe::QueryCount(observe::QueryCounter::kRunsSkipped, runs_skipped);
    observe::QueryCount(observe::QueryCounter::kRowsPruned, rows_pruned);
  }

  // Tactical decision (Sect. 4.2.2): sort the index for ordered retrieval
  // when the runs are long enough to pay for it.
  const bool value_ordered = col->metadata().sorted;
  IndexedAggChoice choice = ChooseIndexedAggregation(index, value_ordered);
  if (node.sort_index_by_value.has_value()) {
    choice.sort_index = *node.sort_index_by_value && !value_ordered;
    choice.ordered_aggregation = *node.sort_index_by_value || value_ordered;
  }
  if (choice.sort_index) SortIndexByValue(&index);
  *grouped = choice.ordered_aggregation;

  IndexedScanOptions opts;
  opts.value_name = node.index_column;
  opts.value_type = col->type();
  opts.value_heap = std::move(value_heap);
  opts.payload = node.payload;
  BuiltPlan out;
  out.notes.push_back(
      "indexed scan(" + node.index_column + "): " +
      std::to_string(index.size()) + " qualifying entries" +
      (choice.sort_index ? ", sorted by value" : "") +
      (choice.ordered_aggregation ? ", enables ordered aggregation" : ""));
  if (node.index_predicate != nullptr) {
    out.notes.push_back("run filter(" + node.index_column + "): skipped " +
                        std::to_string(runs_skipped) + "/" +
                        std::to_string(total_runs) + " runs (" +
                        std::to_string(rows_pruned) + " rows)");
  }
  out.props[node.index_column] = PropsOf(*col);
  for (const std::string& p : node.payload) {
    TDE_ASSIGN_OR_RETURN(auto pc, node.table->ColumnByName(p));
    out.props[p] = PropsOf(*pc);
  }
  if (choice.ordered_aggregation) out.grouped_on = node.index_column;
  uint64_t runs_sorted = 0;
  if (node.sort_runs) {
    // The run-sort rewrite: an ORDER BY became ordered run retrieval, so
    // the sort touched `index.size()` runs instead of their rows.
    runs_sorted = index.size();
    out.notes.push_back("sort(" + node.index_column + "): ordered " +
                        std::to_string(runs_sorted) +
                        " runs in the compressed domain, not " +
                        std::to_string(IndexRowCount(index)) + " rows");
    observe::QueryCount(observe::QueryCounter::kRunsSorted, runs_sorted);
    out.grouped_on = node.index_column;
    out.props[node.index_column].meta.sorted = true;
  }
  out.op = std::make_unique<IndexedScan>(node.table, std::move(index),
                                         std::move(opts));
  std::function<void(observe::OperatorStats*)> on_close;
  if (node.index_predicate != nullptr || runs_sorted > 0) {
    const bool filtered = node.index_predicate != nullptr;
    on_close = [filtered, runs_skipped, rows_pruned,
                runs_sorted](observe::OperatorStats* s) {
      if (filtered) {
        s->extras.emplace_back("runs_skipped", runs_skipped);
        s->extras.emplace_back("rows_pruned", rows_pruned);
      }
      if (runs_sorted > 0) s->extras.emplace_back("runs_sorted", runs_sorted);
    };
  }
  Attach(&out, "IndexedScan(" + node.index_column + ")", {},
         std::move(on_close));
  return out;
}

/// An exchange worker's filter: `pred` is bound once, against the schema
/// of the first block any worker transforms (every source of one exchange
/// has the same schema), and the bound state is then shared read-only.
BlockTransform FilterTransform(ExprPtr pred) {
  struct Shared {
    ExprPtr pred;
    std::once_flag once;
    std::optional<BoundPredicate> bound;
  };
  auto shared = std::make_shared<Shared>();
  shared->pred = std::move(pred);
  return [shared](const Schema& schema, Block* block) -> Status {
    std::call_once(shared->once,
                   [&] { shared->bound.emplace(shared->pred, schema); });
    SelectionVector sel;
    TDE_RETURN_NOT_OK(shared->bound->Select(*block, &sel));
    block->Compact(sel);
    return Status::OK();
  };
}

/// Lowers kExchange over its lowered input. A Filter directly below runs
/// in the workers (that is the parallelized segment); its own input lowers
/// as under any other filter. An unordered exchange over a replicable
/// input of two or more morsels is partitioned: the morsels are dealt
/// round robin to at most `workers` partitions, each a copy of the input
/// chain drained by its own task, so workers share no input queue.
/// Otherwise one producer task reads the input and fans its blocks out.
Result<BuiltPlan> BuildExchange(const PlanNode& node,
                                const StrategicOptions& options) {
  const PlanNodePtr& child = node.children[0];
  ExchangeOptions opts;
  // <= 0 means "size from the shared pool": half the pool per query, so
  // concurrent queries cannot each claim every worker.
  opts.workers = node.exchange_workers > 0
                     ? node.exchange_workers
                     : TaskScheduler::Global().SuggestedQueryParallelism();
  opts.order_preserving = node.order_preserving;
  BuiltPlan in;
  if (child->kind == PlanNodeKind::kFilter) {
    TDE_ASSIGN_OR_RETURN(in, BuildFilterInput(*child, options));
    // The same dictionary-code lowering as BuildFilter; the wrapper's
    // translation cache is mutex-guarded, so workers share it safely.
    opts.transform = FilterTransform(LowerPredicate(
        child->predicate, options, in.op->output_schema(), &in.notes));
    for (auto& [name, p] : in.props) p.meta.dense = false;
  } else {
    TDE_ASSIGN_OR_RETURN(in, BuildExecutable(child, options));
  }
  BuiltPlan out;
  out.notes = std::move(in.notes);
  out.props = std::move(in.props);
  if (opts.order_preserving) {
    out.grouped_on = in.grouped_on;
  } else {
    DropOrderFacts(&out.props);
  }
  std::unique_ptr<Exchange> exchange;
  std::string name;
  std::shared_ptr<MorselStats> morsel_stats;
  if (!opts.order_preserving && in.replicate && in.morsels.size() >= 2) {
    const size_t nparts = std::min<size_t>(
        static_cast<size_t>(opts.workers), in.morsels.size());
    std::vector<std::vector<RowRange>> parts(nparts);
    for (size_t i = 0; i < in.morsels.size(); ++i) {
      parts[i % nparts].push_back(in.morsels[i]);
    }
    morsel_stats = std::make_shared<MorselStats>();
    std::vector<std::unique_ptr<Operator>> partitions;
    for (std::vector<RowRange>& p : parts) {
      partitions.push_back(in.replicate(std::move(p), morsel_stats.get()));
    }
    out.notes.push_back("exchange: unordered routing, segment-partitioned: " +
                        std::to_string(nparts) + " partitions over " +
                        std::to_string(in.morsels.size()) +
                        " segment ranges");
    exchange = std::make_unique<Exchange>(std::move(partitions), opts);
    name = "Exchange(partitioned, " + std::to_string(nparts) + " partitions)";
  } else {
    out.notes.push_back(std::string("exchange: ") +
                        (opts.order_preserving ? "order-preserving"
                                               : "unordered") +
                        " routing, " + std::to_string(opts.workers) +
                        " workers");
    exchange = std::make_unique<Exchange>(std::move(in.op), opts);
    name = "Exchange(" + std::to_string(opts.workers) + " workers, " +
           (opts.order_preserving ? "ordered" : "unordered") + ")";
  }
  Exchange* raw = exchange.get();
  out.op = std::move(exchange);
  Attach(&out, std::move(name), {std::move(in.stats)},
         // The wrapper's Close runs right after Exchange::Close joins the
         // tasks and closes the input, so the run stats are final here.
         [raw, morsel_stats](observe::OperatorStats* s) {
           const ExchangeRunStats& rs = raw->run_stats();
           if (morsel_stats != nullptr) {
             morsel_stats->Fold();
             // As under the morsel-parallel HashAggregate: the input chain
             // reports time summed over the partitions' tasks, and so does
             // this node, whose tasks' run time replaces the wall time the
             // consumer spent waiting for them.
             const uint64_t wall = s->total_ns();
             s->task_ns =
                 wall - std::min(wall, rs.consumer_wait_ns) + rs.task_ns;
           }
           s->extras.emplace_back("blocks_in", rs.blocks_in);
           s->extras.emplace_back("producer_wait_us",
                                  rs.producer_wait_ns / 1000);
           s->extras.emplace_back("consumer_wait_us",
                                  rs.consumer_wait_ns / 1000);
           for (size_t i = 0; i < rs.workers.size(); ++i) {
             s->extras.emplace_back(
                 "w" + std::to_string(i) + "_blocks", rs.workers[i].blocks);
             s->extras.emplace_back(
                 "w" + std::to_string(i) + "_rows_emitted",
                 rs.workers[i].rows_emitted);
             s->extras.emplace_back(
                 "w" + std::to_string(i) + "_queue_wait_us",
                 rs.workers[i].queue_wait_ns / 1000);
           }
         });
  return out;
}

/// Lowers kTopN. Directly over a segmented scan (with sort pruning on and
/// a lane-comparable first key) the scan is cut at the key's segments and
/// each morsel becomes one source carrying the key's zone: once the heap
/// is full, TopN skips — never opens, never faults — sources whose best
/// possible row cannot beat the current worst. Otherwise one source over
/// the lowered child, with a sorted-input short-circuit when the child is
/// already ordered on the first key.
Result<BuiltPlan> BuildTopN(const PlanNode& node,
                            const StrategicOptions& options) {
  const std::string key0 =
      node.sort_keys.empty() ? std::string() : node.sort_keys[0].column;
  const PlanNode& scan = *node.children[0];
  bool zoned = options.enable_sort_pruning && !key0.empty() &&
               scan.kind == PlanNodeKind::kScan && scan.table != nullptr &&
               scan.code_columns.empty() &&
               (scan.columns.empty() ||
                std::find(scan.columns.begin(), scan.columns.end(), key0) !=
                    scan.columns.end());
  if (zoned) {
    auto col = scan.table->ColumnByName(key0);
    zoned = col.ok() && LaneComparable(col.value()->type());
  }
  BuiltPlan in;
  if (zoned) {
    TDE_ASSIGN_OR_RETURN(in, BuildScan(scan, nullptr, "", key0));
  } else {
    TDE_ASSIGN_OR_RETURN(in, BuildExecutable(node.children[0], options));
  }
  BuiltPlan out;
  out.notes = std::move(in.notes);
  out.props = std::move(in.props);
  TopNOptions topts;
  topts.dict_sort = options.enable_dict_sort;
  std::vector<TopNSource> sources;
  const auto morsel_stats = std::make_shared<MorselStats>();
  const auto key = key0.empty() ? out.props.end() : out.props.find(key0);
  if (zoned && in.replicate && in.morsels.size() >= 2) {
    for (size_t i = 0; i < in.morsels.size(); ++i) {
      TopNSource src;
      src.op = in.replicate({in.morsels[i]}, morsel_stats.get());
      const ColumnMetadata& zone = in.zones[i].meta;
      if (zone.min_max_known) {
        src.zone_known = true;
        src.min_value = zone.min_value;
        src.max_value = zone.max_value;
        src.has_nulls = !zone.null_known || zone.has_nulls;
      }
      sources.push_back(std::move(src));
    }
    out.notes.push_back("topn(" + key0 + "): k=" + std::to_string(node.limit) +
                        ", " + std::to_string(sources.size()) +
                        " segment sources with zone skipping");
  } else {
    if (key != out.props.end() && key->second.meta.sorted &&
        node.sort_keys[0].ascending) {
      // Child already ordered on the first key: the drain can stop at the
      // first row that cannot enter the full heap.
      topts.input_sorted = true;
      out.notes.push_back("topn(" + key0 +
                          "): sorted input, early stop enabled");
    }
    sources.emplace_back();
    sources.back().op = std::move(in.op);
  }
  if (!key0.empty()) out.grouped_on = key0;
  if (key != out.props.end()) key->second.meta.sorted = true;
  const size_t nsources = sources.size();
  auto topn = std::make_unique<TopN>(std::move(sources), node.sort_keys,
                                     node.limit, topts);
  TopN* raw = topn.get();
  out.op = std::move(topn);
  Attach(&out,
         "TopN(" + std::to_string(node.limit) +
             (nsources > 1 ? ", " + std::to_string(nsources) + " segments"
                           : std::string()) +
             ")",
         {std::move(in.stats)},
         [raw, morsel_stats, nsources](observe::OperatorStats* s) {
           morsel_stats->Fold();
           s->extras.emplace_back("input_rows", raw->input_rows());
           s->extras.emplace_back("rows_materialized",
                                  raw->rows_materialized());
           observe::QueryCount(observe::QueryCounter::kRowsMaterialized,
                               raw->rows_materialized());
           if (nsources > 1) {
             s->extras.emplace_back("segments_skipped",
                                    raw->segments_skipped());
             observe::QueryCount(observe::QueryCounter::kTopNSegmentsSkipped,
                                 raw->segments_skipped());
           }
           if (raw->early_stopped()) s->extras.emplace_back("early_stop", 1);
           if (raw->dict_keys() > 0) {
             s->extras.emplace_back("dict_key_sorts", raw->dict_keys());
             observe::QueryCount(observe::QueryCounter::kDictKeySorts,
                                 raw->dict_keys());
           }
         });
  return out;
}

}  // namespace

Result<BuiltPlan> BuildExecutable(const PlanNodePtr& node,
                                  const StrategicOptions& options) {
  switch (node->kind) {
    case PlanNodeKind::kScan:
      return BuildScan(*node);
    case PlanNodeKind::kFilter: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child, BuildFilterInput(*node, options));
      return BuildFilter(*node, std::move(child), options);
    }
    case PlanNodeKind::kProject: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                           BuildExecutable(node->children[0], options));
      return BuildProject(*node, std::move(child), options);
    }
    case PlanNodeKind::kAggregate: {
      if (node->metadata_answered) return BuildMetadataAggregate(*node);
      if (node->fold_runs && !node->children.empty() &&
          node->children[0]->kind == PlanNodeKind::kIndexedScan) {
        return BuildRunFoldAggregate(*node);
      }
      TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                           BuildExecutable(node->children[0], options));
      return BuildAggregate(*node, std::move(child), options);
    }
    case PlanNodeKind::kSort: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                           BuildExecutable(node->children[0], options));
      BuiltPlan out;
      out.notes = std::move(child.notes);
      out.props = std::move(child.props);
      if (!node->sort_keys.empty()) {
        out.grouped_on = node->sort_keys[0].column;
        auto it = out.props.find(node->sort_keys[0].column);
        if (it != out.props.end()) it->second.meta.sorted = true;
      }
      SortOptions sopts;
      sopts.dict_sort = options.enable_dict_sort;
      auto sort = std::make_unique<Sort>(std::move(child.op), node->sort_keys,
                                         sopts);
      // The wrapper owns the operator, so the raw pointer outlives Close.
      Sort* raw = sort.get();
      out.op = std::move(sort);
      Attach(&out,
             "Sort(" +
                 (node->sort_keys.empty() ? std::string()
                                          : node->sort_keys[0].column) +
                 ")",
             {std::move(child.stats)}, [raw](observe::OperatorStats* s) {
               s->extras.emplace_back("rows_materialized", raw->rows_sorted());
               observe::QueryCount(observe::QueryCounter::kRowsMaterialized,
                                   raw->rows_sorted());
               if (raw->dict_key_sorts() > 0) {
                 s->extras.emplace_back("dict_key_sorts",
                                        raw->dict_key_sorts());
                 observe::QueryCount(observe::QueryCounter::kDictKeySorts,
                                     raw->dict_key_sorts());
               }
               if (raw->parallel_chunks() > 0) {
                 s->extras.emplace_back("parallel_chunks",
                                        raw->parallel_chunks());
               }
             });
      return out;
    }
    case PlanNodeKind::kJoinTable: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                           BuildExecutable(node->children[0], options));
      return BuildJoinTable(*node, std::move(child), options);
    }
    case PlanNodeKind::kInvisibleJoin:
      return BuildInvisibleJoin(*node, options);
    case PlanNodeKind::kIndexedScan: {
      bool grouped = false;
      return BuildIndexedScan(*node, &grouped);
    }
    case PlanNodeKind::kLimit: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                           BuildExecutable(node->children[0], options));
      BuiltPlan out;
      out.notes = std::move(child.notes);
      out.props = std::move(child.props);
      out.grouped_on = child.grouped_on;
      out.op = std::make_unique<Limit>(std::move(child.op), node->limit);
      std::function<void(observe::OperatorStats*)> on_close;
      if (node->pruned_rows > 0) {
        // A metadata-pruned filter: the LIMIT 0 stands in for a scan whose
        // predicate the directory proved always-false.
        out.notes.push_back("metadata prune: filter provably false, " +
                            std::to_string(node->pruned_rows) +
                            " rows eliminated without scanning");
        observe::QueryCount(observe::QueryCounter::kRowsPruned,
                            node->pruned_rows);
        const uint64_t pruned = node->pruned_rows;
        on_close = [pruned](observe::OperatorStats* s) {
          s->extras.emplace_back("rows_pruned", pruned);
        };
      }
      Attach(&out, "Limit(" + std::to_string(node->limit) + ")",
             {std::move(child.stats)}, std::move(on_close));
      return out;
    }
    case PlanNodeKind::kTopN:
      return BuildTopN(*node, options);
    case PlanNodeKind::kExchange:
      return BuildExchange(*node, options);
    case PlanNodeKind::kMaterialize: {
      TDE_ASSIGN_OR_RETURN(BuiltPlan child,
                           BuildExecutable(node->children[0], options));
      BuiltPlan out;
      out.notes = std::move(child.notes);
      out.op = std::make_unique<FlowTable>(std::move(child.op), node->flow);
      Attach(&out, "FlowTable(" + node->flow.table_name + ")",
             {std::move(child.stats)});
      return out;
    }
  }
  return {Status::Internal("unknown plan node kind")};
}

QueryResult::QueryResult(Schema schema, std::vector<Block> blocks)
    : schema_(std::move(schema)), blocks_(std::move(blocks)) {
  for (const Block& b : blocks_) rows_ += b.rows();
}

const ColumnVector* QueryResult::Locate(uint64_t row, size_t col,
                                        size_t* offset) const {
  for (const Block& b : blocks_) {
    if (row < b.rows()) {
      *offset = static_cast<size_t>(row);
      return &b.columns[col];
    }
    row -= b.rows();
  }
  return nullptr;
}

Lane QueryResult::Value(uint64_t row, size_t col) const {
  size_t off = 0;
  const ColumnVector* cv = Locate(row, col, &off);
  return cv == nullptr ? kNullSentinel : cv->lanes[off];
}

std::string QueryResult::ValueString(uint64_t row, size_t col) const {
  size_t off = 0;
  const ColumnVector* cv = Locate(row, col, &off);
  if (cv == nullptr) return "NULL";
  const Lane v = cv->lanes[off];
  if (v == kNullSentinel) return "NULL";
  if (cv->type == TypeId::kString && cv->heap != nullptr) {
    return std::string(cv->heap->Get(v));
  }
  return FormatLane(cv->type, v);
}

std::string QueryResult::ToString(uint64_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (c > 0) out += " | ";
    out += schema_.field(c).name;
  }
  out += "\n";
  const uint64_t n = std::min<uint64_t>(max_rows, rows_);
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      if (c > 0) out += " | ";
      out += ValueString(r, c);
    }
    out += "\n";
  }
  if (n < rows_) {
    out += "... (" + std::to_string(rows_ - n) + " more rows)\n";
  }
  return out;
}

namespace {

/// FNV-1a over the optimized plan's rendering: a stable shape fingerprint
/// that lets journal entries of recurring queries be grouped.
uint64_t PlanFingerprint(const PlanNodePtr& root) {
  const std::string text = PlanToString(root);
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Result<QueryResult> ExecutePlanNode(const PlanNodePtr& root,
                                    const StrategicOptions& options) {
  if (!observe::StatsEnabled()) {
    // Stats-off hot path: no scope, no journal, no fingerprint — identical
    // to the pre-journal executor (the overhead-measurement mode).
    TDE_ASSIGN_OR_RETURN(BuiltPlan built, BuildExecutable(root, options));
    observe::TraceSpan span("execute", "query");
    std::vector<Block> blocks;
    TDE_RETURN_NOT_OK(DrainOperator(built.op.get(), &blocks));
    return QueryResult(built.op->output_schema(), std::move(blocks));
  }

  // The scope opens before lowering: strategic/tactical attribution (rows
  // pruned at plan time, dictionary rewrites, metadata answers) belongs to
  // this query too. Everything the operators and the pager count on this
  // thread — or on worker threads bound via StatsScope::Bind — lands here.
  // Concurrency gauge: how many queries this process is executing right
  // now (the load the shared TaskScheduler pool is divided across).
  struct InflightGuard {
    observe::Gauge* g;
    explicit InflightGuard(observe::Gauge* gauge) : g(gauge) { g->Add(1); }
    ~InflightGuard() { g->Add(-1); }
  } inflight(
      observe::MetricsRegistry::Global().GetGauge("queries_inflight"));

  observe::QueryJournal& journal = observe::QueryJournal::Global();
  observe::QueryJournalEntry entry;
  entry.id = journal.NextId();
  entry.sql = std::string(observe::CurrentQueryText()
                              .substr(0, observe::QueryJournal::kMaxSqlBytes));
  entry.plan_fingerprint = PlanFingerprint(root);
  observe::StatsScope scope;
  const auto t0 = std::chrono::steady_clock::now();
  auto finish = [&](bool ok, uint64_t rows) {
    entry.ok = ok;
    entry.rows_out = rows;
    entry.wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    entry.cpu_ns = scope.CpuNs();
    for (int i = 0; i < observe::kNumQueryCounters; ++i) {
      entry.counters[static_cast<size_t>(i)] =
          scope.value(static_cast<observe::QueryCounter>(i));
    }
    observe::SetLastJournalIdOnThread(entry.id);
    journal.Record(std::move(entry));
  };

  Result<BuiltPlan> build = BuildExecutable(root, options);
  if (!build.ok()) {
    finish(false, 0);
    return build.status();
  }
  BuiltPlan built = build.MoveValue();
  observe::TraceSpan span("execute", "query");
  std::vector<Block> blocks;
  if (Status st = DrainOperator(built.op.get(), &blocks); !st.ok()) {
    // A failed drain skips Close, so tear the tree down first: operator
    // destructors join any worker threads, completing attribution before
    // the entry's counters are snapshotted.
    built.op.reset();
    finish(false, 0);
    return st;
  }
  QueryResult result(built.op->output_schema(), std::move(blocks));
  if (built.stats != nullptr) {
    auto qs = std::make_shared<observe::QueryStats>();
    qs->root = std::move(built.stats);
    qs->notes = std::move(built.notes);
    qs->journal_id = entry.id;
    qs->total_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    observe::MetricsRegistry& reg = observe::MetricsRegistry::Global();
    reg.GetCounter("query.executed")->Add();
    reg.GetCounter("query.rows_returned")->Add(result.num_rows());
    reg.GetHistogram("query.latency_us")->Record(qs->total_ns / 1000);
    result.set_stats(std::move(qs));
  }
  finish(true, result.num_rows());
  return result;
}

std::string QueryResult::ToCsv() const {
  std::string out;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (c > 0) out += ",";
    out += schema_.field(c).name;
  }
  out += "\n";
  for (uint64_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      if (c > 0) out += ",";
      std::string v = ValueString(r, c);
      if (schema_.field(c).type == TypeId::kString &&
          (v.find(',') != std::string::npos ||
           v.find('"') != std::string::npos ||
           v.find('\n') != std::string::npos)) {
        std::string quoted = "\"";
        for (char ch : v) {
          if (ch == '"') quoted += '"';
          quoted += ch;
        }
        quoted += "\"";
        v = std::move(quoted);
      }
      out += v;
    }
    out += "\n";
  }
  return out;
}

// StrategicOptimize rewrites nodes in place, so both entry points optimize
// a private deep copy: the caller's plan stays pristine and can be
// explained, executed or re-optimized afterwards. Each lowers under the
// options it optimized under.
Result<std::string> ExplainPlan(const Plan& plan,
                                const StrategicOptions& options) {
  TDE_ASSIGN_OR_RETURN(PlanNodePtr optimized,
                       StrategicOptimize(ClonePlan(plan.root()), options));
  TDE_ASSIGN_OR_RETURN(BuiltPlan built, BuildExecutable(optimized, options));
  std::string out = PlanToString(optimized);
  if (!built.notes.empty()) {
    out += "tactical decisions:\n";
    for (const std::string& n : built.notes) {
      out += "  " + n + "\n";
    }
  }
  return out;
}

Result<QueryResult> ExecutePlan(const Plan& plan,
                                const StrategicOptions& options) {
  TDE_ASSIGN_OR_RETURN(PlanNodePtr optimized,
                       StrategicOptimize(ClonePlan(plan.root()), options));
  return ExecutePlanNode(optimized, options);
}

Result<std::string> ExplainAnalyzePlan(const Plan& plan, QueryResult* result,
                                       const StrategicOptions& options) {
  // Force collection on for the duration: EXPLAIN ANALYZE without numbers
  // would be useless.
  const bool was_enabled = observe::StatsEnabled();
  observe::SetStatsEnabled(true);
  Result<QueryResult> run = ExecutePlan(plan, options);
  observe::SetStatsEnabled(was_enabled);
  TDE_RETURN_NOT_OK(run.status());
  std::string out = run.value().stats() != nullptr
                        ? run.value().stats()->ToString()
                        : "(no stats collected)\n";
  if (result != nullptr) *result = run.MoveValue();
  return out;
}

}  // namespace tde
