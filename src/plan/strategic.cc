#include "src/plan/strategic.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/encoding/header.h"

namespace tde {

namespace {

/// True if `pred` references exactly one column, and that column is `name`.
bool PredicateOnlyOn(const ExprPtr& pred, const std::string& name) {
  std::vector<std::string> cols;
  pred->CollectColumns(&cols);
  if (cols.empty()) return false;
  return std::all_of(cols.begin(), cols.end(),
                     [&](const std::string& c) { return c == name; });
}

/// The single column a predicate references, if exactly one.
bool SingleColumn(const ExprPtr& pred, std::string* name) {
  std::vector<std::string> cols;
  pred->CollectColumns(&cols);
  if (cols.empty()) return false;
  for (const auto& c : cols) {
    if (c != cols[0]) return false;
  }
  *name = cols[0];
  return true;
}

/// Whether a scan can emit `col` as dense codes, for an invisible join to
/// evaluate per dictionary entry: a dictionary-encoded heap string column
/// (its stream's codes) or an array-dictionary column (its stored tokens).
/// Directory facts only, so a strategic decision never faults data in.
bool HasDenseCodes(const Column& col) {
  return col.compression() == CompressionKind::kArrayDict ||
         (col.compression() == CompressionKind::kHeap &&
          col.encoding_type() == EncodingType::kDictionary);
}

/// Rule 1 (Sect. 4.1): Filter over Scan, predicate on one column with
/// dense codes -> InvisibleJoin with the filter pushed to the dictionary
/// side.
PlanNodePtr TryInvisibleJoin(const PlanNodePtr& filter) {
  if (filter->kind != PlanNodeKind::kFilter) return nullptr;
  const PlanNodePtr& scan = filter->children[0];
  // A scan emitting group-key codes (TryDictCodeScan) stays as it is.
  if (scan->kind != PlanNodeKind::kScan || !scan->code_columns.empty()) {
    return nullptr;
  }
  std::string col_name;
  if (!SingleColumn(filter->predicate, &col_name)) return nullptr;
  auto col_r = scan->table->ColumnByName(col_name);
  if (!col_r.ok() || !HasDenseCodes(*col_r.value())) return nullptr;

  auto join = std::make_shared<PlanNode>();
  join->kind = PlanNodeKind::kInvisibleJoin;
  join->dict_column = col_name;
  join->inner_predicate = filter->predicate;
  join->children.push_back(scan);
  return join;
}

/// Rule 2 (Sect. 4.2): Aggregate(group by c) over Filter(pred on c) over
/// Scan, with c run-length encoded -> IndexedScan + aggregation. Whether
/// the index is additionally sorted for ordered aggregation is a tactical
/// decision made at execution time from the actual run lengths.
PlanNodePtr TryRankJoin(const PlanNodePtr& agg) {
  if (agg->kind != PlanNodeKind::kAggregate) return nullptr;
  if (agg->agg.group_by.size() != 1) return nullptr;
  const PlanNodePtr& filter = agg->children[0];
  if (filter->kind != PlanNodeKind::kFilter) return nullptr;
  const PlanNodePtr& scan = filter->children[0];
  if (scan->kind != PlanNodeKind::kScan) return nullptr;
  const std::string& key = agg->agg.group_by[0];
  if (!PredicateOnlyOn(filter->predicate, key)) return nullptr;
  auto col_r = scan->table->ColumnByName(key);
  if (!col_r.ok()) return nullptr;
  if (col_r.value()->encoding_type() != EncodingType::kRunLength) {
    return nullptr;
  }

  auto iscan = std::make_shared<PlanNode>();
  iscan->kind = PlanNodeKind::kIndexedScan;
  iscan->table = scan->table;
  iscan->index_column = key;
  iscan->index_predicate = filter->predicate;
  for (const AggSpec& a : agg->agg.aggs) {
    if (a.kind != AggKind::kCountStar && a.input != key) {
      iscan->payload.push_back(a.input);
    }
  }
  // Deduplicate payload names.
  std::sort(iscan->payload.begin(), iscan->payload.end());
  iscan->payload.erase(
      std::unique(iscan->payload.begin(), iscan->payload.end()),
      iscan->payload.end());

  auto new_agg = std::make_shared<PlanNode>(*agg);
  new_agg->children = {iscan};
  return new_agg;
}

// --- Metadata pruning (Sect. 3.4.2 applied to filtering) ------------------

/// Three-valued verdict of folding a predicate against column metadata:
/// provably false for every row, provably true for every row, or unknown.
enum class Tri { kFalse, kTrue, kUnknown };

/// Folds `col OP v` against min/max/nullability. The encoder's min
/// includes the NULL sentinel when NULLs are present (it is INT64_MIN
/// then), so min-based always-false tests simply never fire on nullable
/// columns; max is the true maximum of non-NULL values either way.
/// Always-TRUE verdicts additionally require a proven absence of NULLs,
/// because a NULL row makes any comparison false.
Tri FoldCompare(CompareOp op, const ColumnMetadata& m, Lane v) {
  if (v == kNullSentinel) return Tri::kFalse;  // x OP NULL is false
  if (!m.min_max_known) return Tri::kUnknown;
  const bool no_nulls = m.null_known && !m.has_nulls;
  const Lane min = m.min_value;
  const Lane max = m.max_value;
  switch (op) {
    case CompareOp::kEq:
      if (v < min || v > max) return Tri::kFalse;
      if (no_nulls && min == max && v == min) return Tri::kTrue;
      break;
    case CompareOp::kNe:
      if (no_nulls && min == max && v == min) return Tri::kFalse;
      if (no_nulls && (v < min || v > max)) return Tri::kTrue;
      break;
    case CompareOp::kLt:
      if (min >= v) return Tri::kFalse;
      if (no_nulls && max < v) return Tri::kTrue;
      break;
    case CompareOp::kLe:
      if (min > v) return Tri::kFalse;
      if (no_nulls && max <= v) return Tri::kTrue;
      break;
    case CompareOp::kGt:
      if (max <= v) return Tri::kFalse;
      if (no_nulls && min > v) return Tri::kTrue;
      break;
    case CompareOp::kGe:
      if (max < v) return Tri::kFalse;
      if (no_nulls && min >= v) return Tri::kTrue;
      break;
  }
  return Tri::kUnknown;
}

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

/// Substitutes one column's metadata during a fold: segment pruning folds
/// the same predicate once per segment with that segment's zone map in
/// place of the column-level metadata.
struct MetaOverride {
  const std::string* column = nullptr;
  const ColumnMetadata* meta = nullptr;
};

const ColumnMetadata& MetaFor(const Column& c, const MetaOverride* ov) {
  if (ov != nullptr && c.name() == *ov->column) return *ov->meta;
  return c.metadata();
}

/// Recursive fold of a filter predicate against the scan table's column
/// metadata — every fact consulted (type, metadata) answers from the
/// directory for cold columns, so pruning never faults data in.
Tri FoldAgainstMetadata(const ExprPtr& e, const Table& table,
                        const MetaOverride* ov = nullptr) {
  TypeId lt;
  Lane lv;
  if (e->AsLiteral(&lt, &lv) && lt == TypeId::kBool) {
    // A NULL boolean filters like false (the mask keeps lanes == 1 only).
    return lv == 1 ? Tri::kTrue : Tri::kFalse;
  }
  std::vector<ExprPtr> kids = e->Children();
  CompareOp op;
  if (e->AsCompare(&op) && kids.size() == 2) {
    const std::string* col = kids[0]->AsColumnRef();
    ExprPtr lit = kids[1];
    if (col == nullptr) {
      col = kids[1]->AsColumnRef();
      lit = kids[0];
      op = FlipCompare(op);
    }
    TypeId vt;
    Lane v;
    if (col == nullptr || !lit->AsLiteral(&vt, &v)) return Tri::kUnknown;
    auto c = table.ColumnByName(*col);
    if (!c.ok() || !LaneComparable(c.value()->type()) ||
        vt == TypeId::kReal || vt == TypeId::kString) {
      return Tri::kUnknown;
    }
    return FoldCompare(op, MetaFor(*c.value(), ov), v);
  }
  switch (e->Shape()) {
    case ExprShape::kNot: {
      const Tri t = FoldAgainstMetadata(kids[0], table, ov);
      if (t == Tri::kFalse) return Tri::kTrue;
      if (t == Tri::kTrue) return Tri::kFalse;
      return Tri::kUnknown;
    }
    case ExprShape::kAnd: {
      const Tri a = FoldAgainstMetadata(kids[0], table, ov);
      const Tri b = FoldAgainstMetadata(kids[1], table, ov);
      if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
      if (a == Tri::kTrue && b == Tri::kTrue) return Tri::kTrue;
      return Tri::kUnknown;
    }
    case ExprShape::kOr: {
      const Tri a = FoldAgainstMetadata(kids[0], table, ov);
      const Tri b = FoldAgainstMetadata(kids[1], table, ov);
      if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
      if (a == Tri::kFalse && b == Tri::kFalse) return Tri::kFalse;
      return Tri::kUnknown;
    }
    case ExprShape::kIsNull: {
      const std::string* col = kids[0]->AsColumnRef();
      if (col == nullptr) return Tri::kUnknown;
      auto c = table.ColumnByName(*col);
      if (!c.ok()) return Tri::kUnknown;
      const ColumnMetadata& m = MetaFor(*c.value(), ov);
      if (m.null_known && !m.has_nulls) return Tri::kFalse;
      if (m.null_known && m.has_nulls && m.min_max_known &&
          m.max_value == kNullSentinel) {
        return Tri::kTrue;  // the sentinel is the max: every row is NULL
      }
      return Tri::kUnknown;
    }
    case ExprShape::kIn: {
      const std::string* col = kids[0]->AsColumnRef();
      if (col == nullptr || kids.size() < 2) return Tri::kUnknown;
      auto c = table.ColumnByName(*col);
      if (!c.ok() || !LaneComparable(c.value()->type())) return Tri::kUnknown;
      const ColumnMetadata& m = MetaFor(*c.value(), ov);
      bool any_unknown = false;
      for (size_t i = 1; i < kids.size(); ++i) {
        TypeId vt;
        Lane v;
        if (!kids[i]->AsLiteral(&vt, &v)) return Tri::kUnknown;
        if (v == kNullSentinel) continue;  // a NULL element never matches
        if (vt == TypeId::kReal || vt == TypeId::kString) return Tri::kUnknown;
        const Tri t = FoldCompare(CompareOp::kEq, m, v);
        if (t == Tri::kTrue) return Tri::kTrue;
        if (t != Tri::kFalse) any_unknown = true;
      }
      return any_unknown ? Tri::kUnknown : Tri::kFalse;
    }
    case ExprShape::kOther:
      break;
  }
  return Tri::kUnknown;
}

/// Metadata pruning rule: Filter over Scan whose predicate folds. FALSE
/// becomes LIMIT 0 over the (never-opened) scan — schema preserved, zero
/// columns faulted in; TRUE dissolves the filter.
PlanNodePtr TryMetadataPrune(const PlanNodePtr& filter) {
  if (filter->kind != PlanNodeKind::kFilter) return nullptr;
  const PlanNodePtr& scan = filter->children[0];
  if (scan->kind != PlanNodeKind::kScan || scan->table == nullptr) {
    return nullptr;
  }
  switch (FoldAgainstMetadata(filter->predicate, *scan->table)) {
    case Tri::kTrue:
      return scan;
    case Tri::kFalse: {
      auto limit = std::make_shared<PlanNode>();
      limit->kind = PlanNodeKind::kLimit;
      limit->limit = 0;
      limit->pruned_rows = scan->table->rows();
      limit->children = {scan};
      return limit;
    }
    case Tri::kUnknown:
      break;
  }
  return nullptr;
}

// --- Run-level predicate evaluation (Sect. 4.2 beyond aggregation) --------

/// An IndexedScan over `scan`'s table on its column `c`, the scan's other
/// output columns as payload, under a Project that restores the scan's
/// column order. Returns the Project and sets *iscan to the IndexedScan,
/// for the rewrite to configure; null when the scan does not output `c`.
PlanNodePtr IndexedScanInScanOrder(const PlanNode& scan, const std::string& c,
                                   PlanNode** iscan) {
  std::vector<std::string> out_cols = scan.columns;
  if (out_cols.empty()) {
    for (size_t i = 0; i < scan.table->num_columns(); ++i) {
      out_cols.push_back(scan.table->column(i).name());
    }
  }
  if (std::find(out_cols.begin(), out_cols.end(), c) == out_cols.end()) {
    return nullptr;
  }
  auto index = std::make_shared<PlanNode>();
  index->kind = PlanNodeKind::kIndexedScan;
  index->table = scan.table;
  index->index_column = c;
  for (const std::string& n : out_cols) {
    if (n != c) index->payload.push_back(n);
  }
  auto project = std::make_shared<PlanNode>();
  project->kind = PlanNodeKind::kProject;
  for (const std::string& n : out_cols) {
    project->projections.push_back({expr::Col(n), n});
  }
  *iscan = index.get();
  project->children = {std::move(index)};
  return project;
}

/// Filter over Scan, single-column predicate on an uncompressed run-length
/// column -> IndexedScan evaluating the predicate once per run (emitting
/// or skipping whole runs, in physical row order) under a Project that
/// restores the scan's column order. Runs as a separate pass AFTER the
/// main rewrite so TryRankJoin keeps first claim on aggregate shapes, and
/// after scan pruning so the payload reflects only the columns actually
/// read.
PlanNodePtr TryRunFilter(const PlanNodePtr& filter) {
  if (filter->kind != PlanNodeKind::kFilter) return nullptr;
  const PlanNodePtr& scan = filter->children[0];
  if (scan->kind != PlanNodeKind::kScan || scan->table == nullptr) {
    return nullptr;
  }
  std::string c;
  if (!SingleColumn(filter->predicate, &c)) return nullptr;
  auto col_r = scan->table->ColumnByName(c);
  if (!col_r.ok()) return nullptr;
  const auto& col = col_r.value();
  // encoding_type() answers from the directory for cold columns. Restrict
  // to uncompressed scalars: runs of heap/dictionary tokens would need the
  // dictionary to evaluate, which the dict-code rewrite already covers.
  if (col->encoding_type() != EncodingType::kRunLength ||
      col->compression() != CompressionKind::kNone) {
    return nullptr;
  }
  PlanNode* iscan = nullptr;
  PlanNodePtr project = IndexedScanInScanOrder(*scan, c, &iscan);
  if (project == nullptr) return nullptr;
  iscan->index_predicate = filter->predicate;
  // Keep physical row order: a filter must not reorder its input.
  iscan->sort_index_by_value = false;
  return project;
}

void PushRunFilters(PlanNodePtr* node) {
  for (auto& c : (*node)->children) PushRunFilters(&c);
  if (PlanNodePtr next = TryRunFilter(*node)) *node = std::move(next);
}

// --- Compressed-domain ordering -------------------------------------------

/// Limit over Sort -> TopN: the limit bounds how many rows can ever
/// surface, so the sort keeps a k-row heap instead of materializing and
/// ordering everything. Output (order, ties, NULL placement) is identical
/// to the full sort; only the work changes.
PlanNodePtr TryTopN(const PlanNodePtr& limit) {
  if (limit->kind != PlanNodeKind::kLimit) return nullptr;
  const PlanNodePtr& sort = limit->children[0];
  if (sort->kind != PlanNodeKind::kSort || sort->sort_keys.empty()) {
    return nullptr;
  }
  auto topn = std::make_shared<PlanNode>();
  topn->kind = PlanNodeKind::kTopN;
  topn->sort_keys = sort->sort_keys;
  topn->limit = limit->limit;
  topn->children = sort->children;
  return topn;
}

/// Sort over Scan on a single ascending run-length key -> ordered run
/// retrieval (Sect. 4.2.2): the IndexedScan sorts the *run index* by value
/// and emits whole runs in key order, so an ORDER BY over n rows in r runs
/// sorts r entries. Runs keep their physical order within equal values,
/// which is exactly the stable sort's tie-break. Post-pass like
/// TryRunFilter, so the Top-N rewrite keeps first claim on Limit-covered
/// sorts and scan pruning has already narrowed the payload.
PlanNodePtr TrySortRuns(const PlanNodePtr& sort) {
  if (sort->kind != PlanNodeKind::kSort || sort->sort_keys.size() != 1 ||
      !sort->sort_keys[0].ascending) {
    return nullptr;
  }
  const PlanNodePtr& scan = sort->children[0];
  if (scan->kind != PlanNodeKind::kScan || scan->table == nullptr ||
      !scan->code_columns.empty()) {
    return nullptr;
  }
  const std::string& c = sort->sort_keys[0].column;
  auto col_r = scan->table->ColumnByName(c);
  if (!col_r.ok()) return nullptr;
  const auto& col = col_r.value();
  // Directory facts only. SortIndexByValue orders runs by raw lane (NULL
  // sentinel first, matching ascending NULL placement), so the key must be
  // lane-comparable and uncompressed — token or code runs would sort by
  // the wrong domain.
  if (col->encoding_type() != EncodingType::kRunLength ||
      col->compression() != CompressionKind::kNone ||
      !LaneComparable(col->type())) {
    return nullptr;
  }
  PlanNode* iscan = nullptr;
  PlanNodePtr project = IndexedScanInScanOrder(*scan, c, &iscan);
  if (project == nullptr) return nullptr;
  iscan->sort_index_by_value = true;
  iscan->sort_runs = true;
  return project;
}

void PushSortRuns(PlanNodePtr* node) {
  for (auto& c : (*node)->children) PushSortRuns(&c);
  if (PlanNodePtr next = TrySortRuns(*node)) *node = std::move(next);
}

// --- Compressed-domain aggregation (Sect. 4 applied to GROUP BY) ----------

/// Answers one whole-table aggregate from directory facts alone. Every
/// fact consulted (rows, type, metadata) is a directory read, so answering
/// never faults a cold column through the pager. Returns false when the
/// metadata cannot prove the answer.
bool AnswerAggFromMetadata(const AggSpec& spec, const Table& table,
                           Lane* out) {
  const uint64_t rows = table.rows();
  if (spec.kind == AggKind::kCountStar) {
    *out = static_cast<Lane>(rows);
    return true;
  }
  auto col_r = table.ColumnByName(spec.input);
  if (!col_r.ok()) return false;
  const auto& col = col_r.value();
  const ColumnMetadata& m = col->metadata();
  if (rows == 0) {
    // Empty input: COUNT/COUNTD are 0, every other aggregate is NULL.
    switch (spec.kind) {
      case AggKind::kCount:
      case AggKind::kCountDistinct:
        *out = 0;
        return true;
      default:
        *out = kNullSentinel;
        return true;
    }
  }
  const bool no_nulls = m.null_known && !m.has_nulls;
  // The encoder's min/max span raw lanes, sentinel included: max equals
  // the sentinel exactly when every row is NULL (the sentinel is the
  // domain minimum, so any non-NULL value would exceed it).
  const bool all_null =
      m.null_known && m.has_nulls && m.min_max_known &&
      m.max_value == kNullSentinel;
  switch (spec.kind) {
    case AggKind::kCount:
      if (no_nulls) {
        *out = static_cast<Lane>(rows);
        return true;
      }
      if (all_null) {
        *out = 0;
        return true;
      }
      return false;
    case AggKind::kMin:
      // min includes the sentinel when NULLs are present, so it only
      // equals MIN over non-NULL values when there are none.
      if (all_null) {
        *out = kNullSentinel;
        return true;
      }
      if (LaneComparable(col->type()) && m.min_max_known && no_nulls) {
        *out = m.min_value;
        return true;
      }
      return false;
    case AggKind::kMax:
      // max is the maximum non-NULL lane either way; when every row is
      // NULL it degenerates to the sentinel, which renders as NULL.
      if (LaneComparable(col->type()) && m.min_max_known && m.null_known) {
        *out = m.max_value;
        return true;
      }
      return false;
    case AggKind::kCountDistinct:
      if (all_null) {
        *out = 0;
        return true;
      }
      // cardinality counts distinct raw lanes, the sentinel included.
      if (m.cardinality_known && m.null_known) {
        *out = static_cast<Lane>(m.cardinality - (m.has_nulls ? 1 : 0));
        return true;
      }
      // unique: every lane distinct, so at most one of them is the
      // sentinel.
      if (m.unique && m.null_known) {
        *out = static_cast<Lane>(rows - (m.has_nulls ? 1 : 0));
        return true;
      }
      return false;
    default:
      return false;  // SUM/AVG/MEDIAN need the data
  }
}

/// Metadata short-circuit: a whole-table aggregate (no GROUP BY) over a
/// bare scan where *every* spec is provable from the directory. The node
/// keeps its scan child for schema derivation, but the executor emits the
/// answer row directly and never builds the scan.
PlanNodePtr TryMetadataAggregate(const PlanNodePtr& agg) {
  if (agg->kind != PlanNodeKind::kAggregate || agg->metadata_answered ||
      agg->fold_runs) {
    return nullptr;
  }
  if (!agg->agg.group_by.empty() || agg->agg.aggs.empty()) return nullptr;
  const PlanNodePtr& scan = agg->children[0];
  if (scan->kind != PlanNodeKind::kScan || scan->table == nullptr) {
    return nullptr;
  }
  std::vector<Lane> row;
  row.reserve(agg->agg.aggs.size());
  for (const AggSpec& spec : agg->agg.aggs) {
    Lane v;
    if (!AnswerAggFromMetadata(spec, *scan->table, &v)) return nullptr;
    row.push_back(v);
  }
  auto done = std::make_shared<PlanNode>(*agg);
  done->metadata_answered = true;
  done->metadata_row = std::move(row);
  return done;
}

/// Run-level aggregate folding (Sect. 4.2): Aggregate over a bare Scan
/// where every aggregate reads one run-length encoded column (or is
/// COUNT(*)) and the GROUP BY is empty or on that same column. The
/// aggregation then consumes the IndexTable and folds each (value, count)
/// run in O(1) instead of expanding rows.
PlanNodePtr TryRunFoldAggregate(const PlanNodePtr& agg) {
  if (agg->kind != PlanNodeKind::kAggregate || agg->metadata_answered ||
      agg->fold_runs) {
    return nullptr;
  }
  if (agg->agg.group_by.size() > 1) return nullptr;
  const PlanNodePtr& scan = agg->children[0];
  if (scan->kind != PlanNodeKind::kScan || scan->table == nullptr) {
    return nullptr;
  }
  // The fold column: the grouping key, or the single column every
  // whole-table aggregate reads.
  std::string c;
  if (!agg->agg.group_by.empty()) {
    c = agg->agg.group_by[0];
  }
  for (const AggSpec& a : agg->agg.aggs) {
    if (a.kind == AggKind::kCountStar) continue;
    if (c.empty()) c = a.input;
    if (a.input != c) return nullptr;
    if (!agg_internal::FoldableOverRuns(a.kind)) return nullptr;
  }
  if (c.empty()) return nullptr;  // COUNT(*) only: metadata rule territory
  if (agg->agg.group_by.empty() && agg->agg.aggs.empty()) return nullptr;
  auto col_r = scan->table->ColumnByName(c);
  if (!col_r.ok()) return nullptr;
  const auto& col = col_r.value();
  // Directory facts only. kArrayDict runs carry dictionary codes, not
  // values, and folding a real SUM multiplies where the row path adds —
  // different rounding — so both stay on the row path.
  if (col->encoding_type() != EncodingType::kRunLength) return nullptr;
  if (col->compression() == CompressionKind::kArrayDict) return nullptr;
  if (col->type() == TypeId::kReal) return nullptr;

  auto iscan = std::make_shared<PlanNode>();
  iscan->kind = PlanNodeKind::kIndexedScan;
  iscan->table = scan->table;
  iscan->index_column = c;
  iscan->sort_index_by_value = false;  // fold in physical run order
  auto new_agg = std::make_shared<PlanNode>(*agg);
  new_agg->fold_runs = true;
  new_agg->children = {iscan};
  return new_agg;
}

/// Whether `e` reads column `name`.
bool Reads(const ExprPtr& e, const std::string& name) {
  if (e == nullptr) return false;
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  return std::find(cols.begin(), cols.end(), name) != cols.end();
}

/// Whether `node` (a Filter, a Project or an InvisibleJoin) hands column
/// `c` up unchanged and reads it nowhere else: a filter whose predicate
/// does not read it, a projection that passes it on by a bare reference
/// under its own name and computes nothing from it, an invisible join of
/// another column that computes nothing under its name.
bool PassesOnlyThrough(const PlanNode& node, const std::string& c) {
  if (node.kind == PlanNodeKind::kFilter) return !Reads(node.predicate, c);
  if (node.kind == PlanNodeKind::kInvisibleJoin) {
    return c != node.dict_column &&
           std::none_of(node.inner_projections.begin(),
                        node.inner_projections.end(),
                        [&](const ProjectedColumn& pc) {
                          return pc.name == c;
                        });
  }
  bool passed = false;
  for (const ProjectedColumn& pc : node.projections) {
    const std::string* ref = pc.expr->AsColumnRef();
    if (ref != nullptr && *ref == c && pc.name == c) {
      passed = true;
    } else if (Reads(pc.expr, c) || pc.name == c) {
      return false;
    }
  }
  return passed;
}

/// Dict-code scans for group-by keys: a dictionary-encoded string key is
/// emitted as dense codes (the scan skips the per-row entry decode) and
/// the aggregate decodes one key per group at first occurrence. The scan
/// may sit under Filters, Projects and invisible joins that pass the key
/// on untouched (PassesOnlyThrough): they compact or move the code lanes,
/// entry table attached. Keys an aggregate also reads as input
/// stay decoded — COUNT/MIN/MAX over codes would see indexes, not values.
PlanNodePtr TryDictCodeScan(const PlanNodePtr& agg) {
  if (agg->kind != PlanNodeKind::kAggregate || agg->metadata_answered ||
      agg->fold_runs || agg->agg.group_by.empty()) {
    return nullptr;
  }
  std::vector<PlanNodePtr> chain;  // the Filters and Projects, top down
  PlanNodePtr scan = agg->children[0];
  while (scan->kind == PlanNodeKind::kFilter ||
         scan->kind == PlanNodeKind::kProject ||
         scan->kind == PlanNodeKind::kInvisibleJoin) {
    chain.push_back(scan);
    scan = scan->children[0];
  }
  if (scan->kind != PlanNodeKind::kScan || scan->table == nullptr ||
      !scan->code_columns.empty()) {
    return nullptr;
  }
  std::vector<std::string> coded;
  for (const std::string& c : agg->agg.group_by) {
    bool read_by_agg = false;
    for (const AggSpec& a : agg->agg.aggs) {
      if (a.kind != AggKind::kCountStar && a.input == c) {
        read_by_agg = true;
        break;
      }
    }
    if (read_by_agg) continue;
    if (!std::all_of(chain.begin(), chain.end(), [&](const PlanNodePtr& n) {
          return PassesOnlyThrough(*n, c);
        })) {
      continue;
    }
    auto col_r = scan->table->ColumnByName(c);
    if (!col_r.ok()) continue;
    const auto& col = col_r.value();
    if (col->type() != TypeId::kString ||
        col->compression() != CompressionKind::kHeap ||
        col->encoding_type() != EncodingType::kDictionary) {
      continue;
    }
    coded.push_back(c);
  }
  if (coded.empty()) return nullptr;
  auto below = std::make_shared<PlanNode>(*scan);
  below->code_columns = std::move(coded);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    auto copy = std::make_shared<PlanNode>(**it);
    copy->children = {below};
    below = std::move(copy);
  }
  auto new_agg = std::make_shared<PlanNode>(*agg);
  new_agg->children = {below};
  return new_agg;
}

/// Rule 3 (Sect. 4.3): encodings are sensitive to data order, so any
/// exchange feeding an encoding sink must use order-preserving routing.
void EnforceOrderedExchange(const PlanNodePtr& node, bool under_encoder) {
  if (node->kind == PlanNodeKind::kMaterialize) under_encoder = true;
  if (node->kind == PlanNodeKind::kExchange && under_encoder) {
    node->order_preserving = true;
  }
  for (const auto& c : node->children) {
    EnforceOrderedExchange(c, under_encoder);
  }
}

/// Expression simplification (Sect. 2.3.1) over a node's expressions.
/// Returns a replacement node when the node itself dissolves (a filter
/// whose predicate folded to TRUE).
PlanNodePtr SimplifyNode(const PlanNodePtr& node) {
  if (node->predicate != nullptr) {
    node->predicate = expr::Simplify(node->predicate);
  }
  if (node->inner_predicate != nullptr) {
    node->inner_predicate = expr::Simplify(node->inner_predicate);
  }
  if (node->index_predicate != nullptr) {
    node->index_predicate = expr::Simplify(node->index_predicate);
  }
  for (auto& pc : node->projections) pc.expr = expr::Simplify(pc.expr);
  for (auto& pc : node->inner_projections) pc.expr = expr::Simplify(pc.expr);
  if (node->kind == PlanNodeKind::kFilter) {
    TypeId t;
    Lane v;
    if (node->predicate->AsLiteral(&t, &v) && t == TypeId::kBool && v == 1) {
      return node->children[0];  // WHERE TRUE dissolves
    }
  }
  return nullptr;
}

/// Computation move-around (Sect. 2.3.1 / 4.1.2): a Project over a Scan
/// whose computed expressions all read one column with dense codes becomes
/// an InvisibleJoin with the computations pushed to the dictionary side —
/// the Sect. 4.1.2 scenario, where EXTENSION(url) runs once per distinct
/// URL instead of once per row. A computation named like a table column
/// stays above: the join's output would hold that name twice.
PlanNodePtr TryComputePushdown(const PlanNodePtr& project) {
  if (project->kind != PlanNodeKind::kProject) return nullptr;
  const PlanNodePtr& scan = project->children[0];
  if (scan->kind != PlanNodeKind::kScan || !scan->code_columns.empty()) {
    return nullptr;
  }

  std::string dict_col;
  std::vector<ProjectedColumn> pushed;
  for (const ProjectedColumn& pc : project->projections) {
    if (pc.expr->AsColumnRef() != nullptr) continue;  // pass-through
    std::vector<std::string> cols;
    pc.expr->CollectColumns(&cols);
    if (cols.empty()) continue;  // constant, stays above
    for (const auto& c : cols) {
      if (c != cols[0]) return nullptr;  // multi-column computation
    }
    if (!dict_col.empty() && cols[0] != dict_col) return nullptr;
    if (scan->table->ColumnByName(pc.name).ok()) return nullptr;
    dict_col = cols[0];
    pushed.push_back(pc);
  }
  if (pushed.empty()) return nullptr;
  auto col_r = scan->table->ColumnByName(dict_col);
  if (!col_r.ok()) return nullptr;
  const auto& col = col_r.value();
  if (!HasDenseCodes(*col)) return nullptr;
  // Worth it only when the domain is materially smaller than the rows.
  if (!col->metadata().cardinality_known ||
      col->metadata().cardinality * 2 > scan->table->rows()) {
    return nullptr;
  }

  auto join = std::make_shared<PlanNode>();
  join->kind = PlanNodeKind::kInvisibleJoin;
  join->dict_column = dict_col;
  join->inner_projections = pushed;
  join->children.push_back(scan);

  // The projection above keeps its shape; pushed expressions become plain
  // references to the joined-in computed columns.
  auto new_project = std::make_shared<PlanNode>(*project);
  for (ProjectedColumn& pc : new_project->projections) {
    if (pc.expr->AsColumnRef() != nullptr) continue;
    for (const ProjectedColumn& p : pushed) {
      if (p.name == pc.name) {
        pc.expr = expr::Col(pc.name);
        break;
      }
    }
  }
  new_project->children = {join};
  return new_project;
}

/// Filtering move-around (Sect. 2.3.1): Filter over Project commutes when
/// every referenced column is a pass-through column reference.
PlanNodePtr TryPushFilterThroughProject(const PlanNodePtr& filter) {
  if (filter->kind != PlanNodeKind::kFilter) return nullptr;
  const PlanNodePtr& project = filter->children[0];
  if (project->kind != PlanNodeKind::kProject) return nullptr;
  std::vector<std::string> cols;
  filter->predicate->CollectColumns(&cols);
  std::map<std::string, std::string> rename;  // output name -> input name
  for (const std::string& c : cols) {
    bool mapped = false;
    for (const ProjectedColumn& pc : project->projections) {
      if (pc.name != c) continue;
      if (const std::string* ref = pc.expr->AsColumnRef()) {
        rename[c] = *ref;
        mapped = true;
      }
      break;
    }
    if (!mapped) return nullptr;
  }
  auto pushed = std::make_shared<PlanNode>();
  pushed->kind = PlanNodeKind::kFilter;
  pushed->predicate = expr::RenameColumns(filter->predicate, rename);
  pushed->children = {project->children[0]};
  auto new_project = std::make_shared<PlanNode>(*project);
  new_project->children = {pushed};
  return new_project;
}

/// Appends the top-level AND conjuncts of `e` to `out`, left to right.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->Shape() == ExprShape::kAnd) {
    for (const ExprPtr& k : e->Children()) SplitConjuncts(k, out);
    return;
  }
  out->push_back(e);
}

/// Left-deep AND of `conjuncts` (the parser's shape); nullptr when empty.
ExprPtr Conjoin(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    out = out == nullptr ? c : expr::And(out, c);
  }
  return out;
}

PlanNodePtr MakeFilter(ExprPtr predicate, PlanNodePtr child) {
  auto f = std::make_shared<PlanNode>();
  f->kind = PlanNodeKind::kFilter;
  f->predicate = std::move(predicate);
  f->children = {std::move(child)};
  return f;
}

/// Filtering move-around through joins (Sect. 2.3.1, 4.1.1): Filter over
/// JoinTable. The join is inner and many-to-one, so each output row is one
/// outer row plus the payload of the one inner row it matched; a conjunct
/// can be decided on either side alone when it reads only that side:
///   - outer-only conjuncts move below the join (toward the scan, where
///     code predicates and zone maps apply, and so fewer rows are probed);
///   - payload-only conjuncts join the node's `inner_predicate`, which the
///     join evaluates once per inner row — failing rows never match;
///   - mixed conjuncts stay above.
/// The pushed filter is rewritten again below, so conjuncts sink through
/// stacked joins one join at a time.
PlanNodePtr TryPushFilterThroughJoin(const PlanNodePtr& filter) {
  if (filter->kind != PlanNodeKind::kFilter) return nullptr;
  const PlanNodePtr& join = filter->children[0];
  if (join->kind != PlanNodeKind::kJoinTable) return nullptr;
  const std::vector<std::string>& payload = join->join.inner_payload;
  std::vector<ExprPtr> conjuncts, outer, inner, stay;
  SplitConjuncts(filter->predicate, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    std::vector<std::string> cols;
    c->CollectColumns(&cols);
    const auto from_inner = std::count_if(
        cols.begin(), cols.end(), [&](const std::string& n) {
          return std::find(payload.begin(), payload.end(), n) != payload.end();
        });
    if (from_inner == 0) {
      outer.push_back(c);  // column-free conjuncts too: valid anywhere
    } else if (static_cast<size_t>(from_inner) == cols.size()) {
      inner.push_back(c);
    } else {
      stay.push_back(c);
    }
  }
  if (outer.empty() && inner.empty()) return nullptr;
  auto moved = std::make_shared<PlanNode>(*join);
  if (!outer.empty()) {
    moved->children = {MakeFilter(Conjoin(outer), join->children[0])};
  }
  if (!inner.empty()) {
    if (join->inner_predicate != nullptr) {
      inner.insert(inner.begin(), join->inner_predicate);
    }
    moved->inner_predicate = Conjoin(inner);
  }
  if (stay.empty()) return moved;
  return MakeFilter(Conjoin(stay), moved);
}

using ColumnSet = std::set<std::string>;

void CollectExpr(const ExprPtr& e, ColumnSet* out) {
  if (e == nullptr) return;
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  out->insert(cols.begin(), cols.end());
}

/// Narrows an unrestricted scan to `required`. With the paged v2 format a
/// scan materializes every column it emits, so this is the rewrite that
/// keeps untouched columns cold on disk.
void PruneScan(const PlanNodePtr& scan, const ColumnSet* required) {
  if (required == nullptr) return;  // everything above needs everything
  if (!scan->columns.empty()) return;
  const Table& t = *scan->table;
  std::vector<std::string> keep;
  for (size_t i = 0; i < t.num_columns(); ++i) {
    if (required->count(t.column(i).name()) != 0) {
      keep.push_back(t.column(i).name());
    }
  }
  if (keep.size() == t.num_columns() || t.num_columns() == 0) return;
  if (keep.empty()) {
    // COUNT(*)-style plans read no column, but the scan still drives row
    // counts; keep the physically cheapest one (answered from the
    // directory for cold columns — no data is faulted in to decide).
    size_t best = 0;
    for (size_t i = 1; i < t.num_columns(); ++i) {
      if (t.column(i).PhysicalSize() < t.column(best).PhysicalSize()) {
        best = i;
      }
    }
    keep.push_back(t.column(best).name());
  }
  scan->columns = std::move(keep);
}

/// Top-down required-column analysis. `required` is the set of columns the
/// ancestors read from this node's output; nullptr means "all of them"
/// (the node's output reaches the user, or an operator whose column flow
/// we don't model). Only scans are rewritten.
void PruneScans(const PlanNodePtr& node, const ColumnSet* required) {
  switch (node->kind) {
    case PlanNodeKind::kScan:
      PruneScan(node, required);
      return;
    case PlanNodeKind::kFilter: {
      if (required == nullptr) break;
      ColumnSet need = *required;
      CollectExpr(node->predicate, &need);
      PruneScans(node->children[0], &need);
      return;
    }
    case PlanNodeKind::kProject: {
      // Project evaluates every projection regardless of what is consumed
      // above, so the child must supply all their inputs.
      ColumnSet need;
      for (const ProjectedColumn& pc : node->projections) {
        CollectExpr(pc.expr, &need);
      }
      PruneScans(node->children[0], &need);
      return;
    }
    case PlanNodeKind::kAggregate: {
      ColumnSet need(node->agg.group_by.begin(), node->agg.group_by.end());
      for (const AggSpec& a : node->agg.aggs) {
        if (a.kind != AggKind::kCountStar) need.insert(a.input);
      }
      PruneScans(node->children[0], &need);
      return;
    }
    case PlanNodeKind::kSort:
    case PlanNodeKind::kTopN: {
      if (required == nullptr) break;
      ColumnSet need = *required;
      for (const SortKey& k : node->sort_keys) need.insert(k.column);
      PruneScans(node->children[0], &need);
      return;
    }
    case PlanNodeKind::kJoinTable: {
      // Output = outer columns + payload. Keep only the payload read above
      // (the inner predicate reads the inner table, not the payload), and
      // ask the outer side for what is read above plus the join key —
      // names that are not outer columns are ignored further down. A
      // stacked join's outer key arrives here as a read column, so the
      // payload carrying it survives.
      if (required == nullptr) break;
      std::vector<std::string>& payload = node->join.inner_payload;
      payload.erase(std::remove_if(payload.begin(), payload.end(),
                                   [&](const std::string& n) {
                                     return required->count(n) == 0;
                                   }),
                    payload.end());
      ColumnSet need = *required;
      need.insert(node->join.outer_key);
      PruneScans(node->children[0], &need);
      return;
    }
    case PlanNodeKind::kInvisibleJoin: {
      // Output = the scan's columns, then the pushed computations. Ask the
      // scan for what is read above and not computed here. The lowering
      // scans the joined column for its codes either way, and emits it
      // only when the scan keeps it.
      if (required == nullptr) break;
      ColumnSet need = *required;
      for (const ProjectedColumn& pc : node->inner_projections) {
        need.erase(pc.name);
      }
      if (need.empty()) need.insert(node->dict_column);
      PruneScans(node->children[0], &need);
      return;
    }
    case PlanNodeKind::kExchange:
    case PlanNodeKind::kLimit:
    case PlanNodeKind::kMaterialize:
      // Pure pass-throughs: same columns in as out.
      PruneScans(node->children[0], required);
      return;
    default:
      break;
  }
  // Indexed scans, and pass-throughs with an unknown requirement: column
  // flow is operator-specific, so stay conservative and require
  // everything below.
  for (const auto& c : node->children) PruneScans(c, nullptr);
}

PlanNodePtr Rewrite(PlanNodePtr node, const StrategicOptions& options) {
  for (auto& c : node->children) c = Rewrite(c, options);
  // To a fixpoint: after a rule fires, the new node's children are
  // rewritten (a filter pushed through a projection lands on a scan there
  // and becomes an invisible join), then every rule is tried on the new
  // node again. Each rule moves a filter down, dissolves a node or
  // produces a shape it no longer matches, so the loop ends.
  for (;;) {
    PlanNodePtr next;
    if (options.enable_simplification && next == nullptr) {
      next = SimplifyNode(node);
    }
    if (options.enable_filter_pushdown && next == nullptr) {
      next = TryPushFilterThroughProject(node);
    }
    if (options.enable_filter_pushdown && next == nullptr) {
      next = TryPushFilterThroughJoin(node);
    }
    if (options.enable_metadata_pruning && next == nullptr) {
      next = TryMetadataPrune(node);
    }
    if (options.enable_metadata_aggregates && next == nullptr) {
      next = TryMetadataAggregate(node);
    }
    if (options.enable_rank_join && next == nullptr) {
      next = TryRankJoin(node);
    }
    if (options.enable_run_aggregation && next == nullptr) {
      next = TryRunFoldAggregate(node);
    }
    if (options.enable_dict_grouping && next == nullptr) {
      next = TryDictCodeScan(node);
    }
    if (options.enable_topn && next == nullptr) {
      next = TryTopN(node);
    }
    if (options.enable_invisible_join && next == nullptr) {
      next = TryInvisibleJoin(node);
    }
    if (options.enable_invisible_join && next == nullptr) {
      next = TryComputePushdown(node);
    }
    if (next == nullptr) break;
    node = std::move(next);
    for (auto& c : node->children) c = Rewrite(c, options);
  }
  return node;
}

}  // namespace

Result<PlanNodePtr> StrategicOptimize(PlanNodePtr root,
                                      const StrategicOptions& options) {
  if (root == nullptr) {
    return {Status::InvalidArgument("empty plan")};
  }
  root = Rewrite(std::move(root), options);
  if (options.enable_projection_pruning) {
    PruneScans(root, /*required=*/nullptr);
  }
  if (options.enable_run_filters) {
    PushRunFilters(&root);
  }
  if (options.enable_sort_pruning) {
    PushSortRuns(&root);
  }
  if (options.enforce_order_preserving_exchange) {
    EnforceOrderedExchange(root, /*under_encoder=*/false);
  }
  return root;
}

namespace {

void CollectPredicateColumns(const ExprPtr& e, std::vector<std::string>* out) {
  if (const std::string* c = e->AsColumnRef()) {
    if (std::find(out->begin(), out->end(), *c) == out->end()) {
      out->push_back(*c);
    }
    return;
  }
  for (const ExprPtr& k : e->Children()) CollectPredicateColumns(k, out);
}

}  // namespace

SegmentPruneResult PruneScanSegments(const Table& table,
                                     const ExprPtr& predicate) {
  SegmentPruneResult out;
  if (predicate == nullptr) return out;

  std::vector<std::string> cols;
  CollectPredicateColumns(predicate, &cols);

  // A segment is skippable when the predicate, folded with that segment's
  // zone map substituted for its column's metadata, is provably false:
  // every row of the segment fails, whatever the other columns hold. Skip
  // verdicts from different columns union.
  std::vector<RowRange> skip;
  for (const std::string& name : cols) {
    auto c = table.ColumnByName(name);
    if (!c.ok()) continue;
    const std::vector<SegmentShape> shapes = c.value()->SegmentShapes();
    // Monolithic columns (one pseudo-segment) are TryMetadataPrune's job.
    if (shapes.size() <= 1) continue;
    for (const SegmentShape& s : shapes) {
      const MetaOverride ov{&name, &s.zone.meta};
      if (FoldAgainstMetadata(predicate, table, &ov) == Tri::kFalse) {
        ++out.segments_pruned;
        skip.push_back({s.start_row, s.start_row + s.rows});
      }
    }
  }
  skip = NormalizeRanges(std::move(skip));
  if (skip.empty()) return out;
  for (const RowRange& r : skip) out.rows_pruned += r.rows();
  out.ranges = ComplementRanges(skip, table.rows());
  if (out.ranges.empty()) {
    // Everything pruned: a degenerate visit list (an empty options.ranges
    // would mean "scan all").
    out.ranges.push_back({0, 0});
  }
  return out;
}

}  // namespace tde
