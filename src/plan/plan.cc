#include "src/plan/plan.h"

namespace tde {

Plan Plan::Scan(std::shared_ptr<const Table> table,
                std::vector<std::string> columns) {
  Plan p;
  p.root_ = std::make_shared<PlanNode>();
  p.root_->kind = PlanNodeKind::kScan;
  p.root_->table = std::move(table);
  p.root_->columns = std::move(columns);
  return p;
}

Plan Plan::Filter(ExprPtr predicate) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kFilter;
  n->predicate = std::move(predicate);
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

Plan Plan::Project(std::vector<ProjectedColumn> projections) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kProject;
  n->projections = std::move(projections);
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

Plan Plan::Aggregate(std::vector<std::string> group_by,
                     std::vector<AggSpec> aggs) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kAggregate;
  n->agg.group_by = std::move(group_by);
  n->agg.aggs = std::move(aggs);
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

Plan Plan::OrderBy(std::vector<SortKey> keys) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kSort;
  n->sort_keys = std::move(keys);
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

Plan Plan::Join(std::shared_ptr<const Table> inner, HashJoinOptions join) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kJoinTable;
  n->inner_table = std::move(inner);
  n->join = std::move(join);
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

Plan Plan::ExchangeBy(int workers, bool order_preserving) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kExchange;
  n->exchange_workers = workers;
  n->order_preserving = order_preserving;
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

Plan Plan::Limit(uint64_t n) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNodeKind::kLimit;
  node->limit = n;
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

Plan Plan::Materialize(FlowTableOptions options) && {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanNodeKind::kMaterialize;
  n->flow = std::move(options);
  n->children.push_back(std::move(root_));
  root_ = std::move(n);
  return std::move(*this);
}

namespace {
std::string ListNames(const std::vector<std::string>& names) {
  std::string out = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out + "]";
}

void Print(const PlanNodePtr& node, int depth, std::string* out) {
  static const char* kNames[] = {
      "Scan",      "Filter",        "Project",     "Aggregate",
      "Sort",      "JoinTable",     "InvisibleJoin", "IndexedScan",
      "Exchange",  "Materialize",   "Limit",       "TopN"};
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(kNames[static_cast<int>(node->kind)]);
  switch (node->kind) {
    case PlanNodeKind::kScan:
      // A narrowed scan lists the columns it reads.
      out->append("(" + node->table->name() + ")");
      if (!node->columns.empty()) out->append(ListNames(node->columns));
      break;
    case PlanNodeKind::kJoinTable:
      // Inner table, keys, the inner predicate pushed into the join, and
      // the payload attached to each match ("[]" = a pure semi-join).
      out->append("(" + node->inner_table->name() + ": " +
                  node->join.outer_key + " = " + node->join.inner_key);
      if (node->inner_predicate != nullptr) {
        out->append(" WHERE " + node->inner_predicate->ToString());
      }
      out->append(")" + ListNames(node->join.inner_payload));
      break;
    case PlanNodeKind::kFilter:
      out->append("(" + node->predicate->ToString() + ")");
      break;
    case PlanNodeKind::kInvisibleJoin:
      out->append("(" + node->dict_column + ")");
      break;
    case PlanNodeKind::kIndexedScan:
      out->append("(" + node->index_column + ")");
      if (node->sort_runs) out->append("[run-sort]");
      break;
    case PlanNodeKind::kTopN:
      out->append("(" + std::to_string(node->limit) + ")");
      break;
    case PlanNodeKind::kAggregate:
      if (node->metadata_answered) out->append("[metadata]");
      if (node->fold_runs) out->append("[fold-runs]");
      if (node->grouped_input) out->append("[ordered]");
      break;
    case PlanNodeKind::kExchange:
      out->append(node->order_preserving ? "[ordered]" : "[unordered]");
      break;
    default:
      break;
  }
  out->push_back('\n');
  for (const auto& c : node->children) Print(c, depth + 1, out);
}
}  // namespace

std::string PlanToString(const PlanNodePtr& node) {
  std::string out;
  Print(node, 0, &out);
  return out;
}

PlanNodePtr ClonePlan(const PlanNodePtr& node) {
  if (node == nullptr) return nullptr;
  auto copy = std::make_shared<PlanNode>(*node);
  for (PlanNodePtr& child : copy->children) child = ClonePlan(child);
  return copy;
}

}  // namespace tde
