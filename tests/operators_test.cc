#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "src/exec/compressed_predicate.h"
#include "src/exec/filter.h"
#include "src/exec/hash_aggregate.h"
#include "src/exec/ordered_aggregate.h"
#include "src/exec/project.h"
#include "src/exec/sort.h"
#include "src/exec/table_scan.h"
#include "src/exec/topn.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::Drain;
using testutil::Flatten;
using testutil::VectorSource;
using namespace tde::expr;  // NOLINT

TEST(Filter, KeepsMatchingRows) {
  auto src = VectorSource::Ints({{"x", {1, 5, 2, 8, 3}}});
  Filter f(std::move(src), Gt(Col("x"), Int(2)));
  const auto got = Flatten(Drain(&f), 0);
  EXPECT_EQ(got, (std::vector<Lane>{5, 8, 3}));
  EXPECT_EQ(f.rows_in(), 5u);
  EXPECT_EQ(f.rows_out(), 3u);
}

TEST(Filter, EmptyResultIsCleanEos) {
  auto src = VectorSource::Ints({{"x", {1, 2}}});
  Filter f(std::move(src), Gt(Col("x"), Int(100)));
  EXPECT_TRUE(Drain(&f).empty());
}

TEST(Filter, SpansManyBlocks) {
  std::vector<Lane> v(5 * kBlockSize);
  std::iota(v.begin(), v.end(), 0);
  auto src = VectorSource::Ints({{"x", v}});
  Filter f(std::move(src),
           Eq(Arith(ArithOp::kMod, Col("x"), Int(2)), Int(0)));
  const auto got = Flatten(Drain(&f), 0);
  ASSERT_EQ(got.size(), v.size() / 2);
  EXPECT_EQ(got[1], 2);
}

Lane RealLane(double d) { return std::bit_cast<Lane>(d); }

/// Six rows with a NULL in each column, NaN, -inf and an extreme integer.
struct FilterFixture {
  Schema schema;
  Block block;
  FilterFixture() {
    schema.AddField({"i", TypeId::kInteger});
    schema.AddField({"r", TypeId::kReal});
    block.columns.resize(2);
    block.columns[0].type = TypeId::kInteger;
    block.columns[0].lanes = {kNullSentinel, -5, 0, 3, 7,
                              std::numeric_limits<Lane>::max()};
    block.columns[1].type = TypeId::kReal;
    block.columns[1].lanes = {
        RealLane(std::numeric_limits<double>::quiet_NaN()),
        RealLane(-std::numeric_limits<double>::infinity()), RealLane(1.5),
        kNullSentinel, RealLane(3.0), RealLane(7.0)};
  }
  SelectionVector Select(const ExprPtr& pred) const {
    SelectionVector sel = {99};  // overwritten
    EXPECT_TRUE(BoundPredicate(pred, schema).Select(block, &sel).ok());
    return sel;
  }
  /// The rows the expression itself evaluates to true.
  SelectionVector EvalRows(const ExprPtr& pred) const {
    auto mask = pred->Eval(block, schema);
    EXPECT_TRUE(mask.ok());
    SelectionVector rows;
    for (size_t r = 0; r < mask.value().lanes.size(); ++r) {
      if (mask.value().lanes[r] == 1) rows.push_back(static_cast<uint32_t>(r));
    }
    return rows;
  }
};

TEST(BoundPredicate, ComparisonsMatchExpressionSemantics) {
  // Every operator, a literal on either side and of either numeric type
  // (NaN and NULL included), and column against column: the selection is
  // exactly the rows the comparison expression evaluates to true.
  const FilterFixture f;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<ExprPtr> literals = {
      Int(3),  Int(-5),    Real(3.0),           Real(2.5),
      Real(nan), Real(-std::numeric_limits<double>::infinity()),
      Null(TypeId::kInteger), Null(TypeId::kReal)};
  for (int op_i = 0; op_i < 6; ++op_i) {
    const CompareOp op = static_cast<CompareOp>(op_i);
    for (const char* col : {"i", "r"}) {
      for (const ExprPtr& lit : literals) {
        for (const ExprPtr& pred : {Cmp(op, Col(col), lit),
                                    Cmp(op, lit, Col(col))}) {
          EXPECT_EQ(f.Select(pred), f.EvalRows(pred)) << pred->ToString();
        }
      }
    }
    for (const ExprPtr& pred :
         {Cmp(op, Col("i"), Col("r")), Cmp(op, Col("r"), Col("i")),
          Cmp(op, Col("i"), Col("i")), Cmp(op, Col("r"), Col("r"))}) {
      EXPECT_EQ(f.Select(pred), f.EvalRows(pred)) << pred->ToString();
    }
  }
}

TEST(BoundPredicate, NullsNaNAndMixedTypesByHand) {
  const FilterFixture f;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Rows = SelectionVector;
  // NULL on either side is false, for every operator.
  EXPECT_EQ(f.Select(Ne(Col("i"), Int(0))), (Rows{1, 3, 4, 5}));
  EXPECT_EQ(f.Select(Le(Col("i"), Null(TypeId::kInteger))), Rows{});
  // NaN equals NaN and sorts above every number, +inf included.
  EXPECT_EQ(f.Select(Eq(Col("r"), Real(nan))), (Rows{0}));
  EXPECT_EQ(f.Select(Ne(Col("r"), Real(nan))), (Rows{1, 2, 4, 5}));
  EXPECT_EQ(f.Select(Lt(Col("r"), Real(nan))), (Rows{1, 2, 4, 5}));
  EXPECT_EQ(f.Select(Le(Col("r"), Real(nan))), (Rows{0, 1, 2, 4, 5}));
  EXPECT_EQ(f.Select(Gt(Col("r"), Real(nan))), Rows{});
  EXPECT_EQ(f.Select(Ge(Col("r"), Real(nan))), (Rows{0}));
  EXPECT_EQ(
      f.Select(Gt(Col("r"), Real(std::numeric_limits<double>::infinity()))),
      (Rows{0}));
  // Integer column against a real literal, and the reverse.
  EXPECT_EQ(f.Select(Lt(Col("i"), Real(2.5))), (Rows{1, 2}));
  EXPECT_EQ(f.Select(Eq(Col("i"), Real(3.0))), (Rows{3}));
  EXPECT_EQ(f.Select(Ge(Col("r"), Int(3))), (Rows{0, 4, 5}));
  // A literal on the left.
  EXPECT_EQ(f.Select(Lt(Int(3), Col("i"))), (Rows{4, 5}));
  EXPECT_EQ(f.Select(Ge(Real(1.5), Col("r"))), (Rows{1, 2}));
}

TEST(BoundPredicate, ConjunctsNarrowInOrderAndErrorsReturnAsStatus) {
  const FilterFixture f;
  // LIKE over an integer column fails when it is evaluated.
  const ExprPtr bad = Like(Col("i"), "x%");
  // The first conjunct keeps nothing: the rest is never reached.
  SelectionVector sel = {1, 2, 3};
  ASSERT_TRUE(BoundPredicate(And(Lt(Col("i"), Int(-100)), bad), f.schema)
                  .Select(f.block, &sel)
                  .ok());
  EXPECT_TRUE(sel.empty());
  // Rows survive, so the failing conjunct runs and its error comes back.
  const Status st = BoundPredicate(And(Lt(Col("i"), Int(100)), bad), f.schema)
                        .Select(f.block, &sel);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // A generic conjunct between two bound ones is intersected.
  const ExprPtr chain =
      And(And(Gt(Col("i"), Int(-10)), Eq(Arith(ArithOp::kMod, Col("i"),
                                                Int(2)),
                                          Int(1))),
          Lt(Col("r"), Real(5.0)));
  EXPECT_EQ(f.Select(chain), f.EvalRows(chain));
  EXPECT_EQ(f.Select(chain), (SelectionVector{4}));
}

TEST(BoundPredicate, DictionaryCodesUseIntervalBitmapOrSortedTokens) {
  // 2000 strings added to the heap in order, so tokens ascend with the
  // text; the IN lists below translate to an interval, a bitmap (nearby
  // tokens) and a sorted token list (tokens far apart), and NOT IN lets
  // NULL rows through the NULL verdict. One 3000-row block: any row count
  // binds.
  auto heap = std::make_shared<StringHeap>();
  HeapAccelerator acc(heap.get());
  Block block;
  block.columns.resize(1);
  block.columns[0].type = TypeId::kString;
  std::vector<Lane>& lanes = block.columns[0].lanes;
  for (int r = 0; r < 3000; ++r) {
    char w[8];
    std::snprintf(w, sizeof(w), "s%04d", r < 2000 ? r : (r * 7) % 2000);
    lanes.push_back(acc.Add(w));
  }
  lanes[5] = kNullSentinel;
  lanes[2500] = kNullSentinel;
  block.columns[0].heap = heap;
  Schema schema;
  schema.AddField({"s", TypeId::kString});
  enum Form { kInterval, kBitmap, kSorted };
  const std::vector<std::pair<ExprPtr, Form>> preds = {
      {In(Col("s"), {Str("s0001"), Str("s0002"), Str("s0003")}), kInterval},
      {In(Col("s"), {Str("s0000"), Str("s0007"), Str("s0014")}), kBitmap},
      {In(Col("s"), {Str("s0000"), Str("s1995")}), kSorted},
      {Not(In(Col("s"), {Str("s0000"), Str("s1995")})), kBitmap},
      {IsNull(Col("s")), kInterval}};
  for (const auto& [pred, form] : preds) {
    int rewrites = 0;
    const ExprPtr wrapped = RewriteDictPredicates(pred, schema, &rewrites);
    ASSERT_EQ(rewrites, 1) << pred->ToString();
    auto t = AsDictCodePredicate(wrapped)->Translate(heap);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value()->interval, form == kInterval) << pred->ToString();
    EXPECT_EQ(!t.value()->bitmap.empty(), form == kBitmap);
    EXPECT_EQ(!t.value()->sorted.empty(), form == kSorted);
    SelectionVector sel;
    ASSERT_TRUE(BoundPredicate(wrapped, schema).Select(block, &sel).ok());
    auto mask = pred->Eval(block, schema);
    ASSERT_TRUE(mask.ok());
    SelectionVector want;
    for (size_t r = 0; r < block.rows(); ++r) {
      if (mask.value().lanes[r] == 1) want.push_back(static_cast<uint32_t>(r));
    }
    EXPECT_EQ(sel, want) << pred->ToString();
    EXPECT_FALSE(want.empty()) << pred->ToString();
  }
}

TEST(Project, BareReferencesPassLanesThrough) {
  // The same input column twice, once computed and once bare: every copy
  // sees the input lanes.
  auto src = VectorSource::Ints({{"x", {1, 2, 3}}, {"y", {4, 5, 6}}});
  Project p(std::move(src), {{Col("x"), "a"},
                             {Add(Col("x"), Col("y")), "b"},
                             {Col("y"), "c"},
                             {Col("x"), "d"}});
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(&p, &blocks).ok());
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{1, 2, 3}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{5, 7, 9}));
  EXPECT_EQ(Flatten(blocks, 2), (std::vector<Lane>{4, 5, 6}));
  EXPECT_EQ(Flatten(blocks, 3), (std::vector<Lane>{1, 2, 3}));
}

TEST(Project, ComputesExpressions) {
  auto src = VectorSource::Ints({{"x", {1, 2, 3}}});
  Project p(std::move(src), {{Add(Col("x"), Int(10)), "y"},
                             {Col("x"), "x"}});
  ASSERT_TRUE(p.Open().ok());
  EXPECT_EQ(p.output_schema().field(0).name, "y");
  EXPECT_EQ(p.output_schema().field(0).type, TypeId::kInteger);
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(&p, &blocks).ok());
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{11, 12, 13}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{1, 2, 3}));
}

TEST(Sort, SingleKeyAscendingDescending) {
  auto src = VectorSource::Ints({{"x", {3, 1, 2}}, {"y", {30, 10, 20}}});
  Sort asc(std::move(src), {{"x", true}});
  auto blocks = Drain(&asc);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{1, 2, 3}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{10, 20, 30}));

  auto src2 = VectorSource::Ints({{"x", {3, 1, 2}}});
  Sort desc(std::move(src2), {{"x", false}});
  EXPECT_EQ(Flatten(Drain(&desc), 0), (std::vector<Lane>{3, 2, 1}));
}

TEST(Sort, MultiKeyIsStable) {
  auto src = VectorSource::Ints(
      {{"a", {1, 2, 1, 2}}, {"b", {9, 8, 7, 6}}, {"id", {0, 1, 2, 3}}});
  Sort s(std::move(src), {{"a", true}, {"b", true}});
  auto blocks = Drain(&s);
  EXPECT_EQ(Flatten(blocks, 2), (std::vector<Lane>{2, 0, 3, 1}));
}

TEST(Sort, StringKeysUseCollation) {
  auto src = VectorSource::Ints({{"id", {0, 1, 2}}});
  src->AddStringColumn("s", {"banana", "APPLE", "cherry"});
  Sort s(std::move(src), {{"s", true}});
  auto blocks = Drain(&s);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{1, 0, 2}));
}

TEST(Sort, DescendingPutsNullsLast) {
  // NULL orders below every value; DESC negates after that rule, so NULLs
  // come out last — the engine and the reference oracle agree on this.
  auto src = VectorSource::Ints(
      {{"x", {5, kNullSentinel, 1, kNullSentinel, 9}},
       {"id", {0, 1, 2, 3, 4}}});
  Sort s(std::move(src), {{"x", false}});
  auto blocks = Drain(&s);
  EXPECT_EQ(Flatten(blocks, 0),
            (std::vector<Lane>{9, 5, 1, kNullSentinel, kNullSentinel}));
  // Equal keys (the two NULLs) keep input order: stable.
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{4, 0, 2, 1, 3}));
}

TEST(Sort, MixedDirectionMultiKeyIsStable) {
  auto src = VectorSource::Ints({{"a", {1, 2, 1, 2, 1}},
                                 {"b", {7, 8, 7, 6, 9}},
                                 {"id", {0, 1, 2, 3, 4}}});
  Sort s(std::move(src), {{"a", true}, {"b", false}});
  auto blocks = Drain(&s);
  // a=1: b desc 9,7,7 (ids 4 then 0,2 in input order); a=2: b desc 8,6.
  EXPECT_EQ(Flatten(blocks, 2), (std::vector<Lane>{4, 0, 2, 1, 3}));
}

TEST(Sort, EmptyInput) {
  auto src = VectorSource::Ints({{"x", {}}});
  Sort s(std::move(src), {{"x", true}});
  EXPECT_TRUE(Drain(&s).empty());
}

TEST(Sort, BlockSizeBoundaries) {
  // Exactly one block and one block plus one row: the shapes where an
  // off-by-one in the buffering loop or the emit slicing would bite.
  for (const size_t n : {kBlockSize, kBlockSize + 1}) {
    std::vector<Lane> v(n);
    std::iota(v.begin(), v.end(), 0);
    std::reverse(v.begin(), v.end());
    auto src = VectorSource::Ints({{"x", v}});
    Sort s(std::move(src), {{"x", true}});
    const auto got = Flatten(Drain(&s), 0);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], static_cast<Lane>(i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Sort, NanKeepsTotalOrder) {
  const auto lane = [](double d) {
    return static_cast<Lane>(std::bit_cast<uint64_t>(d));
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Schema schema;
  schema.AddField({"d", TypeId::kReal});
  schema.AddField({"id", TypeId::kInteger});
  ColumnVector dcol;
  dcol.type = TypeId::kReal;
  dcol.lanes = {lane(1.5), lane(nan), lane(inf), kNullSentinel, lane(-2.0),
                lane(nan)};
  ColumnVector idcol;
  idcol.type = TypeId::kInteger;
  idcol.lanes = {0, 1, 2, 3, 4, 5};
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(dcol));
  cols.push_back(std::move(idcol));
  auto src =
      std::make_unique<VectorSource>(std::move(schema), std::move(cols));
  // Total order: NULL < -2 < 1.5 < +inf < NaN == NaN (ties stable).
  Sort s(std::move(src), {{"d", true}});
  auto blocks = Drain(&s);
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{3, 4, 0, 2, 1, 5}));
}

/// Emits one block per value set, each with its own freshly built
/// StringHeap — the shape CASE/computed string projections produce, where
/// equal strings get different tokens (and equal tokens different strings)
/// across blocks.
class PerBlockHeapSource : public Operator {
 public:
  PerBlockHeapSource(std::vector<std::vector<std::string>> blocks_of_strings)
      : blocks_(std::move(blocks_of_strings)) {
    schema_.AddField({"s", TypeId::kString});
    schema_.AddField({"id", TypeId::kInteger});
  }

  Status Open() override {
    at_ = 0;
    id_ = 0;
    return Status::OK();
  }

  Status Next(Block* block, bool* eos) override {
    block->columns.clear();
    if (at_ >= blocks_.size()) {
      *eos = true;
      return Status::OK();
    }
    auto heap = std::make_shared<StringHeap>();
    ColumnVector sv;
    sv.type = TypeId::kString;
    for (const std::string& s : blocks_[at_]) {
      sv.lanes.push_back(heap->Add(s));
    }
    sv.heap = std::move(heap);
    ColumnVector idv;
    idv.type = TypeId::kInteger;
    for (size_t i = 0; i < blocks_[at_].size(); ++i) {
      idv.lanes.push_back(id_++);
    }
    block->columns.push_back(std::move(sv));
    block->columns.push_back(std::move(idv));
    ++at_;
    *eos = false;
    return Status::OK();
  }

  const Schema& output_schema() const override { return schema_; }

 private:
  std::vector<std::vector<std::string>> blocks_;
  Schema schema_;
  size_t at_ = 0;
  Lane id_ = 0;
};

std::vector<std::string> HeapStrings(const std::vector<Block>& blocks,
                                     size_t col) {
  std::vector<std::string> out;
  for (const Block& b : blocks) {
    for (Lane t : b.columns[col].lanes) {
      out.push_back(t == kNullSentinel
                        ? "NULL"
                        : std::string(b.columns[col].heap->Get(t)));
    }
  }
  return out;
}

TEST(Sort, ReinternsPerBlockHeaps) {
  // Regression: Sort used to keep only the first block's heap, so later
  // blocks' tokens resolved against the wrong heap. Both the key and the
  // output strings must survive blocks whose heaps disagree on tokens.
  Sort s(std::make_unique<PerBlockHeapSource>(std::vector<std::vector<
             std::string>>{{"cherry", "apple"}, {"banana", "apple"},
                           {"date", "banana"}}),
         {{"s", true}});
  auto blocks = Drain(&s);
  EXPECT_EQ(HeapStrings(blocks, 0),
            (std::vector<std::string>{"apple", "apple", "banana", "banana",
                                      "cherry", "date"}));
  // Equal strings from different blocks stay in input order.
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{1, 3, 2, 5, 0, 4}));
}

TEST(TopN, MatchesFullSortPrefix) {
  // Pseudo-random lanes with heavy ties: the bounded heap must agree with
  // the full sort on order, ties (stability) and NULL placement.
  std::vector<Lane> x, id;
  uint64_t st = 42;
  for (Lane i = 0; i < 3000; ++i) {
    st = st * 6364136223846793005ull + 1442695040888963407ull;
    x.push_back((st >> 33) % 11 == 0 ? kNullSentinel
                                     : static_cast<Lane>((st >> 40) % 17));
    id.push_back(i);
  }
  for (const bool asc : {true, false}) {
    for (const uint64_t k : {1ull, 7ull, 100ull}) {
      Sort full(VectorSource::Ints({{"x", x}, {"id", id}}), {{"x", asc}});
      auto want = Flatten(Drain(&full), 1);
      want.resize(std::min<size_t>(want.size(), k));
      TopN top(VectorSource::Ints({{"x", x}, {"id", id}}), {{"x", asc}}, k);
      const auto got = Flatten(Drain(&top), 1);
      EXPECT_EQ(got, want) << "asc=" << asc << " k=" << k;
      EXPECT_EQ(top.input_rows(), 3000u);
      EXPECT_GE(top.rows_materialized(), want.size());
      // The win the counter exists to show: a bounded heap writes far
      // fewer rows than the input it consumed.
      EXPECT_LT(top.rows_materialized(), top.input_rows() / 2)
          << "asc=" << asc << " k=" << k;
    }
  }
}

TEST(TopN, LimitZeroAndLimitBeyondInput) {
  TopN zero(VectorSource::Ints({{"x", {3, 1, 2}}}), {{"x", true}}, 0);
  EXPECT_TRUE(Drain(&zero).empty());

  TopN all(VectorSource::Ints({{"x", {3, 1, 2}}}), {{"x", true}}, 99);
  EXPECT_EQ(Flatten(Drain(&all), 0), (std::vector<Lane>{1, 2, 3}));
}

/// An operator that must never be opened — stands in for a zone-skipped
/// segment whose cold columns would otherwise fault in.
class MustNotOpen : public Operator {
 public:
  MustNotOpen() { schema_.AddField({"x", TypeId::kInteger}); }
  Status Open() override {
    ADD_FAILURE() << "zone-skipped source was opened";
    return Status::Internal("opened");
  }
  Status Next(Block*, bool* eos) override {
    *eos = true;
    return Status::OK();
  }
  const Schema& output_schema() const override { return schema_; }

 private:
  Schema schema_;
};

TEST(TopN, ZoneSkipNeverOpensLosingSegments) {
  // Segment 1 fills the heap with {1..5}; segment 2's minimum (50) cannot
  // beat the worst kept row (5), so it is skipped without opening.
  std::vector<TopNSource> sources;
  sources.emplace_back();
  sources.back().op = VectorSource::Ints({{"x", {5, 3, 1, 4, 2}}});
  sources.emplace_back();
  sources.back().op = std::make_unique<MustNotOpen>();
  sources.back().zone_known = true;
  sources.back().min_value = 50;
  sources.back().max_value = 90;
  sources.back().has_nulls = false;
  // A third segment that can win rows must still be drained.
  sources.emplace_back();
  sources.back().op = VectorSource::Ints({{"x", {0, 60}}});
  sources.back().zone_known = true;
  sources.back().min_value = 0;
  sources.back().max_value = 60;
  sources.back().has_nulls = false;
  TopN top(std::move(sources), {{"x", true}}, 5);
  EXPECT_EQ(Flatten(Drain(&top), 0), (std::vector<Lane>{0, 1, 2, 3, 4}));
  EXPECT_EQ(top.segments_skipped(), 1u);
}

TEST(TopN, ZoneSkipRespectsNullsUnderAscending) {
  // NULL orders below every value: a segment whose minimum loses but which
  // may hold NULLs cannot be skipped ascending.
  std::vector<TopNSource> sources;
  sources.emplace_back();
  sources.back().op = VectorSource::Ints({{"x", {1, 2, 3}}});
  sources.emplace_back();
  sources.back().op =
      VectorSource::Ints({{"x", {kNullSentinel, 70}}});
  sources.back().zone_known = true;
  sources.back().min_value = 70;
  sources.back().max_value = 70;
  sources.back().has_nulls = true;
  TopN top(std::move(sources), {{"x", true}}, 3);
  EXPECT_EQ(Flatten(Drain(&top), 0),
            (std::vector<Lane>{kNullSentinel, 1, 2}));
  EXPECT_EQ(top.segments_skipped(), 0u);
}

TEST(TopN, SortedInputStopsEarly) {
  std::vector<Lane> v(4 * kBlockSize);
  std::iota(v.begin(), v.end(), 0);
  TopNOptions opts;
  opts.input_sorted = true;
  TopN top(VectorSource::Ints({{"x", v}}), {{"x", true}}, 3, opts);
  EXPECT_EQ(Flatten(Drain(&top), 0), (std::vector<Lane>{0, 1, 2}));
  EXPECT_TRUE(top.early_stopped());
  EXPECT_LT(top.input_rows(), v.size());
}

TEST(TopN, ReinternsPerBlockHeapsOnKey) {
  // String key whose heap changes per block: TopN must downgrade its
  // compressed key mode and keep both order and output strings correct.
  TopN top(std::make_unique<PerBlockHeapSource>(std::vector<std::vector<
               std::string>>{{"cherry", "apple"}, {"banana", "apple"},
                             {"date", "banana"}}),
           {{"s", true}}, 4);
  auto blocks = Drain(&top);
  EXPECT_EQ(HeapStrings(blocks, 0),
            (std::vector<std::string>{"apple", "apple", "banana", "banana"}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{1, 3, 2, 5}));
}

TEST(TopN, DictSortOffStillOrdersStrings) {
  auto src = VectorSource::Ints({{"id", {0, 1, 2}}});
  src->AddStringColumn("s", {"banana", "APPLE", "cherry"});
  TopNOptions opts;
  opts.dict_sort = false;
  TopN top(std::move(src), {{"s", true}}, 2, opts);
  auto blocks = Drain(&top);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{1, 0}));
  EXPECT_EQ(top.dict_keys(), 0u);
}

TEST(HashAggregate, AllAggKinds) {
  auto src = VectorSource::Ints(
      {{"k", {1, 2, 1, 2, 1}}, {"v", {10, 20, 30, kNullSentinel, 50}}});
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kCountStar, "", "n"},
               {AggKind::kCount, "v", "cnt"},
               {AggKind::kSum, "v", "sum"},
               {AggKind::kMin, "v", "mn"},
               {AggKind::kMax, "v", "mx"},
               {AggKind::kAvg, "v", "avg"},
               {AggKind::kCountDistinct, "v", "cd"},
               {AggKind::kMedian, "v", "med"}};
  HashAggregate agg(std::move(src), opts);
  auto blocks = Drain(&agg);
  const auto keys = Flatten(blocks, 0);
  ASSERT_EQ(keys, (std::vector<Lane>{1, 2}));  // insertion order
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{3, 2}));   // COUNT(*)
  EXPECT_EQ(Flatten(blocks, 2), (std::vector<Lane>{3, 1}));   // COUNT(v)
  EXPECT_EQ(Flatten(blocks, 3), (std::vector<Lane>{90, 20}));
  EXPECT_EQ(Flatten(blocks, 4), (std::vector<Lane>{10, 20}));
  EXPECT_EQ(Flatten(blocks, 5), (std::vector<Lane>{50, 20}));
  const auto avg = Flatten(blocks, 6);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(static_cast<uint64_t>(avg[0])), 30.0);
  EXPECT_EQ(Flatten(blocks, 7), (std::vector<Lane>{3, 1}));   // COUNTD
  EXPECT_EQ(Flatten(blocks, 8), (std::vector<Lane>{30, 20}));  // MEDIAN
}

TEST(HashAggregate, GlobalAggregationWithoutKeys) {
  auto src = VectorSource::Ints({{"v", {1, 2, 3, 4}}});
  AggregateOptions opts;
  opts.aggs = {{AggKind::kSum, "v", "s"}, {AggKind::kCountStar, "", "n"}};
  HashAggregate agg(std::move(src), opts);
  auto blocks = Drain(&agg);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{10}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{4}));
}

TEST(HashAggregate, MultiKeyGrouping) {
  auto src = VectorSource::Ints(
      {{"a", {1, 1, 2, 1}}, {"b", {5, 6, 5, 5}}, {"v", {1, 1, 1, 1}}});
  AggregateOptions opts;
  opts.group_by = {"a", "b"};
  opts.aggs = {{AggKind::kCountStar, "", "n"}};
  HashAggregate agg(std::move(src), opts);
  auto blocks = Drain(&agg);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{1, 1, 2}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{5, 6, 5}));
  EXPECT_EQ(Flatten(blocks, 2), (std::vector<Lane>{2, 1, 1}));
}

TEST(HashAggregate, ManyGroupsAcrossGrowth) {
  std::vector<Lane> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<Lane>(i % 5000);
  }
  auto src = VectorSource::Ints({{"k", keys}, {"v", keys}});
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kCountStar, "", "n"}};
  HashAggregate agg(std::move(src), opts);
  auto blocks = Drain(&agg);
  EXPECT_EQ(Flatten(blocks, 0).size(), 5000u);
  for (Lane n : Flatten(blocks, 1)) ASSERT_EQ(n, 4);
}

class AggAlgorithms : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(AggAlgorithms, SameResultsUnderEveryTacticalChoice) {
  std::vector<Lane> keys, vals;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(i % 97);
    vals.push_back(i);
  }
  auto src = VectorSource::Ints({{"k", keys}, {"v", vals}});
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kSum, "v", "s"}};
  opts.hash_algorithm = GetParam();
  opts.key_min = 0;
  opts.key_max = 96;
  HashAggregate agg(std::move(src), opts);
  auto blocks = Drain(&agg);
  EXPECT_EQ(agg.algorithm_used(), GetParam());
  const auto k = Flatten(blocks, 0);
  const auto s = Flatten(blocks, 1);
  ASSERT_EQ(k.size(), 97u);
  int64_t total = 0;
  for (Lane x : s) total += x;
  EXPECT_EQ(total, 10000LL * 9999 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    All, AggAlgorithms,
    ::testing::Values(HashAlgorithm::kDirect, HashAlgorithm::kPerfect,
                      HashAlgorithm::kCollision),
    [](const auto& info) { return HashAlgorithmName(info.param); });

TEST(OrderedAggregate, MatchesHashOnGroupedInput) {
  std::vector<Lane> keys, vals;
  for (int g = 0; g < 50; ++g) {
    for (int i = 0; i < 100; ++i) {
      keys.push_back(g);
      vals.push_back(g * 1000 + i);
    }
  }
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kMax, "v", "m"}, {AggKind::kCountStar, "", "n"}};

  OrderedAggregate ordered(VectorSource::Ints({{"k", keys}, {"v", vals}}),
                           opts);
  auto ob = Drain(&ordered);
  HashAggregate hashed(VectorSource::Ints({{"k", keys}, {"v", vals}}), opts);
  auto hb = Drain(&hashed);
  EXPECT_EQ(Flatten(ob, 0), Flatten(hb, 0));
  EXPECT_EQ(Flatten(ob, 1), Flatten(hb, 1));
  EXPECT_EQ(Flatten(ob, 2), Flatten(hb, 2));
}

TEST(OrderedAggregate, GroupSpanningBlockBoundary) {
  std::vector<Lane> keys(kBlockSize + 100, 1);
  std::vector<Lane> vals(keys.size(), 2);
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kSum, "v", "s"}};
  OrderedAggregate agg(VectorSource::Ints({{"k", keys}, {"v", vals}}), opts);
  auto blocks = Drain(&agg);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{1}));
  EXPECT_EQ(Flatten(blocks, 1),
            (std::vector<Lane>{2 * static_cast<Lane>(keys.size())}));
}

TEST(OrderedAggregate, RequiresSingleKey) {
  AggregateOptions opts;
  opts.group_by = {"a", "b"};
  OrderedAggregate agg(VectorSource::Ints({{"a", {}}, {"b", {}}}), opts);
  EXPECT_EQ(agg.Open().code(), StatusCode::kInvalidArgument);
}

TEST(HashAggregate, MinMaxOnStringsViaSortedTokens) {
  auto src = VectorSource::Ints({{"k", {1, 1, 1}}});
  src->AddStringColumn("s", {"b", "a", "c"});
  // Tokens from an accelerator heap ascend by first occurrence; min/max of
  // tokens equal min/max strings only when the heap is sorted. Here the
  // arrival order b,a,c is unsorted, so we aggregate on token values — this
  // test documents that min/max strings require sorted heaps.
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kCountDistinct, "s", "cd"}};
  HashAggregate agg(std::move(src), opts);
  auto blocks = Drain(&agg);
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{3}));
}

}  // namespace
}  // namespace tde
