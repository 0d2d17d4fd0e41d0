#include "src/exec/exchange.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "src/exec/limit.h"

#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::Drain;
using testutil::Flatten;
using testutil::VectorSource;

BlockTransform KeepEven() {
  return [](const Schema&, Block* b) -> Status {
    SelectionVector sel;
    for (size_t i = 0; i < b->rows(); ++i) {
      if (b->columns[0].lanes[i] % 2 == 0) {
        sel.push_back(static_cast<uint32_t>(i));
      }
    }
    b->Compact(sel);
    return Status::OK();
  };
}

std::vector<Lane> Ramp(size_t n) {
  std::vector<Lane> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// The two ways an Exchange takes its input: one child whose blocks a
/// producer task fans out, or partitions that each drain their own source.
enum class Input { kChild, kPartitions };
constexpr Input kInputs[] = {Input::kChild, Input::kPartitions};

const char* InputName(Input in) {
  return in == Input::kChild ? "child" : "partitions";
}

/// The Exchange's bound on blocks in flight (admitted, not yet emitted),
/// shared by the producer and all partitions.
constexpr size_t kInFlightBound = 32;

/// Blocks per partition where a test needs a partition to park: more than
/// the in-flight bound holds.
constexpr size_t kPartitionBlocks = 40;

/// An exchange over the rows of `input` (one integer column "x"): one
/// child, or `opts.workers` partitions of contiguous rows.
std::unique_ptr<Exchange> MakeExchange(Input in, const std::vector<Lane>& input,
                                       ExchangeOptions opts) {
  if (in == Input::kChild) {
    return std::make_unique<Exchange>(VectorSource::Ints({{"x", input}}),
                                      std::move(opts));
  }
  const size_t n = static_cast<size_t>(opts.workers);
  std::vector<std::unique_ptr<Operator>> parts;
  for (size_t p = 0; p < n; ++p) {
    const auto at = [&](size_t k) {
      return input.begin() + static_cast<ptrdiff_t>(input.size() * k / n);
    };
    parts.push_back(
        VectorSource::Ints({{"x", std::vector<Lane>(at(p), at(p + 1))}}));
  }
  return std::make_unique<Exchange>(std::move(parts), std::move(opts));
}

std::vector<Lane> Sorted(std::vector<Lane> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Exchange, OrderPreservingKeepsBlockOrder) {
  const auto input = Ramp(20 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 4;
  opts.order_preserving = true;
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  const auto got = Flatten(Drain(&ex), 0);
  EXPECT_EQ(got, input);
}

TEST(Exchange, UnorderedDeliversSameMultiset) {
  const auto input = Ramp(20 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 4;
  opts.order_preserving = false;
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  auto got = Flatten(Drain(&ex), 0);
  ASSERT_EQ(got.size(), input.size());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, input);
}

TEST(Exchange, TransformAppliesPerBlock) {
  const auto input = Ramp(8 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 3;
  opts.order_preserving = true;
  opts.transform = KeepEven();
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  const auto got = Flatten(Drain(&ex), 0);
  ASSERT_EQ(got.size(), input.size() / 2);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<Lane>(2 * i));
  }
}

TEST(Exchange, UnorderedTransformedMultisetMatches) {
  const auto input = Ramp(8 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 3;
  opts.order_preserving = false;
  opts.transform = KeepEven();
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  auto got = Flatten(Drain(&ex), 0);
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), input.size() / 2);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<Lane>(2 * i));
  }
}

TEST(Exchange, SingleWorkerWorks) {
  const auto input = Ramp(3 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 1;
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  EXPECT_EQ(Flatten(Drain(&ex), 0), input);
}

TEST(Exchange, EmptyInput) {
  ExchangeOptions opts;
  opts.workers = 2;
  Exchange ex(VectorSource::Ints({{"x", {}}}), opts);
  EXPECT_TRUE(Drain(&ex).empty());
}

TEST(Exchange, TransformErrorPropagates) {
  for (const Input in : kInputs) {
    SCOPED_TRACE(InputName(in));
    ExchangeOptions opts;
    opts.workers = 2;
    opts.transform = [](const Schema&, Block*) {
      return Status::Internal("boom");
    };
    auto ex = MakeExchange(in, Ramp(2 * kPartitionBlocks * kBlockSize), opts);
    ASSERT_TRUE(ex->Open().ok());
    Block b;
    bool eos = false;
    Status st;
    while (st.ok() && !eos) st = ex->Next(&b, &eos);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    ex->Close();
  }
}

TEST(Exchange, CloseMidStreamOrderedDoesNotDeadlock) {
  // Abort a query after consuming a couple of blocks from an
  // order-preserving exchange over a large input: Close() must drain and
  // join every thread without wedging on the in-flight bound.
  const auto input = Ramp(200 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 4;
  opts.order_preserving = true;
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  ASSERT_TRUE(ex.Open().ok());
  Block b;
  bool eos = false;
  for (int i = 0; i < 3 && !eos; ++i) {
    ASSERT_TRUE(ex.Next(&b, &eos).ok());
    ASSERT_FALSE(eos);
    ASSERT_EQ(b.columns[0].lanes[0], static_cast<Lane>(i * kBlockSize));
  }
  ex.Close();  // mid-stream abort

  // The unordered half: the same abort, where the producer or the
  // partitions park on the in-flight bound while the consumer holds back.
  opts.order_preserving = false;
  for (const Input in : kInputs) {
    SCOPED_TRACE(InputName(in));
    auto unordered =
        MakeExchange(in, Ramp(4 * kPartitionBlocks * kBlockSize), opts);
    ASSERT_TRUE(unordered->Open().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(unordered->Next(&b, &eos).ok());
      ASSERT_FALSE(eos);
      ASSERT_EQ(b.rows(), kBlockSize);
    }
    unordered->Close();  // mid-stream abort
  }
}

TEST(Exchange, CloseWithoutConsumingAnything) {
  const auto input = Ramp(100 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 3;
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  ASSERT_TRUE(ex.Open().ok());
  ex.Close();
}

TEST(Exchange, DestructorJoinsWithoutClose) {
  const auto input = Ramp(50 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 3;
  auto ex = std::make_unique<Exchange>(VectorSource::Ints({{"x", input}}),
                                       opts);
  ASSERT_TRUE(ex->Open().ok());
  Block b;
  bool eos = false;
  ASSERT_TRUE(ex->Next(&b, &eos).ok());
  ex.reset();  // the error/abort path skips Close; ~Exchange must join
}

TEST(Exchange, CloseAfterErrorJoinsCleanly) {
  for (const Input in : kInputs) {
    SCOPED_TRACE(InputName(in));
    ExchangeOptions opts;
    opts.workers = 2;
    opts.order_preserving = true;
    opts.transform = [](const Schema&, Block* b) -> Status {
      if (b->columns[0].lanes[0] >= 4 * kBlockSize) {
        return Status::Internal("mid-stream failure");
      }
      return Status::OK();
    };
    auto ex = MakeExchange(in, Ramp(2 * kPartitionBlocks * kBlockSize), opts);
    ASSERT_TRUE(ex->Open().ok());
    Block b;
    bool eos = false;
    Status st;
    while (st.ok() && !eos) st = ex->Next(&b, &eos);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    // Error already delivered; Close must not hang or lose the threads.
    ex->Close();
    // The error sticks on further Next calls.
    EXPECT_FALSE(ex->Next(&b, &eos).ok());
  }
}

TEST(Exchange, NextBeforeOpenFailsCleanly) {
  ExchangeOptions opts;
  Exchange ex(VectorSource::Ints({{"x", Ramp(kBlockSize)}}), opts);
  Block b;
  bool eos = false;
  EXPECT_EQ(ex.Next(&b, &eos).code(), StatusCode::kInternal);
}

TEST(Exchange, RunStatsAccountForEveryBlock) {
  const size_t kBlocks = 4 * kPartitionBlocks;
  const auto input = Ramp(kBlocks * kBlockSize);
  for (const Input in : kInputs) {
    SCOPED_TRACE(InputName(in));
    ExchangeOptions opts;
    opts.workers = 4;
    opts.order_preserving = true;  // partitions are unordered regardless
    auto ex = MakeExchange(in, input, opts);
    const auto got = Flatten(Drain(ex.get()), 0);
    EXPECT_EQ(in == Input::kChild ? got : Sorted(got), input);
    const ExchangeRunStats& rs = ex->run_stats();
    EXPECT_EQ(rs.blocks_in, kBlocks);
    ASSERT_EQ(rs.workers.size(), 4u);
    uint64_t worker_blocks = 0, worker_rows = 0;
    for (const ExchangeWorkerStats& w : rs.workers) {
      worker_blocks += w.blocks;
      worker_rows += w.rows_emitted;
    }
    EXPECT_EQ(worker_blocks, kBlocks);
    EXPECT_EQ(worker_rows, input.size());
  }
}

/// Flags whether Open/Close were forwarded (regression harness for Limit's
/// early child shutdown).
class ProbeSource : public Operator {
 public:
  ProbeSource(std::unique_ptr<Operator> inner, bool* opened, bool* closed)
      : inner_(std::move(inner)), opened_(opened), closed_(closed) {}
  Status Open() override {
    *opened_ = true;
    return inner_->Open();
  }
  Status Next(Block* b, bool* eos) override { return inner_->Next(b, eos); }
  void Close() override {
    *closed_ = true;
    inner_->Close();
  }
  const Schema& output_schema() const override {
    return inner_->output_schema();
  }

 private:
  std::unique_ptr<Operator> inner_;
  bool* opened_;
  bool* closed_;
};

TEST(Limit, ClosesChildAsSoonAsLimitIsReached) {
  bool opened = false, closed = false;
  Limit limit(std::make_unique<ProbeSource>(
                  VectorSource::Ints({{"x", Ramp(8 * kBlockSize)}}), &opened,
                  &closed),
              kBlockSize + 5);
  ASSERT_TRUE(limit.Open().ok());
  EXPECT_TRUE(opened);
  Block b;
  bool eos = false;
  ASSERT_TRUE(limit.Next(&b, &eos).ok());
  ASSERT_FALSE(eos);
  EXPECT_FALSE(closed);  // limit not reached yet
  ASSERT_TRUE(limit.Next(&b, &eos).ok());
  ASSERT_FALSE(eos);
  EXPECT_EQ(b.rows(), 5u);   // truncated to the limit...
  EXPECT_TRUE(closed);       // ...and the child is already shut down
  ASSERT_TRUE(limit.Next(&b, &eos).ok());
  EXPECT_TRUE(eos);
  limit.Close();  // idempotent: the child must not be closed twice
}

TEST(Limit, ZeroNeverOpensChild) {
  bool opened = false, closed = false;
  Limit limit(std::make_unique<ProbeSource>(
                  VectorSource::Ints({{"x", Ramp(kBlockSize)}}), &opened,
                  &closed),
              0);
  ASSERT_TRUE(limit.Open().ok());
  EXPECT_FALSE(opened);
  Block b;
  bool eos = false;
  ASSERT_TRUE(limit.Next(&b, &eos).ok());
  EXPECT_TRUE(eos);
  limit.Close();
  EXPECT_FALSE(opened);
  EXPECT_FALSE(closed);  // never opened, so never closed
}

TEST(Limit, OverExchangeStopsWorkersEarly) {
  // A small LIMIT over a many-block Exchange: reaching the limit must abort
  // the exchange mid-stream instead of letting the producer pump all input
  // through the queues.
  const size_t kBlocks = 4 * kPartitionBlocks;
  for (const Input in : kInputs) {
    SCOPED_TRACE(InputName(in));
    ExchangeOptions opts;
    opts.workers = 4;
    opts.order_preserving = true;
    auto exchange = MakeExchange(in, Ramp(kBlocks * kBlockSize), opts);
    Exchange* raw = exchange.get();
    Limit limit(std::move(exchange), kBlockSize / 2);
    std::vector<Block> out;
    ASSERT_TRUE(DrainOperator(&limit, &out).ok());
    size_t rows = 0;
    for (const Block& b : out) rows += b.rows();
    EXPECT_EQ(rows, kBlockSize / 2);
    // The exchange was closed after one output block; the producer (or the
    // partitions) cannot have admitted more than the in-flight bound past
    // the one block consumed, however large the input.
    EXPECT_LE(raw->run_stats().blocks_in, kInFlightBound + 1);
  }
}

TEST(Exchange, NestedExchangeOnPoolOfOneCompletes) {
  // Exchange over Exchange: the outer producer runs as a pool task and
  // consumes the inner exchange from a worker thread. With a single-worker
  // pool this deadlocks unless the inner consumer helps the pool (or the
  // inner exchange degraded to inline mode); either way the rows must all
  // come through (in order, unless the inner exchange is partitioned).
  TaskScheduler pool(1);
  TaskScheduler::ScopedOverride ov(&pool);
  const auto input = Ramp(2 * kPartitionBlocks * kBlockSize);
  for (const Input in : kInputs) {
    SCOPED_TRACE(InputName(in));
    ExchangeOptions inner_opts;
    inner_opts.workers = 2;
    inner_opts.order_preserving = true;
    auto inner = MakeExchange(in, input, inner_opts);
    ExchangeOptions outer_opts;
    outer_opts.workers = 2;
    outer_opts.order_preserving = true;
    Exchange outer(std::move(inner), outer_opts);
    const auto got = Flatten(Drain(&outer), 0);
    EXPECT_EQ(in == Input::kChild ? got : Sorted(got), input);
  }
}

TEST(Exchange, ConcurrentExchangesShareOnePool) {
  // Eight ordered exchanges race on a pool of two; every one must still
  // deliver its own input intact — the scheduler's round-robin may starve
  // none of them.
  TaskScheduler pool(2);
  TaskScheduler::ScopedOverride ov(&pool);
  const Status st = testutil::RunConcurrently(8, [&](int t) -> Status {
    const auto input = Ramp(12 * kBlockSize);
    ExchangeOptions opts;
    opts.workers = 3;
    opts.order_preserving = true;
    opts.transform = KeepEven();
    Exchange ex(VectorSource::Ints({{"x", input}}), opts);
    std::vector<Block> blocks;
    TDE_RETURN_NOT_OK(DrainOperator(&ex, &blocks));
    const auto got = Flatten(blocks, 0);
    if (got.size() != input.size() / 2) {
      return Status::Internal("thread " + std::to_string(t) + ": got " +
                              std::to_string(got.size()) + " rows, want " +
                              std::to_string(input.size() / 2));
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i] != static_cast<Lane>(2 * i)) {
        return Status::Internal("thread " + std::to_string(t) +
                                ": wrong value at row " + std::to_string(i));
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(Exchange, AutoWorkerCountFollowsThePool) {
  // workers == 0 resolves against the shared pool's suggested share.
  TaskScheduler pool(8);
  TaskScheduler::ScopedOverride ov(&pool);
  const auto input = Ramp(6 * kBlockSize);
  ExchangeOptions opts;
  opts.workers = 0;
  opts.order_preserving = true;
  Exchange ex(VectorSource::Ints({{"x", input}}), opts);
  ASSERT_TRUE(ex.Open().ok());
  Block b;
  bool eos = false;
  std::vector<Lane> got;
  while (true) {
    ASSERT_TRUE(ex.Next(&b, &eos).ok());
    if (eos) break;
    got.insert(got.end(), b.columns[0].lanes.begin(),
               b.columns[0].lanes.end());
  }
  ex.Close();
  EXPECT_EQ(got, input);
  EXPECT_EQ(ex.run_stats().workers.size(),
            static_cast<size_t>(pool.SuggestedQueryParallelism()));
}

}  // namespace
}  // namespace tde
