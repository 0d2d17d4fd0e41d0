#ifndef TDE_EXEC_EXCHANGE_H_
#define TDE_EXEC_EXCHANGE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/scheduler.h"

namespace tde {

/// A per-block transformation applied by exchange workers (e.g. the
/// parallelized filter of the Sect. 4.3 example). Receives the block and
/// the child's schema; may shrink or rewrite it.
using BlockTransform =
    std::function<Status(const Schema& schema, Block* block)>;

struct ExchangeOptions {
  /// Virtual worker count (stats slots + max in-flight transforms).
  /// <= 0 derives it from the shared pool's size, clamped so one query
  /// cannot monopolize the pool (TaskScheduler::SuggestedQueryParallelism).
  int workers = 0;
  /// Order-preserving routing (Sect. 4.3): number the blocks and output
  /// them in order, so downstream encodings are not degraded by block
  /// reordering. The paper measured a 10-15% overhead for this constraint.
  bool order_preserving = true;
  BlockTransform transform;  // identity if empty
};

/// Per-worker observations of one Exchange run.
struct ExchangeWorkerStats {
  uint64_t blocks = 0;        // blocks this worker processed
  uint64_t rows_emitted = 0;  // rows it pushed downstream (post-transform)
  uint64_t queue_wait_ns = 0; // time spent waiting for input / pool slots
};

/// Observations of one Exchange run, final once Close() has retired the
/// task group. The queue-wait numbers are the paper's Sect. 4.3 cost model
/// made visible: how much of the wall time each side spent blocked on the
/// in-flight bound rather than doing work.
struct ExchangeRunStats {
  uint64_t blocks_in = 0;          // blocks admitted from the child
  uint64_t producer_wait_ns = 0;   // producer blocked on the bound
  uint64_t consumer_wait_ns = 0;   // consumer blocked waiting for output
  uint64_t task_ns = 0;            // the pool tasks' run time, summed
  std::vector<ExchangeWorkerStats> workers;
};

/// Volcano-style exchange (Sect. 2.3.1, [Graefe 90]): parallelizes a flow
/// segment by fanning blocks out to workers and merging their outputs.
/// With order_preserving off, blocks are emitted as workers complete
/// them — faster, but it disturbs value order and can make the downstream
/// encodings much worse (Sect. 4.3).
///
/// Execution rides the shared TaskScheduler pool instead of spawning
/// threads: Open() creates one task group and submits a self-resubmitting
/// producer task (which fans each admitted block out as a one-block
/// transform task) or, in partition mode, one self-resubmitting task per
/// partition. Tasks never block the pool — a producer/partition out of
/// in-flight headroom parks (returns) and the consumer resubmits it as it
/// frees a slot. `workers` is a *virtual* width (stats slots and fan-out
/// granularity); actual concurrency is whatever slice of the pool the
/// scheduler grants this group. When Open() itself runs on a pool worker
/// (nested exchange), the operator degrades to inline pass-through, and a
/// consumer waiting on a pool thread helps the pool instead of blocking a
/// slot — both keep a fixed pool deadlock-free.
///
/// Total blocks in flight (input queue + workers + output) are bounded, so
/// a slow consumer cannot balloon memory; a worker/transform error stops
/// the producer and workers early; and Close() mid-stream (a query abort)
/// or after an error cancels and drains the task group without deadlock.
class Exchange : public Operator {
 public:
  Exchange(std::unique_ptr<Operator> child, ExchangeOptions options);

  /// Partitioned exchange: one worker per partition, each draining its
  /// own source operator — no shared producer queue, so workers never
  /// contend for input. The lowering makes each partition a copy of the
  /// input chain over a disjoint share of its scan's segment morsels.
  /// Inherently unordered (partitions interleave as they finish);
  /// order_preserving is forced off. `partitions` must be non-empty;
  /// options.workers is overridden to the partition count.
  Exchange(std::vector<std::unique_ptr<Operator>> partitions,
           ExchangeOptions options);
  ~Exchange() override;

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override;
  const Schema& output_schema() const override {
    return child_ != nullptr ? child_->output_schema()
                             : partitions_.front()->output_schema();
  }

  /// Run observations; final once Close() (or the destructor) has retired
  /// the task group.
  const ExchangeRunStats& run_stats() const { return run_stats_; }

 private:
  struct Shared;
  void ProducerStep();
  void PartitionStep(size_t partition_index);
  void TransformTask(uint64_t submit_ns);
  Status NextInline(Block* block, bool* eos);
  void UnparkForHeadroomLocked();
  void StopTasks();

  std::unique_ptr<Operator> child_;            // null in partition mode
  std::vector<std::unique_ptr<Operator>> partitions_;
  ExchangeOptions options_;
  TaskScheduler* scheduler_ = nullptr;
  std::shared_ptr<TaskScheduler::Group> group_;
  std::unique_ptr<Shared> shared_;
  int nslots_ = 0;  // resolved virtual worker count (stats slots)
  uint64_t next_to_emit_ = 0;
  size_t inline_partition_ = 0;  // inline mode: partition being drained
  ExchangeRunStats run_stats_;
};

}  // namespace tde

#endif  // TDE_EXEC_EXCHANGE_H_
