#include "src/exec/exchange.h"

#include <chrono>
#include <condition_variable>
#include <thread>

#include "src/observe/journal.h"

namespace tde {

namespace {
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

struct Exchange::Shared {
  std::mutex mu;
  std::condition_variable cv_output;

  // Producer -> transform tasks (child mode).
  std::deque<std::pair<uint64_t, Block>> input;
  bool producer_done = false;       // child mode: eos, error or abort seen
  uint64_t pending_transforms = 0;  // transform tasks submitted, unfinished
  int partitions_active = 0;        // partition mode: sources still draining
  // Workers -> consumer, keyed by sequence number.
  std::map<uint64_t, Block> output;
  std::deque<Block> unordered_output;
  Status error;
  bool stop = false;
  // Blocks admitted by the producer / emitted to the consumer. Their
  // difference is the total number of blocks in flight (input queue +
  // workers + output), which is what the admission bound limits — so any
  // admitted block can always be pushed to the output side and the
  // order-preserving merge can never wedge on a bounded output queue.
  uint64_t admitted = 0;
  uint64_t emitted = 0;

  // Parked tasks: a producer/partition out of in-flight headroom exits its
  // task (never blocks a pool slot) and records itself here; the consumer
  // resubmits it as emits free headroom.
  bool producer_parked = false;
  uint64_t producer_parked_at = 0;
  std::deque<size_t> parked_partitions;
  std::vector<uint64_t> partition_parked_at;

  // Open() ran on a pool worker (nested exchange): degrade to synchronous
  // pass-through so a fixed pool can never deadlock on itself.
  bool inline_mode = false;

  static constexpr uint64_t kInFlightLimit = 32;
  // Blocks a producer/partition task processes before resubmitting itself,
  // so the scheduler's round-robin can interleave other groups' work.
  static constexpr int kTaskQuantum = 8;

  /// True when producer and workers should cease (abort or failure).
  bool aborted() const { return stop || !error.ok(); }
  bool headroom() const { return admitted - emitted < kInFlightLimit; }
};

Exchange::Exchange(std::unique_ptr<Operator> child, ExchangeOptions options)
    : child_(std::move(child)), options_(std::move(options)) {}

Exchange::Exchange(std::vector<std::unique_ptr<Operator>> partitions,
                   ExchangeOptions options)
    : partitions_(std::move(partitions)), options_(std::move(options)) {
  // Partitions drain independently and interleave as they finish; there is
  // no global sequence numbering to restore, so ordered merge is off.
  options_.order_preserving = false;
  options_.workers = static_cast<int>(partitions_.size());
}

Exchange::~Exchange() { StopTasks(); }

Status Exchange::Open() {
  shared_ = std::make_unique<Shared>();
  next_to_emit_ = 0;
  inline_partition_ = 0;
  run_stats_ = ExchangeRunStats{};
  scheduler_ = &TaskScheduler::Global();
  nslots_ = options_.workers > 0 ? options_.workers
                                 : scheduler_->SuggestedQueryParallelism();
  run_stats_.workers.resize(static_cast<size_t>(nslots_));
  shared_->inline_mode = TaskScheduler::OnWorkerThread();
  // The task group adopts the opening thread's query scope, so the
  // counters pool workers bump on our behalf (scan bytes, pager faults,
  // prunes) are attributed to the query that opened the exchange.
  if (!partitions_.empty()) {
    shared_->partitions_active = static_cast<int>(partitions_.size());
    shared_->partition_parked_at.assign(partitions_.size(), 0);
    for (auto& p : partitions_) TDE_RETURN_NOT_OK(p->Open());
    if (!shared_->inline_mode) {
      group_ = scheduler_->CreateGroup();
      for (size_t i = 0; i < partitions_.size(); ++i) {
        group_->Submit([this, i]() { PartitionStep(i); });
      }
    }
    return Status::OK();
  }
  TDE_RETURN_NOT_OK(child_->Open());
  if (!shared_->inline_mode) {
    group_ = scheduler_->CreateGroup();
    group_->Submit([this]() { ProducerStep(); });
  }
  return Status::OK();
}

void Exchange::ProducerStep() {
  for (int q = 0; q < Shared::kTaskQuantum; ++q) {
    {
      std::unique_lock<std::mutex> lock(shared_->mu);
      if (shared_->aborted()) {
        shared_->producer_done = true;
        shared_->cv_output.notify_all();
        return;
      }
      // Admission control: park until there is in-flight headroom before
      // pulling the next block from the child, so an aborted or slow
      // consumer never lets queued blocks grow without bound.
      if (!shared_->headroom()) {
        shared_->producer_parked = true;
        shared_->producer_parked_at = NowNs();
        return;  // the consumer resubmits us as it frees a slot
      }
    }
    Block b;
    bool eos = false;
    Status st = child_->Next(&b, &eos);
    std::unique_lock<std::mutex> lock(shared_->mu);
    if (!st.ok() || eos) {
      if (!st.ok() && shared_->error.ok()) shared_->error = st;
      shared_->producer_done = true;
      shared_->cv_output.notify_all();
      return;
    }
    shared_->input.emplace_back(shared_->admitted++, std::move(b));
    run_stats_.blocks_in++;
    shared_->pending_transforms++;
    const uint64_t submit_ns = NowNs();
    group_->Submit([this, submit_ns]() { TransformTask(submit_ns); });
  }
  group_->Submit([this]() { ProducerStep(); });  // yield to other groups
}

void Exchange::TransformTask(uint64_t submit_ns) {
  std::pair<uint64_t, Block> item;
  {
    std::unique_lock<std::mutex> lock(shared_->mu);
    if (shared_->aborted() || shared_->input.empty()) {
      shared_->pending_transforms--;
      shared_->cv_output.notify_all();
      return;
    }
    item = std::move(shared_->input.front());
    shared_->input.pop_front();
    // Attribute the scheduler's submit-to-start delay as this virtual
    // worker's input wait.
    run_stats_.workers[item.first % static_cast<uint64_t>(nslots_)]
        .queue_wait_ns += NowNs() - submit_ns;
  }
  Status st;
  if (options_.transform) {
    st = options_.transform(child_->output_schema(), &item.second);
  }
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->pending_transforms--;
  if (!st.ok()) {
    if (shared_->error.ok()) shared_->error = st;
  } else {
    ExchangeWorkerStats& ws =
        run_stats_.workers[item.first % static_cast<uint64_t>(nslots_)];
    ws.blocks++;
    ws.rows_emitted += item.second.rows();
    if (options_.order_preserving) {
      shared_->output.emplace(item.first, std::move(item.second));
    } else {
      shared_->unordered_output.push_back(std::move(item.second));
    }
  }
  shared_->cv_output.notify_all();
}

void Exchange::PartitionStep(size_t partition_index) {
  Operator* source = partitions_[partition_index].get();
  for (int q = 0; q < Shared::kTaskQuantum; ++q) {
    {
      // Same admission bound as the shared-queue mode: a partition
      // reserves in-flight headroom before pulling its next block, so a
      // slow consumer throttles all partitions instead of buffering them.
      std::unique_lock<std::mutex> lock(shared_->mu);
      if (shared_->aborted()) {
        --shared_->partitions_active;
        shared_->cv_output.notify_all();
        return;
      }
      if (!shared_->headroom()) {
        shared_->parked_partitions.push_back(partition_index);
        shared_->partition_parked_at[partition_index] = NowNs();
        return;  // the consumer resubmits us as it frees a slot
      }
      ++shared_->admitted;
    }
    Block b;
    bool eos = false;
    Status st = source->Next(&b, &eos);
    if (st.ok() && !eos && options_.transform) {
      st = options_.transform(source->output_schema(), &b);
    }
    std::unique_lock<std::mutex> lock(shared_->mu);
    if (!st.ok() || eos) {
      --shared_->admitted;  // the reserved slot was never filled
      if (!st.ok() && shared_->error.ok()) shared_->error = st;
      --shared_->partitions_active;
      shared_->cv_output.notify_all();
      return;
    }
    ExchangeWorkerStats& ws = run_stats_.workers[partition_index];
    run_stats_.blocks_in++;
    ws.blocks++;
    ws.rows_emitted += b.rows();
    shared_->unordered_output.push_back(std::move(b));
    shared_->cv_output.notify_all();
  }
  group_->Submit([this, partition_index]() { PartitionStep(partition_index); });
}

void Exchange::UnparkForHeadroomLocked() {
  if (shared_->aborted() || !shared_->headroom()) return;
  if (shared_->producer_parked) {
    shared_->producer_parked = false;
    run_stats_.producer_wait_ns += NowNs() - shared_->producer_parked_at;
    group_->Submit([this]() { ProducerStep(); });
    return;
  }
  if (!shared_->parked_partitions.empty()) {
    const size_t i = shared_->parked_partitions.front();
    shared_->parked_partitions.pop_front();
    run_stats_.workers[i].queue_wait_ns +=
        NowNs() - shared_->partition_parked_at[i];
    group_->Submit([this, i]() { PartitionStep(i); });
  }
}

Status Exchange::NextInline(Block* block, bool* eos) {
  if (!shared_->error.ok()) return shared_->error;
  if (shared_->stop) {
    *eos = true;
    return Status::OK();
  }
  if (child_ != nullptr) {
    Block b;
    bool child_eos = false;
    Status st = child_->Next(&b, &child_eos);
    if (st.ok() && !child_eos && options_.transform) {
      st = options_.transform(child_->output_schema(), &b);
    }
    if (!st.ok()) {
      shared_->error = st;
      return st;
    }
    if (child_eos) {
      *eos = true;
      return Status::OK();
    }
    ExchangeWorkerStats& ws =
        run_stats_.workers[run_stats_.blocks_in %
                           static_cast<uint64_t>(nslots_)];
    run_stats_.blocks_in++;
    ws.blocks++;
    ws.rows_emitted += b.rows();
    *block = std::move(b);
    *eos = false;
    return Status::OK();
  }
  while (inline_partition_ < partitions_.size()) {
    Operator* source = partitions_[inline_partition_].get();
    Block b;
    bool part_eos = false;
    Status st = source->Next(&b, &part_eos);
    if (st.ok() && !part_eos && options_.transform) {
      st = options_.transform(source->output_schema(), &b);
    }
    if (!st.ok()) {
      shared_->error = st;
      return st;
    }
    if (part_eos) {
      ++inline_partition_;
      continue;
    }
    ExchangeWorkerStats& ws = run_stats_.workers[inline_partition_];
    run_stats_.blocks_in++;
    ws.blocks++;
    ws.rows_emitted += b.rows();
    *block = std::move(b);
    *eos = false;
    return Status::OK();
  }
  *eos = true;
  return Status::OK();
}

Status Exchange::Next(Block* block, bool* eos) {
  if (shared_ == nullptr) {
    return Status::Internal("Exchange::Next before successful Open");
  }
  if (shared_->inline_mode) return NextInline(block, eos);
  std::unique_lock<std::mutex> lock(shared_->mu);
  while (true) {
    if (!shared_->error.ok()) return shared_->error;
    if (shared_->stop) {
      *eos = true;
      return Status::OK();
    }
    if (options_.order_preserving) {
      auto it = shared_->output.find(next_to_emit_);
      if (it != shared_->output.end()) {
        *block = std::move(it->second);
        shared_->output.erase(it);
        ++next_to_emit_;
        ++shared_->emitted;
        UnparkForHeadroomLocked();
        *eos = false;
        return Status::OK();
      }
    } else if (!shared_->unordered_output.empty()) {
      *block = std::move(shared_->unordered_output.front());
      shared_->unordered_output.pop_front();
      ++shared_->emitted;
      UnparkForHeadroomLocked();
      *eos = false;
      return Status::OK();
    }
    const bool work_done =
        child_ != nullptr
            ? (shared_->producer_done && shared_->pending_transforms == 0)
            : shared_->partitions_active == 0;
    if (work_done && shared_->input.empty()) {
      // Order-preserving: any remaining out-of-order blocks are complete.
      if (options_.order_preserving && !shared_->output.empty()) {
        auto it = shared_->output.begin();
        *block = std::move(it->second);
        shared_->output.erase(it);
        *eos = false;
        return Status::OK();
      }
      *eos = true;
      return Status::OK();
    }
    const uint64_t t0 = NowNs();
    if (TaskScheduler::OnWorkerThread()) {
      // Consuming from a pool thread (nested exchange): run pool tasks
      // ourselves instead of blocking a fixed-pool slot on work that may
      // be queued behind us.
      lock.unlock();
      if (!scheduler_->TryRunOneTask()) std::this_thread::yield();
      lock.lock();
    } else {
      shared_->cv_output.wait(lock);
    }
    run_stats_.consumer_wait_ns += NowNs() - t0;
  }
}

void Exchange::StopTasks() {
  if (shared_ == nullptr) return;
  {
    std::unique_lock<std::mutex> lock(shared_->mu);
    shared_->stop = true;
    shared_->cv_output.notify_all();
  }
  if (group_ != nullptr) {
    // Queued tasks retire unrun; in-flight ones observe the stop flag at
    // their next lock point. Wait() helps drain, so this cannot wedge even
    // when the pool is saturated by other queries.
    group_->Cancel();
    group_->Wait();
    run_stats_.task_ns = group_->stats().run_ns;
    group_.reset();
  }
}

void Exchange::Close() {
  StopTasks();
  if (child_ != nullptr) child_->Close();
  for (auto& p : partitions_) p->Close();
}

}  // namespace tde
