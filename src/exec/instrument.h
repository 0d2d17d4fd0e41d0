#ifndef TDE_EXEC_INSTRUMENT_H_
#define TDE_EXEC_INSTRUMENT_H_

#include <functional>
#include <memory>
#include <utility>

#include "src/exec/block.h"
#include "src/observe/query_stats.h"

namespace tde {

/// The uniform operator instrumentation wrapper: forwards Open/Next/Close
/// to the wrapped operator and records wall-time, emitted blocks and rows
/// into an OperatorStats node. The executor wraps every lowered operator
/// with one of these (when stats are enabled), so the whole tree reports
/// per-operator numbers without any operator knowing about it.
///
/// Times are inclusive of the subtree — an operator pulls its children
/// from inside its own Next —, so self time is derived by subtracting the
/// children's totals (OperatorStats::self_ns).
class Instrumented : public Operator {
 public:
  /// `on_close` runs once, right after the wrapped operator's Close, with
  /// the stats node — the hook operators export what they observed while
  /// running through: run-time query counts and extras such as Exchange
  /// worker counters.
  Instrumented(std::unique_ptr<Operator> op,
               std::shared_ptr<observe::OperatorStats> stats,
               std::function<void(observe::OperatorStats*)> on_close = {})
      : op_(std::move(op)),
        stats_(std::move(stats)),
        on_close_(std::move(on_close)) {}

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override;
  const Schema& output_schema() const override {
    return op_->output_schema();
  }

  const observe::OperatorStats& stats() const { return *stats_; }
  Operator* inner() const { return op_.get(); }

 private:
  std::unique_ptr<Operator> op_;
  std::shared_ptr<observe::OperatorStats> stats_;
  std::function<void(observe::OperatorStats*)> on_close_;
  bool closed_ = false;
};

/// Strips instrumentation wrappers from `op` — for code (tests, benches)
/// that inspects the concrete operator the executor produced.
Operator* Unwrap(Operator* op);

}  // namespace tde

#endif  // TDE_EXEC_INSTRUMENT_H_
