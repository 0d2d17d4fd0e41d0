#include "src/exec/instrument.h"

#include <chrono>

#include "src/observe/trace.h"

namespace tde {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Status Instrumented::Open() {
  closed_ = false;
  const uint64_t t0 = NowNs();
  Status st = op_->Open();
  stats_->open_ns += NowNs() - t0;
  return st;
}

Status Instrumented::Next(Block* block, bool* eos) {
  const uint64_t t0 = NowNs();
  Status st = op_->Next(block, eos);
  stats_->next_ns += NowNs() - t0;
  if (st.ok() && !*eos) {
    const uint64_t rows = block->rows();
    if (rows > 0) {
      ++stats_->blocks;
      stats_->rows += rows;
    }
  }
  return st;
}

void Instrumented::Close() {
  if (closed_) return;
  closed_ = true;
  const uint64_t t0 = NowNs();
  op_->Close();
  stats_->close_ns += NowNs() - t0;
  if (on_close_) on_close_(stats_.get());
  // One trace slice per operator lifetime: offset back from "now" by the
  // operator's inclusive runtime so concurrent tracks line up sensibly.
  observe::TraceRecorder& rec = observe::TraceRecorder::Global();
  if (rec.enabled()) {
    observe::TraceEvent e;
    e.name = stats_->name;
    e.category = "operator";
    const uint64_t now_us = rec.NowMicros();
    const uint64_t dur_us = stats_->total_ns() / 1000;
    e.start_us = now_us > dur_us ? now_us - dur_us : 0;
    e.dur_us = dur_us;
    rec.Record(std::move(e));
  }
}

Operator* Unwrap(Operator* op) {
  while (auto* w = dynamic_cast<Instrumented*>(op)) op = w->inner();
  return op;
}

}  // namespace tde
