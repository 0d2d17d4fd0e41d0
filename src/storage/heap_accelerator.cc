#include "src/storage/heap_accelerator.h"

namespace tde {

HeapAccelerator::HeapAccelerator(StringHeap* heap, uint64_t give_up_threshold)
    : heap_(heap), threshold_(give_up_threshold) {
  slots_.resize(1u << 10);
  mask_ = slots_.size() - 1;
}

Lane HeapAccelerator::Add(std::string_view s) {
  Lane token;
  if (!active_) {
    token = heap_->Add(s);
  } else {
    const uint64_t h = CollationHash(Collation::kBinary, s);
    Slot& slot = SlotFor(s, h);
    if (slot.token == kFreeToken) {
      slot = {h, heap_->Add(s)};
      ++distinct_;
    }
    token = slot.token;
    if (distinct_ > threshold_) {
      // Past the threshold hashing stops paying for itself (Sect. 5.1.4).
      active_ = false;
      slots_.clear();
      slots_.shrink_to_fit();
    }
  }
  if (have_prev_ && arrived_sorted_) {
    if (Collate(heap_->collation(), heap_->Get(prev_token_), heap_->Get(token)) >
        0) {
      arrived_sorted_ = false;
    }
  }
  prev_token_ = token;
  have_prev_ = true;
  return token;
}

void HeapAccelerator::IndexExisting() {
  for (const Lane token : heap_->AllTokens()) {
    const std::string_view s = heap_->Get(token);
    const uint64_t h = CollationHash(Collation::kBinary, s);
    Slot& slot = SlotFor(s, h);
    if (slot.token == kFreeToken) {
      slot = {h, token};
      ++distinct_;
    }
  }
}

HeapAccelerator::Slot& HeapAccelerator::SlotFor(std::string_view s,
                                                uint64_t hash) {
  if ((distinct_ + 1) * 2 > slots_.size()) Grow();
  uint64_t idx = hash & mask_;
  while (slots_[idx].token != kFreeToken &&
         !(slots_[idx].hash == hash && heap_->Get(slots_[idx].token) == s)) {
    idx = (idx + 1) & mask_;
  }
  return slots_[idx];
}

void HeapAccelerator::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.token == kFreeToken) continue;
    uint64_t idx = s.hash & mask_;
    while (slots_[idx].token != kFreeToken) idx = (idx + 1) & mask_;
    slots_[idx] = s;
  }
}

}  // namespace tde
