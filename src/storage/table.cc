#include "src/storage/table.h"

namespace tde {

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i]->name() == name) return i;
  }
  return {Status::NotFound("table '" + name_ + "' has no column '" + name +
                           "'")};
}

Result<std::shared_ptr<Column>> Table::ColumnByName(
    const std::string& name) const {
  TDE_ASSIGN_OR_RETURN(size_t i, ColumnIndex(name));
  return columns_[i];
}

Schema Table::GetSchema() const {
  Schema s;
  for (const auto& c : columns_) {
    s.AddField({c->name(), c->type()});
  }
  return s;
}

uint64_t Table::PhysicalSize() const {
  uint64_t n = 0;
  for (const auto& c : columns_) n += c->PhysicalSize();
  return n;
}

uint64_t Table::LogicalSize() const {
  uint64_t n = 0;
  for (const auto& c : columns_) n += c->LogicalSize();
  return n;
}

Result<std::shared_ptr<const TableIndex>> Table::GetOrBuildIndex(
    const std::string& key, const IndexBuilder& build, bool* built) const {
  std::shared_ptr<IndexSlot> slot;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    std::shared_ptr<IndexSlot>& s = indexes_[key];
    if (s == nullptr) s = std::make_shared<IndexSlot>();
    slot = s;
  }
  // One build per slot: a concurrent first user blocks here until the
  // builder is done, then finds its index.
  std::lock_guard<std::mutex> lock(slot->build_mu);
  *built = false;
  if (slot->index != nullptr) return slot->index;
  TDE_ASSIGN_OR_RETURN(std::shared_ptr<const TableIndex> index, build());
  slot->index = index;
  *built = true;
  return index;
}

void Table::DropIndexes() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  indexes_.clear();
}

}  // namespace tde
