#ifndef TDE_STORAGE_TABLE_H_
#define TDE_STORAGE_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/column.h"
#include "src/storage/schema.h"

namespace tde {

/// A read-only structure derived from a table's rows (a join's key index),
/// kept with the table so that the queries reading it share one build.
class TableIndex {
 public:
  TableIndex() = default;
  virtual ~TableIndex() = default;
  TableIndex(const TableIndex&) = delete;
  TableIndex& operator=(const TableIndex&) = delete;
};

/// A read-only table: a set of independently compressed/encoded columns of
/// equal row count.
class Table {
 public:
  explicit Table(std::string name = "") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  size_t num_columns() const { return columns_.size(); }
  uint64_t rows() const {
    return columns_.empty() ? 0 : columns_[0]->rows();
  }

  const Column& column(size_t i) const { return *columns_[i]; }
  Column* mutable_column(size_t i) { return columns_[i].get(); }
  std::shared_ptr<Column> column_ptr(size_t i) const { return columns_[i]; }

  void AddColumn(std::shared_ptr<Column> c) { columns_.push_back(std::move(c)); }

  Result<size_t> ColumnIndex(const std::string& name) const;
  Result<std::shared_ptr<Column>> ColumnByName(const std::string& name) const;

  Schema GetSchema() const;

  /// Total serialized bytes of all columns.
  uint64_t PhysicalSize() const;
  /// Total un-encoded bytes of all columns.
  uint64_t LogicalSize() const;

  using IndexBuilder =
      std::function<Result<std::shared_ptr<const TableIndex>>()>;

  /// The index kept under `key`, made by `build` on first use. Callers
  /// that ask for one key at once get one build: the others wait for it and
  /// share it. A failed build keeps nothing. `*built` tells whether this
  /// call built the index.
  Result<std::shared_ptr<const TableIndex>> GetOrBuildIndex(
      const std::string& key, const IndexBuilder& build, bool* built) const;

  /// Forgets every kept index. Whatever changes rows in place
  /// (Engine::AppendRows, Engine::OptimizeTable) calls it while it excludes
  /// queries; a query that still holds an index keeps its copy alive.
  void DropIndexes() const;

 private:
  struct IndexSlot {
    std::mutex build_mu;  // held while the index builds
    std::shared_ptr<const TableIndex> index;
  };

  std::string name_;
  std::vector<std::shared_ptr<Column>> columns_;
  mutable std::mutex index_mu_;  // guards indexes_ (not the slots' builds)
  mutable std::map<std::string, std::shared_ptr<IndexSlot>> indexes_;
};

}  // namespace tde

#endif  // TDE_STORAGE_TABLE_H_
