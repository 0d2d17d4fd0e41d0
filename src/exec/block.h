#ifndef TDE_EXEC_BLOCK_H_
#define TDE_EXEC_BLOCK_H_

#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/storage/dictionary.h"
#include "src/storage/schema.h"
#include "src/storage/string_heap.h"

namespace tde {

/// One column's worth of a row block: 64-bit lanes plus the dictionary
/// context needed to interpret them. String lanes are heap tokens. A
/// column a scan emits as codes (group keys of the dict-grouping rewrite,
/// the joined column of an invisible join) carries dense dictionary codes
/// with `dict` mapping code -> lane: a heap token (plus `heap`) or an
/// array-dictionary value.
struct ColumnVector {
  TypeId type = TypeId::kInteger;
  std::vector<Lane> lanes;
  std::shared_ptr<const StringHeap> heap;        // string token context
  std::shared_ptr<const ArrayDictionary> dict;   // index token context

  /// Resolves lane i to its string (heap must be set).
  std::string_view GetString(size_t i) const { return heap->Get(lanes[i]); }
};

/// Ids of selected rows within a block, ascending and distinct.
using SelectionVector = std::vector<uint32_t>;

/// A block of rows (Sect. 2.3.1): the unit passed between Volcano-style
/// flow operators. At most kBlockSize rows.
struct Block {
  std::vector<ColumnVector> columns;

  size_t rows() const { return columns.empty() ? 0 : columns[0].lanes.size(); }
  size_t num_columns() const { return columns.size(); }

  void Clear() {
    for (auto& c : columns) c.lanes.clear();
  }

  /// Keeps only the rows listed in `sel` (all columns).
  void Compact(const SelectionVector& sel);
};

/// The block-iterated Volcano operator interface (Sect. 2.3.1). Flow
/// operators process one block at a time; stop-and-go operators (Sort,
/// FlowTable) consume their whole input inside Open()/first Next().
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  virtual Status Open() = 0;

  /// Produces the next block. Sets *eos once the stream is exhausted (a
  /// block returned alongside *eos == true is empty).
  virtual Status Next(Block* block, bool* eos) = 0;

  virtual void Close() {}

  /// Names and types of the produced columns.
  virtual const Schema& output_schema() const = 0;

 protected:
  Operator() = default;
};

/// Drains an operator into a vector of blocks (test/utility helper).
Status DrainOperator(Operator* op, std::vector<Block>* out);

}  // namespace tde

#endif  // TDE_EXEC_BLOCK_H_
