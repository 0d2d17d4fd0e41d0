#ifndef TDE_EXEC_HASH_JOIN_H_
#define TDE_EXEC_HASH_JOIN_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/expression.h"
#include "src/storage/table.h"

namespace tde {

/// The join implementation the tactical optimizer picks at Open() time
/// (Sect. 2.3.4-2.3.5): a fetch join when the inner key is an affine
/// function of the row id (dense/unique metadata), otherwise a hash join
/// whose hash algorithm depends on the key width and range.
enum class JoinStrategy : uint8_t {
  kFetch = 0,
  kHashDirect = 1,
  kHashPerfect = 2,
  kHashCollision = 3,
};

const char* JoinStrategyName(JoinStrategy s);

/// The tactical choice for joining against `inner_key` of `inner`, plus
/// the affine parameters when a fetch join applies. Exposed so EXPLAIN can
/// report the decision without executing.
struct JoinStrategyChoice {
  JoinStrategy strategy = JoinStrategy::kHashCollision;
  int64_t fetch_base = 0;
  int64_t fetch_delta = 1;
};
Result<JoinStrategyChoice> ChooseJoinStrategy(const Table& inner,
                                              const std::string& inner_key);

struct HashJoinOptions {
  /// Join key column in the outer (flow) input.
  std::string outer_key;
  /// Join key column in the inner (stop-and-go) table; must be unique —
  /// the TDE uses these joins for many-to-one expansion.
  std::string inner_key;
  /// Inner columns attached to matching rows (empty = none: pure
  /// semi-join filtering, as in pushed-down predicates).
  std::vector<std::string> inner_payload;
  /// Force a strategy (tests/benchmarks); otherwise tactical choice.
  std::optional<JoinStrategy> force_strategy;
};

class JoinKeyIndex;

/// The inner side of a many-to-one join for one query, read-only once
/// built. It has two parts:
///   - the key index (JoinKeyIndex): inner key value -> row over every row
///     of the inner table. It does not depend on the query, so it is built
///     once per (inner table, key column, strategy) and kept with the table
///     (Table::GetOrBuildIndex); every later query shares it;
///   - what depends on the query: the inner predicate's pass flags and the
///     payload lanes.
/// Both are filled by range tasks on the shared pool. One lowered join
/// shares one JoinBuild across every probe copy (morsel-parallel
/// aggregation runs one probe per segment morsel).
class JoinBuild {
 public:
  /// `inner_predicate` (may be null) reads inner columns; rows that fail it
  /// never match and never count as duplicate keys.
  JoinBuild(std::shared_ptr<const Table> inner, HashJoinOptions options,
            ExprPtr inner_predicate = nullptr);

  /// Builds on the first call; later calls (from any thread) wait for it
  /// and return its status.
  Status Build();

  const HashJoinOptions& options() const { return options_; }
  /// Valid after a successful Build().
  JoinStrategy strategy() const { return strategy_; }
  uint64_t inner_rows() const { return inner_rows_; }
  uint64_t inner_rows_passed() const { return inner_rows_passed_; }
  /// Wall time of the build on the thread that ran it, the pool tasks it
  /// ran (index and per-query), and whether it built the key index or
  /// reused a kept one.
  uint64_t build_ns() const { return build_ns_; }
  uint64_t build_tasks() const { return build_tasks_; }
  bool index_built() const { return index_built_; }

  // Materialized inner column: one lane per inner row, as a flow operator
  // would emit it (string tokens with their heap, array-dictionary tokens
  // decoded).
  struct InnerColumn {
    std::unique_ptr<Lane[]> lanes;
    TypeId type = TypeId::kInteger;
    std::shared_ptr<const StringHeap> heap;
  };

  /// Inner row matching outer key `key` (passing the inner predicate), or
  /// UINT32_MAX for a miss. NULL keys match only the passing NULL-key row.
  uint32_t Lookup(Lane key) const;
  const std::vector<InnerColumn>& payload() const { return payload_; }

 private:
  Status BuildOnce();
  Status ChooseStrategy();
  Status FillQueryPart();
  Status CheckUnique();

  std::shared_ptr<const Table> inner_;
  HashJoinOptions options_;
  ExprPtr inner_predicate_;

  std::mutex mu_;
  bool built_ = false;
  Status status_;

  JoinStrategyChoice choice_;
  JoinStrategy strategy_ = JoinStrategy::kHashCollision;
  uint64_t inner_rows_ = 0;
  std::shared_ptr<const JoinKeyIndex> index_;
  // Per inner row: passed `inner_predicate` (empty when there is none).
  std::vector<uint8_t> pass_;
  uint64_t inner_rows_passed_ = 0;
  // The passing inner row whose key is NULL, or UINT32_MAX. NULL outer
  // keys join against it; without one they are dropped like any other
  // miss.
  uint32_t null_row_ = UINT32_MAX;
  std::vector<InnerColumn> payload_;
  uint64_t build_ns_ = 0;
  uint64_t build_tasks_ = 0;
  bool index_built_ = false;
};

/// Many-to-one join: outer rows joined against a unique-keyed inner table.
/// Outer rows with no match are dropped, which is exactly how predicates
/// pushed down to the join take effect on the main table (Sect. 4.1.1).
/// The inner relation is a materialized table — the TDE Join operator takes
/// a stop-and-go operator (usually a FlowTable) as its inner input (Sect.
/// 4.1.2) — built at Open() through a JoinBuild, which this probe may share
/// with others.
class HashJoin : public Operator {
 public:
  /// A probe with a build of its own (see JoinBuild for
  /// `inner_predicate`).
  HashJoin(std::unique_ptr<Operator> outer, std::shared_ptr<const Table> inner,
           HashJoinOptions options, ExprPtr inner_predicate = nullptr);
  /// A probe of a shared build.
  HashJoin(std::unique_ptr<Operator> outer, std::shared_ptr<JoinBuild> build);

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override { outer_->Close(); }
  const Schema& output_schema() const override { return schema_; }

  /// The strategy the tactical optimizer chose (valid after Open).
  JoinStrategy strategy() const { return build_->strategy(); }
  /// Inner rows, and those that passed `inner_predicate` (all of them when
  /// there is none); valid after Open.
  uint64_t inner_rows() const { return build_->inner_rows(); }
  uint64_t inner_rows_passed() const { return build_->inner_rows_passed(); }

 private:
  std::unique_ptr<Operator> outer_;
  std::shared_ptr<JoinBuild> build_;
  Schema schema_;
  size_t outer_key_idx_ = 0;
};

/// Convenience wrapper that forces the fetch-join strategy (Sect. 2.3.5):
/// fails at Open() if the inner key is not an affine transformation of the
/// row id.
std::unique_ptr<HashJoin> MakeFetchJoin(std::unique_ptr<Operator> outer,
                                        std::shared_ptr<const Table> inner,
                                        HashJoinOptions options);

}  // namespace tde

#endif  // TDE_EXEC_HASH_JOIN_H_
