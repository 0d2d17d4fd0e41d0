#ifndef TDE_TESTING_GENQUERY_H_
#define TDE_TESTING_GENQUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/testing/reference.h"

namespace tde {
namespace testing {

/// Value distributions, chosen to steer FlowTable's dynamic encoding
/// choice: every shape reliably lands on one of the five encodings.
enum class ColumnShape {
  kSequential,  // row-id-linear with jitter -> delta / affine
  kNarrow,      // small uniform range -> frame-of-reference
  kRunny,       // long value runs -> run-length
  kLowCard,     // few distinct values -> dictionary
  kScattered,   // wide uniform -> uncompressed
  kRowId,       // the row number itself: dense, unique, sorted -> a fetch
                // join's key
};

struct ColumnSpec {
  std::string name;
  TypeId type = TypeId::kInteger;  // kInteger, kReal, kString, kDate
  ColumnShape shape = ColumnShape::kScattered;
  /// Probability (in 1/256ths) that a row is NULL.
  uint8_t null_chance = 0;
  /// Integer columns only: when > 0, values are drawn uniformly from
  /// [0, range) regardless of shape — used for the join key, whose domain
  /// must line up with the dimension table's key space.
  int64_t range = 0;
  /// When >= 0, this row is NULL on top of `null_chance` — gives a unique
  /// join key exactly one NULL row.
  int64_t null_row = -1;
};

struct TableSpec {
  std::string name;
  uint64_t rows = 0;
  uint64_t seed = 0;
  std::vector<ColumnSpec> columns;

  /// Printable repro: everything needed to regenerate the table.
  std::string ToString() const;
};

/// A deterministic dataset: the CSV text the import path parses and the
/// decoded rows the oracle reads come from one generation pass, so they
/// agree by construction and share nothing downstream.
struct Dataset {
  TableSpec spec;
  RefTable ref;
  std::string csv;
};

Dataset GenerateDataset(const TableSpec& spec);

/// The standard differential tables: a fact table covering every shape ×
/// type combination the engine encodes, a unique-keyed dimension table for
/// many-to-one joins (`fk` references `dk`, with some dangling keys; `dk`
/// has exactly one NULL row, which NULL `fk` rows join), and a second
/// dimension `dim2` reached through `dim.dv` (`dv` references `ek`), the
/// chain shape of TPC-H Q3's orders -> customer.
TableSpec MakeFactSpec(uint64_t seed, uint64_t rows);
TableSpec MakeDimSpec(uint64_t seed, uint64_t rows);
TableSpec MakeDim2Spec(uint64_t seed, uint64_t rows);

struct GeneratedQuery {
  std::string sql;
  bool is_aggregate = false;
  bool has_join = false;
  /// Also joins dim2 through dim's payload column `dv` (implies has_join).
  bool has_second_join = false;
  bool has_order_by = false;
  bool has_limit = false;
  /// The LIMIT count when has_limit (for the harness's prefix check on
  /// unordered LIMIT queries).
  uint64_t limit = 0;
};

/// Generates one SQL statement, fully determined by `seed`, over the fact
/// table (and the dimension tables, when joining). Coverage: filters (=,
/// <>, <, <=, >, >=, BETWEEN, IN, NOT IN, LIKE, IS [NOT] NULL) under
/// AND/OR/NOT, string IN lists whose values are not adjacent in collation
/// order, computed projections (arithmetic, date and string functions,
/// CASE, TPC-H Q12's flag CASE over one fact or dimension string column as
/// an aggregate input), single- and multi-key GROUP BY with every aggregate,
/// HAVING, ORDER BY ASC/DESC over nullable keys, LIMIT, and fact JOIN dim
/// joins, part of them chained on to dim2. Predicates over joins mix
/// columns of every joined table, so filters that can move through a join
/// and filters that cannot are both generated. Aggregate ORDER BY lists
/// always end with every grouping key, so an ordered result is totally
/// ordered and engine/oracle rows can be compared positionally.
GeneratedQuery GenerateQuery(uint64_t seed, const Dataset& fact,
                             const Dataset& dim, const Dataset& dim2);

}  // namespace testing
}  // namespace tde

#endif  // TDE_TESTING_GENQUERY_H_
