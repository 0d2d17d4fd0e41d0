#ifndef TDE_EXEC_EXPRESSION_H_
#define TDE_EXEC_EXPRESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/block.h"

namespace tde {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class DateFunc {
  kYear,        // calendar year as integer
  kMonth,       // calendar month 1-12
  kDay,         // day of month
  kTruncMonth,  // first day of the month (a date) — the Sect. 8 roll-up
  kTruncYear,   // first day of the year (a date)
};
enum class StrFunc {
  kUpper,
  kLower,
  kLength,
  kExtension,  // file extension of a URL/path (the Sect. 4.1.2 scenario)
};

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

/// Coarse structural tags for the optimizer's predicate analysis (metadata
/// folding needs to see through connectives without dynamic_cast).
enum class ExprShape { kOther, kAnd, kOr, kNot, kIsNull, kIn };

/// A scalar expression evaluated block-at-a-time. Expressions are immutable
/// and shareable; evaluation binds column references against the block's
/// schema by name.
///
/// NULL semantics follow the TDE's sentinel model: any NULL input lane
/// yields a NULL output lane; comparisons involving NULL are false.
class Expression {
 public:
  virtual ~Expression() = default;

  virtual Result<ColumnVector> Eval(const Block& block,
                                    const Schema& schema) const = 0;
  virtual Result<TypeId> ResultType(const Schema& schema) const = 0;
  virtual std::string ToString() const = 0;
  /// Appends the names of all referenced columns.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;
  /// Non-null iff this expression is a bare column reference (used for
  /// property derivation through projections).
  virtual const std::string* AsColumnRef() const { return nullptr; }

  /// True iff this is a scalar literal; fills type/value when so.
  virtual bool AsLiteral(TypeId* type, Lane* value) const {
    (void)type;
    (void)value;
    return false;
  }

  /// Structural tag for optimizer analysis (connectives, IS NULL, IN).
  virtual ExprShape Shape() const { return ExprShape::kOther; }

  /// True iff this is a comparison; fills the operator when so.
  virtual bool AsCompare(CompareOp* op) const {
    (void)op;
    return false;
  }

  // Introspection for the reference interpreter (src/testing): the
  // differential-testing oracle re-implements evaluation row-at-a-time from
  // scratch, so it must recover each node's identity from outside without
  // dynamic_cast. Each returns false/nullptr except on the matching node.

  /// True iff this is an arithmetic node; fills the operator when so.
  virtual bool AsArith(ArithOp* op) const {
    (void)op;
    return false;
  }
  /// Non-null iff this is LIKE; returns the pattern (child 0 is the input).
  virtual const std::string* AsLikePattern() const { return nullptr; }
  /// Non-null iff this is a string literal; returns the text.
  virtual const std::string* AsStringLiteral() const { return nullptr; }
  /// True iff this is a date function; fills the function when so.
  virtual bool AsDateFunc(DateFunc* f) const {
    (void)f;
    return false;
  }
  /// True iff this is a string function; fills the function when so.
  virtual bool AsStrFunc(StrFunc* f) const {
    (void)f;
    return false;
  }
  /// True iff this is CASE; fills the branch count and whether an ELSE
  /// exists. Children are cond0, val0, cond1, val1, ..., [otherwise].
  virtual bool AsCase(size_t* branches, bool* has_else) const {
    (void)branches;
    (void)has_else;
    return false;
  }

  /// Child expressions (empty for leaves).
  virtual std::vector<ExprPtr> Children() const { return {}; }
  /// Rebuilds this node over replacement children (same arity); leaves
  /// return nullptr.
  virtual ExprPtr WithChildren(std::vector<ExprPtr> children) const {
    (void)children;
    return nullptr;
  }
};

namespace expr {

/// Column reference by name.
ExprPtr Col(std::string name);

/// Literals.
ExprPtr Int(int64_t v);
ExprPtr Real(double v);
ExprPtr Bool(bool v);
ExprPtr Str(std::string v);
ExprPtr Date(int year, unsigned month, unsigned day);
ExprPtr Null(TypeId type);

/// Comparisons (strings compare under the heap's collation; tokens of a
/// shared sorted heap compare directly).
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
inline ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kEq, l, r); }
inline ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kNe, l, r); }
inline ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLt, l, r); }
inline ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLe, l, r); }
inline ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGt, l, r); }
inline ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGe, l, r); }

/// Arithmetic (integer, or real when either side is real; division by zero
/// yields NULL).
ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
inline ExprPtr Add(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kAdd, l, r); }
inline ExprPtr Sub(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kSub, l, r); }
inline ExprPtr Mul(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kMul, l, r); }
inline ExprPtr Div(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kDiv, l, r); }

/// Boolean connectives (NULL treated as false).
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);

ExprPtr IsNull(ExprPtr e);

/// SQL IN over a literal list: true when the input equals any of `values`
/// (same comparison semantics as Eq — collation for strings, O(1) token
/// comparison when input and value share a sorted heap). A NULL input
/// never matches (comparisons with NULL are false).
ExprPtr In(ExprPtr input, std::vector<ExprPtr> values);

/// SQL LIKE over strings: '%' matches any run, '_' any single byte. Case
/// folding follows the input heap's collation (locale collation folds
/// case). Like every single-column string predicate, the optimizer can
/// push it into an invisible join's code map.
ExprPtr Like(ExprPtr input, std::string pattern);

/// SQL CASE: the value of the first branch whose condition is true, else
/// `otherwise` (NULL when null). All THEN/ELSE values must share a type.
struct CaseBranch {
  ExprPtr condition;
  ExprPtr value;
};
ExprPtr Case(std::vector<CaseBranch> branches, ExprPtr otherwise);

/// Date calculations (the "expensive calculations on scalar dimensions"
/// the paper pushes to the dictionary side, Sect. 3.4.3).
ExprPtr DateF(DateFunc f, ExprPtr e);

/// String calculations (produce a fresh per-block heap; FlowTable
/// re-accumulates and deduplicates downstream).
ExprPtr StrF(StrFunc f, ExprPtr e);

/// Expression simplification (one of the strategic optimizer's rewrites,
/// Sect. 2.3.1): folds constant subtrees by evaluating them, applies
/// boolean identities (x AND true -> x, x OR true -> true, NOT NOT x -> x)
/// and returns the (possibly shared) simplified tree.
ExprPtr Simplify(const ExprPtr& e);

/// Rewrites every column reference through `rename` (missing names are
/// kept). Used to push filters through projections.
ExprPtr RenameColumns(const ExprPtr& e,
                      const std::map<std::string, std::string>& rename);

}  // namespace expr

}  // namespace tde

#endif  // TDE_EXEC_EXPRESSION_H_
