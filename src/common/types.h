#ifndef TDE_COMMON_TYPES_H_
#define TDE_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace tde {

/// The Tableau logical type model (Sect. 2.3.4 of the paper): Tableau only
/// distinguishes Boolean, integer, real, date, timestamp and collated
/// string. The engine is free to pick any physical representation.
enum class TypeId : uint8_t {
  kBool = 0,
  kInteger = 1,   // 64-bit signed at the logical level
  kReal = 2,      // IEEE double, stored as its raw 64-bit pattern
  kDate = 3,      // days since 1970-01-01, signed
  kDateTime = 4,  // seconds since epoch, signed
  kString = 5,    // token (offset or index) into a string heap/dictionary
};

/// Number of distinct TypeId values.
inline constexpr int kNumTypes = 6;

/// Block iteration size of the execution engine. Also the decompression
/// block size of every encoded stream (Sect. 3.1 requires a multiple of 32
/// so bit packing ends on a byte boundary; making them equal means one
/// decode call per iteration block).
inline constexpr uint32_t kBlockSize = 1024;

/// Dictionary encoding entry limit (Sect. 3.1.3): 2^15 keeps the dictionary
/// and its value->code map in cache.
inline constexpr uint32_t kMaxDictEntries = 1u << 15;

/// All column values travel through the engine as 64-bit lanes. Integers,
/// dates and datetimes are sign-extended; reals are bit-cast doubles;
/// string tokens are zero-extended unsigned offsets/indexes.
using Lane = int64_t;

/// NULL is represented by a sentinel (the minimum of the physical domain),
/// as in the TDE. Nullability detection then falls out of min/max stats.
inline constexpr int64_t kNullSentinel = std::numeric_limits<int64_t>::min();

/// Three-way comparison of two reals under the engine's total order: NaN
/// (either sign, any payload) equals NaN and orders above every number,
/// including +inf. A plain `a < b` comparator is not a strict weak order
/// once NaN appears (NaN is "equal" to everything, breaking transitivity
/// and making std::sort undefined); every real comparison — predicates,
/// MIN/MAX, sorting — goes through this one definition so the engine and
/// the reference oracle cannot disagree. NULL is the callers' job: the
/// sentinel must be peeled off before the lanes are read as doubles.
inline int CompareReals(double a, double b) {
  const bool na = a != a;  // NaN is the only value that differs from itself
  const bool nb = b != b;
  if (na || nb) return na == nb ? 0 : (na ? 1 : -1);
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// True for types whose lanes compare as signed integers.
bool IsSignedType(TypeId t);

/// True for types whose lane order is their value order, so zone-map and
/// metadata bounds compare directly against lanes. Reals are excluded
/// (lane bits do not order like doubles) and so are strings (lanes are
/// heap tokens).
bool LaneComparable(TypeId t);

/// Human-readable type name ("integer", "string", ...).
const char* TypeName(TypeId t);

/// Smallest power-of-two byte width (1, 2, 4, 8) that can represent every
/// signed value in [min_value, max_value].
uint8_t MinSignedWidth(int64_t min_value, int64_t max_value);

/// Smallest power-of-two byte width that can represent every unsigned value
/// in [0, max_value].
uint8_t MinUnsignedWidth(uint64_t max_value);

/// Formats a lane of the given type for display ("2024-05-01", "3.25", ...).
/// String lanes are formatted as their numeric token; callers that have the
/// heap should resolve tokens themselves.
std::string FormatLane(TypeId t, Lane v);

/// Civil-date helpers used by the date parsers, generators and roll-ups.
/// days <-> (year, month, day) with the proleptic Gregorian calendar.
int64_t DaysFromCivil(int y, unsigned m, unsigned d);
void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d);

/// Roll a date (days since epoch) down to the first day of its month/year.
int64_t TruncateToMonth(int64_t days);
int64_t TruncateToYear(int64_t days);
/// Extract calendar fields from a date lane.
int DateYear(int64_t days);
int DateMonth(int64_t days);
int DateDay(int64_t days);

}  // namespace tde

#endif  // TDE_COMMON_TYPES_H_
