#include "src/common/types.h"

#include <bit>
#include <cstdio>

namespace tde {

bool IsSignedType(TypeId t) {
  switch (t) {
    case TypeId::kInteger:
    case TypeId::kDate:
    case TypeId::kDateTime:
    case TypeId::kReal:
      return true;
    case TypeId::kBool:
    case TypeId::kString:
      return false;
  }
  return true;
}

bool LaneComparable(TypeId t) {
  return t == TypeId::kInteger || t == TypeId::kDate ||
         t == TypeId::kDateTime || t == TypeId::kBool;
}

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return "boolean";
    case TypeId::kInteger:
      return "integer";
    case TypeId::kReal:
      return "real";
    case TypeId::kDate:
      return "date";
    case TypeId::kDateTime:
      return "datetime";
    case TypeId::kString:
      return "string";
  }
  return "unknown";
}

uint8_t MinSignedWidth(int64_t min_value, int64_t max_value) {
  if (min_value >= std::numeric_limits<int8_t>::min() &&
      max_value <= std::numeric_limits<int8_t>::max()) {
    return 1;
  }
  if (min_value >= std::numeric_limits<int16_t>::min() &&
      max_value <= std::numeric_limits<int16_t>::max()) {
    return 2;
  }
  if (min_value >= std::numeric_limits<int32_t>::min() &&
      max_value <= std::numeric_limits<int32_t>::max()) {
    return 4;
  }
  return 8;
}

uint8_t MinUnsignedWidth(uint64_t max_value) {
  if (max_value <= std::numeric_limits<uint8_t>::max()) return 1;
  if (max_value <= std::numeric_limits<uint16_t>::max()) return 2;
  if (max_value <= std::numeric_limits<uint32_t>::max()) return 4;
  return 8;
}

std::string FormatLane(TypeId t, Lane v) {
  char buf[64];
  if (v == kNullSentinel) return "NULL";
  switch (t) {
    case TypeId::kBool:
      return v ? "true" : "false";
    case TypeId::kInteger:
    case TypeId::kString:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
      return buf;
    case TypeId::kReal: {
      double d = std::bit_cast<double>(static_cast<uint64_t>(v));
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case TypeId::kDate: {
      int y;
      unsigned m, d;
      CivilFromDays(v, &y, &m, &d);
      std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, d);
      return buf;
    }
    case TypeId::kDateTime: {
      int64_t days = v / 86400;
      int64_t secs = v % 86400;
      if (secs < 0) {
        secs += 86400;
        --days;
      }
      int y;
      unsigned m, d;
      CivilFromDays(days, &y, &m, &d);
      std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u %02lld:%02lld:%02lld", y,
                    m, d, static_cast<long long>(secs / 3600),
                    static_cast<long long>((secs / 60) % 60),
                    static_cast<long long>(secs % 60));
      return buf;
    }
  }
  return "?";
}

// Howard Hinnant's proleptic Gregorian algorithms.
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  *d = doy - (153 * mp + 2) / 5 + 1;                             // [1, 31]
  *m = mp + (mp < 10 ? 3 : -9);                                  // [1, 12]
  *y = static_cast<int>(yy + (*m <= 2));
}

int64_t TruncateToMonth(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return DaysFromCivil(y, m, 1);
}

int64_t TruncateToYear(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return DaysFromCivil(y, 1, 1);
}

int DateYear(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

int DateMonth(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return static_cast<int>(m);
}

int DateDay(int64_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return static_cast<int>(d);
}

}  // namespace tde
