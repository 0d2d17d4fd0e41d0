#ifndef TDE_STORAGE_PAGER_CRC32C_H_
#define TDE_STORAGE_PAGER_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace tde {
namespace pager {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) — every column
/// blob in a v2 database file carries its checksum so corruption is
/// detected at materialization time, before any decode touches the bytes.
/// Runs the SSE4.2 `crc32` instruction where the CPU has it (chosen once,
/// at first use) and Crc32cPortable elsewhere. `seed` chains calls: the
/// CRC of a || b is Crc32c(b, nb, Crc32c(a, na)).
uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0);

/// The table-driven (slicing-by-4) routine Crc32c uses on CPUs without
/// SSE4.2; same results.
uint32_t Crc32cPortable(const uint8_t* data, size_t n, uint32_t seed = 0);

/// Whether Crc32c runs the hardware instruction on this CPU.
bool Crc32cHardware();

}  // namespace pager
}  // namespace tde

#endif  // TDE_STORAGE_PAGER_CRC32C_H_
