#ifndef UGUIDE_COMMON_CRC32C_H_
#define UGUIDE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace uguide {

/// \brief CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the
/// checksum guarding every journal record against bit-rot.
///
/// Hand-rolled table-driven implementation — the journal must stay
/// dependency-free, and the polynomial choice matches what storage systems
/// (iSCSI, ext4, LevelDB) use for exactly this purpose: detecting media
/// corruption, not adversaries. Not a cryptographic hash.
uint32_t Crc32c(const void* data, size_t size);

inline uint32_t Crc32c(std::string_view text) {
  return Crc32c(text.data(), text.size());
}

}  // namespace uguide

#endif  // UGUIDE_COMMON_CRC32C_H_
