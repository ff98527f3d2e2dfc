// CRC-32 (IEEE 802.3 polynomial, reflected) used to checksum disk block
// files and net frames: a corrupted spill must read back as a cache miss,
// never as garbage rows.
//
// Slicing-by-8: eight 256-entry tables, built at compile time, let the loop
// fold eight input bytes per step with eight independent lookups instead of
// one dependent lookup per byte; a byte-wise tail takes the last 0-7 bytes.
// Same polynomial, initial value and final XOR as the byte-at-a-time loop,
// so every checksum is bit-identical to it. Portable scalar code, no
// external dependency.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace blaze {

namespace internal {

constexpr std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// tables[k][b] is the CRC state after feeding byte b followed by k zero
// bytes, so table k folds a byte that sits k positions before the end of an
// 8-byte step.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32Slices() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  tables[0] = MakeCrc32Table();
  for (size_t k = 1; k < 8; ++k) {
    for (size_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32Slices = MakeCrc32Slices();

// Little-endian 32-bit load from any alignment.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace internal

// One-shot CRC-32 over a byte range.
inline uint32_t Crc32(const uint8_t* data, size_t len) {
  const auto& t = internal::kCrc32Slices;
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = c ^ internal::LoadLe32(data);
    const uint32_t hi = internal::LoadLe32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace blaze

#endif  // SRC_COMMON_CRC32_H_
