#include "durability/crc32.h"

#include <array>

namespace fresque {
namespace durability {

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320. Table 0 is
// the classic byte-at-a-time table; table k advances a byte's
// contribution past k further zero bytes, so eight input bytes fold into
// the CRC with eight independent lookups instead of a serial chain of
// eight.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const uint32_t lo = LoadLE32(data + i) ^ c;
    const uint32_t hi = LoadLE32(data + i + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; i < len; ++i) {
    c = kTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace durability
}  // namespace fresque
