#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/crc32c_internal.h"

namespace stir {

namespace crc32c_internal {

namespace {

/// Slicing-by-8 tables for the reflected Castagnoli polynomial 0x82F63B78,
/// built once at static-init time. tables[0] is the byte-at-a-time table;
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the state over eight bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

/// Little-endian load, independent of host byte order and alignment.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__)
/// The SSE4.2 `crc32` instruction computes this very CRC (reflected
/// Castagnoli), eight bytes per instruction. Only called when the CPU
/// reports SSE4.2.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(
    uint32_t state, std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = __builtin_ia32_crc32di(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = __builtin_ia32_crc32qi(crc32, static_cast<unsigned char>(*p));
  }
  return crc32;
}
#endif

/// Slicing-by-8: runs on every platform.
uint32_t ExtendPortable(uint32_t state, std::string_view data) {
  const Tables& t = GetTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ t[0][(state ^ *p) & 0xFFu];
  }
  return state;
}

}  // namespace

std::vector<Implementation> Implementations() {
  std::vector<Implementation> found = {{"slicing-by-8", &ExtendPortable}};
#if defined(__x86_64__)
  __builtin_cpu_init();  // Safe even before static constructors have run.
  if (__builtin_cpu_supports("sse4.2")) {
    found.push_back({"sse4.2", &ExtendSse42});
  }
#endif
  return found;
}

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t state, std::string_view data) {
  static const auto extend = crc32c_internal::Implementations().back().extend;
  return extend(state, data);
}

uint32_t Crc32c(std::string_view data) {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data));
}

}  // namespace stir
