#ifndef STIR_COMMON_CRC32C_H_
#define STIR_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace stir {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) over bytes.
/// The integrity check used by every durable artifact in the tree: the
/// io journal record frames, atomic snapshot files, and the STIRARN3
/// corpus (DESIGN.md §9, §14). Stable across platforms: x86-64
/// hosts with SSE4.2 run the `crc32` instruction, others slicing-by-8
/// tables, and both give the same value.
uint32_t Crc32c(std::string_view data);

/// Incremental form: feeds `data` into a running checksum. Start from
/// `kCrc32cInit` and finish with Crc32cFinish, or just call Crc32c for
/// one-shot use.
inline constexpr uint32_t kCrc32cInit = 0xFFFFFFFFu;
uint32_t Crc32cExtend(uint32_t state, std::string_view data);
inline uint32_t Crc32cFinish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace stir

#endif  // STIR_COMMON_CRC32C_H_
