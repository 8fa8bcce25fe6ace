#ifndef STIR_COMMON_CRC32C_INTERNAL_H_
#define STIR_COMMON_CRC32C_INTERNAL_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace stir::crc32c_internal {

/// One Crc32cExtend implementation. Crc32cExtend runs the fastest the
/// host supports; the tests run each against a bytewise reference.
struct Implementation {
  const char* name;
  uint32_t (*extend)(uint32_t state, std::string_view data);
};

/// Every implementation this host can run: portable slicing-by-8 first
/// (on every platform), and last the one Crc32cExtend uses.
std::vector<Implementation> Implementations();

}  // namespace stir::crc32c_internal

#endif  // STIR_COMMON_CRC32C_INTERNAL_H_
