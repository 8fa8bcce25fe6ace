#include "io/string_arena.h"

#include <utility>

#include "common/hash.h"

namespace stir::io {

namespace {

constexpr size_t kInitialSlots = 64;

uint32_t HashOf(std::string_view s) {
  return static_cast<uint32_t>(Mix64(Fnv1a64(s)));
}

}  // namespace

StringArena::StringArena() : offsets_{0, 0}, slots_(kInitialSlots) {
  Place(HashOf({}), 0);  // id 0: the empty string
}

std::optional<uint32_t> StringArena::Intern(std::string_view s) {
  const uint32_t hash = HashOf(s);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i].id != kNoId; i = (i + 1) & mask) {
    if (slots_[i].hash == hash && At(slots_[i].id) == s) return slots_[i].id;
  }
  if (size() >= kMaxStrings) return std::nullopt;
  const auto id = static_cast<uint32_t>(size());
  blob_.append(s);
  offsets_.push_back(blob_.size());
  if (2 * size() <= slots_.size()) {
    slots_[i] = {id, hash};
    return id;
  }
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
  for (const Slot& slot : old) {
    if (slot.id != kNoId) Place(slot.hash, slot.id);
  }
  Place(hash, id);
  return id;
}

void StringArena::Place(uint32_t hash, uint32_t id) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != kNoId) i = (i + 1) & mask;
  slots_[i] = {id, hash};
}

}  // namespace stir::io
