#include "io/string_arena.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"

namespace stir::io {
namespace {

TEST(StringArenaTest, EmptyStringIsIdZero) {
  StringArena arena;
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_EQ(arena.Intern(""), std::optional<uint32_t>(0));
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_EQ(arena.At(0), "");
  EXPECT_EQ(arena.blob(), "");
  EXPECT_EQ(arena.offsets(), (std::vector<uint64_t>{0, 0}));
}

// Ids against a std::map first-intern reference over seeded repeated,
// unique, empty, long and NUL-carrying strings, across many table
// growths; then every id round-trips and the frozen blob and offsets
// are the reference strings concatenated in id order.
TEST(StringArenaTest, MatchesFirstInternReferenceAcrossGrowths) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    StringArena arena;
    std::map<std::string, uint32_t> reference = {{"", 0}};
    std::vector<std::string> by_id = {""};
    for (int i = 0; i < 60000; ++i) {
      std::string s;
      const double kind = rng.Uniform();
      if (kind < 0.35) {
        s = by_id[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(by_id.size()) - 1))];
      } else if (kind < 0.40) {
        s = "";
      } else if (kind < 0.45) {
        s = std::string(static_cast<size_t>(rng.UniformInt(100, 2000)),
                        static_cast<char>('a' + i % 26)) +
            std::to_string(rng.UniformInt(0, 50));
      } else if (kind < 0.50) {
        s = "nul";
        s.push_back('\0');
        s += std::to_string(rng.UniformInt(0, 200));
      } else {
        s = "user" + std::to_string(rng.UniformInt(0, 1 << 18));
      }
      auto [it, inserted] =
          reference.emplace(s, static_cast<uint32_t>(by_id.size()));
      if (inserted) by_id.push_back(s);
      std::optional<uint32_t> id = arena.Intern(s);
      ASSERT_TRUE(id.has_value());
      ASSERT_EQ(*id, it->second) << "seed " << seed << " step " << i;
      ASSERT_EQ(arena.size(), by_id.size());
    }
    ASSERT_GT(by_id.size(), 20000u);  // the table grew many times
    std::string blob;
    std::vector<uint64_t> offsets = {0};
    for (size_t id = 0; id < by_id.size(); ++id) {
      ASSERT_EQ(arena.At(static_cast<uint32_t>(id)), by_id[id]);
      blob += by_id[id];
      offsets.push_back(blob.size());
    }
    EXPECT_EQ(arena.blob(), blob);
    EXPECT_EQ(arena.offsets(), offsets);
    EXPECT_EQ(arena.blob_bytes(), blob.size());
  }
}

}  // namespace
}  // namespace stir::io
