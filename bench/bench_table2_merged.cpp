// Table II (paper §III.B): merged and ordered strings with multiplicity
// "(n)", the matched-string rank, and the induced Top-k classification of
// the paper's two example users.

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/grouping.h"
#include "core/location_string.h"

int main(int argc, char** argv) {
  using namespace stir;
  bench::PrintHeader("Table II — merged and ordered strings",
                     "the paper's user 123/71 examples + live corpus rows");

  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto region = [&](const char* state, const char* county) {
    auto id = db.FindCounty(state, county);
    if (!id.ok()) {
      std::printf("gazetteer miss: %s %s\n", state, county);
      std::exit(1);
    }
    return *id;
  };

  // Paper user "123...": profile Yangcheon-gu, tweets 3x Yangcheon-gu,
  // 2x Jung-gu, 1x Seodaemun-gu -> matched string first -> Top-1.
  core::RefinedUser user123;
  user123.user = 123;
  user123.profile_region = region("Seoul", "Yangcheon-gu");
  user123.tweet_regions = {
      region("Seoul", "Yangcheon-gu"), region("Seoul", "Jung-gu"),
      region("Seoul", "Yangcheon-gu"), region("Seoul", "Seodaemun-gu"),
      region("Seoul", "Jung-gu"),      region("Seoul", "Yangcheon-gu"),
  };
  // Paper user "71...": profile Uiwang-si, tweets 3x Seongnam-si,
  // 2x Uiwang-si -> matched string second -> Top-2.
  core::RefinedUser user71;
  user71.user = 71;
  user71.profile_region = region("Gyeonggi-do", "Uiwang-si");
  user71.tweet_regions = {
      region("Gyeonggi-do", "Seongnam-si"), region("Gyeonggi-do", "Uiwang-si"),
      region("Gyeonggi-do", "Seongnam-si"), region("Gyeonggi-do", "Uiwang-si"),
      region("Gyeonggi-do", "Seongnam-si"),
  };

  // Each user's Table II rows, rendered from the gazetteer's names.
  auto table_rows = [&](const core::UserGrouping& grouping) {
    std::vector<std::string> rows;
    for (const core::DistrictCount& row : grouping.ordered) {
      rows.push_back(core::RenderTableRow(grouping, row, db).ToString());
    }
    return rows;
  };
  const core::UserGrouping g123 = core::GroupUser(user123, db);
  const core::UserGrouping g71 = core::GroupUser(user71, db);
  for (const core::UserGrouping* grouping : {&g123, &g71}) {
    std::printf("user %lld => rank %d => %s\n",
                static_cast<long long>(grouping->user), grouping->match_rank,
                core::TopKGroupToString(grouping->group));
    for (const std::string& row : table_rows(*grouping)) {
      std::printf("  %s\n", row.c_str());
    }
  }
  std::printf("\nshape checks (paper: user 123 -> Top-1, user 71 -> "
              "Top-2):\n");
  // The row checks compare the exact rendered rows.
  bool ok = bench::Check(g123.group == core::TopKGroup::kTop1,
                         "paper example user 123 classified Top-1");
  ok &= bench::Check(
      table_rows(g123) ==
          std::vector<std::string>{
              "123#Seoul#Yangcheon-gu#Seoul#Yangcheon-gu (3)",
              "123#Seoul#Yangcheon-gu#Seoul#Jung-gu (2)",
              "123#Seoul#Yangcheon-gu#Seoul#Seodaemun-gu (1)"},
      "user 123 matched string carries count (3)");
  ok &= bench::Check(g71.group == core::TopKGroup::kTop2,
                     "paper example user 71 classified Top-2");
  ok &= bench::Check(
      table_rows(g71) ==
          std::vector<std::string>{
              "71#Gyeonggi-do#Uiwang-si#Gyeonggi-do#Seongnam-si (3)",
              "71#Gyeonggi-do#Uiwang-si#Gyeonggi-do#Uiwang-si (2)"},
      "user 71 top string is the non-matched district");

  // A live Table II from the synthetic corpus.
  double scale = bench::ScaleFromArgs(argc, argv, 0.2);
  bench::StudyRun run = bench::RunKoreanStudy(scale);
  std::printf("\nlive merged lists (scale %.2f), first Top-2 user:\n",
              scale);
  for (const auto& grouping : run.result.groupings) {
    if (grouping.group != core::TopKGroup::kTop2) continue;
    for (const std::string& row : table_rows(grouping)) {
      std::printf("  %s\n", row.c_str());
    }
    break;
  }
  return ok ? 0 : 1;
}
