// Table I (paper §III.B): example per-tweet location strings
// "user#state_p#county_p#state_t#county_t". Reconstructs the paper's own
// example rows from live pipeline objects and prints live strings from a
// generated corpus.

#include "bench_util.h"
#include "core/grouping.h"
#include "core/location_string.h"

int main(int argc, char** argv) {
  using stir::core::LocationRecord;
  stir::bench::PrintHeader(
      "Table I — example strings for location information",
      "paper rows rebuilt through LocationRecord, plus live corpus rows");

  // The paper's printed rows (user ids partially OCR-lost; we use the
  // recoverable digits 123.. / 71..).
  struct Row {
    long long user;
    const char* ps;
    const char* pc;
    const char* ts;
    const char* tc;
  };
  const Row paper_rows[] = {
      {123, "Seoul", "Yangcheon-gu", "Seoul", "Seodaemun-gu"},
      {123, "Seoul", "Yangcheon-gu", "Seoul", "Jung-gu"},
      {123, "Seoul", "Yangcheon-gu", "Seoul", "Jung-gu"},
      {71, "Gyeonggi-do", "Uiwang-si", "Gyeonggi-do", "Uiwang-si"},
      {71, "Gyeonggi-do", "Uiwang-si", "Gyeonggi-do", "Uiwang-si"},
      {71, "Gyeonggi-do", "Uiwang-si", "Gyeonggi-do", "Seongnam-si"},
  };
  std::printf("paper example rows (Table I), re-rendered:\n");
  bool round_trip_ok = true;
  for (const Row& row : paper_rows) {
    LocationRecord record;
    record.user = row.user;
    record.profile_state = row.ps;
    record.profile_county = row.pc;
    record.tweet_state = row.ts;
    record.tweet_county = row.tc;
    std::string rendered = record.ToString();
    std::printf("  %s\n", rendered.c_str());
    auto parsed = LocationRecord::FromString(rendered);
    round_trip_ok &= parsed.ok() && *parsed == record;
  }

  double scale = stir::bench::ScaleFromArgs(argc, argv, 0.2);
  stir::bench::StudyRun run = stir::bench::RunKoreanStudy(scale);
  std::printf("\nlive rows from the synthetic corpus (scale %.2f):\n", scale);
  int printed = 0;
  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();
  for (const auto& grouping : run.result.groupings) {
    for (const auto& row : grouping.ordered) {
      const std::string record =
          stir::core::RenderTableRow(grouping, row, db).record.ToString();
      for (int i = 0; i < row.count && printed < 6; ++i) {
        std::printf("  %s\n", record.c_str());
        ++printed;
      }
    }
    if (printed >= 6) break;
  }

  std::printf("\nshape checks:\n");
  bool ok = stir::bench::Check(round_trip_ok,
                               "paper rows round-trip through "
                               "LocationRecord::FromString");
  ok &= stir::bench::Check(printed == 6, "live pipeline produced strings");
  return ok ? 0 : 1;
}
