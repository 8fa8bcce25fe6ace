#include "text/location_parser.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/normalize.h"

namespace stir::text {

const char* LocationQualityToString(LocationQuality quality) {
  switch (quality) {
    case LocationQuality::kEmpty:
      return "empty";
    case LocationQuality::kVague:
      return "vague";
    case LocationQuality::kInsufficient:
      return "insufficient";
    case LocationQuality::kAmbiguous:
      return "ambiguous";
    case LocationQuality::kWellDefined:
      return "well-defined";
  }
  return "unknown";
}

LocationParser::LocationParser(const geo::AdminDb* db)
    : db_(db), matcher_(db) {}

bool LocationParser::TryParseGps(std::string_view piece,
                                 geo::LatLng* out) const {
  // Accept "37.51, 126.86", "37.51 126.86", with optional leading
  // "gps:"-style prefixes stripped by the caller's normalization. Reject
  // anything with alphabetic content.
  for (char c : piece) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalpha(u) || u >= 0x80) return false;
  }
  std::vector<std::string> parts = SplitAndTrim(piece, ',');
  if (parts.size() != 2) {
    parts = SplitAndTrim(piece, ' ');
    if (parts.size() != 2) return false;
  }
  std::optional<double> lat = ParseDouble(parts[0]);
  std::optional<double> lng = ParseDouble(parts[1]);
  if (!lat || !lng) return false;
  geo::LatLng point{*lat, *lng};
  if (!point.IsValid()) return false;
  *out = point;
  return true;
}

ParsedLocation LocationParser::ParseSingle(std::string_view piece) const {
  ParsedLocation result;
  result.normalized = NormalizeFreeText(piece);

  geo::LatLng gps;
  if (TryParseGps(piece, &gps)) {
    auto located = db_->Locate(gps);
    if (located.ok()) {
      result.quality = LocationQuality::kWellDefined;
      result.region = *located;
      result.from_gps = true;
    } else {
      result.quality = LocationQuality::kVague;  // coordinates of nowhere
    }
    return result;
  }

  std::vector<std::string> tokens = Tokenize(piece);
  if (tokens.empty()) {
    result.quality = LocationQuality::kEmpty;
    return result;
  }

  std::vector<PhraseMatch> matches = matcher_.Match(tokens);
  std::vector<geo::RegionId> county_candidates;
  std::vector<std::string> state_names;
  bool saw_country = false;
  bool used_fuzzy = false;
  for (const PhraseMatch& match : matches) {
    switch (match.phrase->kind) {
      case PhraseKind::kCounty:
        for (geo::RegionId id : match.phrase->regions) {
          if (std::find(county_candidates.begin(), county_candidates.end(),
                        id) == county_candidates.end()) {
            county_candidates.push_back(id);
          }
        }
        used_fuzzy |= match.fuzzy;
        break;
      case PhraseKind::kState:
        state_names.push_back(match.phrase->name);
        break;
      case PhraseKind::kCountry:
        saw_country = true;
        break;
    }
  }

  if (county_candidates.empty()) {
    if (!state_names.empty() || saw_country) {
      // "Seoul", "Korea", "Seoul, Korea": real place, but first-level
      // only — the paper removes these as insufficient.
      result.quality = LocationQuality::kInsufficient;
    } else {
      result.quality = LocationQuality::kVague;
    }
    return result;
  }

  // Disambiguate county candidates by any matched state name.
  if (county_candidates.size() > 1 && !state_names.empty()) {
    std::vector<geo::RegionId> filtered;
    for (geo::RegionId id : county_candidates) {
      const geo::Region& region = db_->region(id);
      for (const std::string& state : state_names) {
        if (EqualsIgnoreCase(region.state, state)) {
          filtered.push_back(id);
          break;
        }
      }
    }
    if (!filtered.empty()) county_candidates = std::move(filtered);
  }

  if (county_candidates.size() == 1) {
    result.quality = LocationQuality::kWellDefined;
    result.region = county_candidates.front();
    result.fuzzy = used_fuzzy;
    return result;
  }
  result.quality = LocationQuality::kAmbiguous;
  result.candidates = std::move(county_candidates);
  return result;
}

ParsedLocation LocationParser::Parse(std::string_view raw) const {
  std::string_view trimmed = TrimView(raw);
  if (trimmed.empty()) {
    ParsedLocation empty;
    empty.quality = LocationQuality::kEmpty;
    return empty;
  }

  // Multi-location strings: "Gold Coast Australia / Mapo-gu Seoul".
  std::vector<std::string> pieces;
  for (char separator : {'/', '|', ';'}) {
    if (trimmed.find(separator) != std::string_view::npos) {
      pieces = SplitAndTrim(trimmed, separator);
      break;
    }
  }
  if (pieces.empty()) {
    return ParseSingle(trimmed);
  }

  std::vector<ParsedLocation> parsed;
  parsed.reserve(pieces.size());
  for (const std::string& piece : pieces) parsed.push_back(ParseSingle(piece));

  std::vector<geo::RegionId> resolved;
  for (const ParsedLocation& p : parsed) {
    if (p.quality == LocationQuality::kWellDefined &&
        std::find(resolved.begin(), resolved.end(), p.region) ==
            resolved.end()) {
      resolved.push_back(p.region);
    }
  }
  if (resolved.size() == 1) {
    for (ParsedLocation& p : parsed) {
      if (p.quality == LocationQuality::kWellDefined) return p;
    }
  }
  ParsedLocation result;
  result.normalized = NormalizeFreeText(trimmed);
  if (resolved.size() > 1) {
    // Two explicit places ("we do not know which the current location of
    // the user is" — paper §III.A): ambiguous.
    result.quality = LocationQuality::kAmbiguous;
    result.candidates = std::move(resolved);
    return result;
  }
  // No piece resolved; inherit the strongest signal seen.
  result.quality = LocationQuality::kVague;
  for (const ParsedLocation& p : parsed) {
    if (p.quality == LocationQuality::kInsufficient) {
      result.quality = LocationQuality::kInsufficient;
    } else if (p.quality == LocationQuality::kAmbiguous) {
      result.quality = LocationQuality::kAmbiguous;
      result.candidates = p.candidates;
      break;
    }
  }
  return result;
}

}  // namespace stir::text
