#include "text/gazetteer_matcher.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/normalize.h"

namespace stir::text {

namespace {

/// Hand-maintained country aliases for the two built-in gazetteers.
struct CountryAlias {
  const char* alias;
  const char* canonical;
};
constexpr CountryAlias kCountryAliases[] = {
    {"korea", "South Korea"},
    {"south korea", "South Korea"},
    {"republic of korea", "South Korea"},
    {"rok", "South Korea"},
    {"usa", "United States"},
    {"us", "United States"},
    {"united states", "United States"},
    {"america", "United States"},
    {"uk", "United Kingdom"},
    {"united kingdom", "United Kingdom"},
    {"england", "United Kingdom"},
    {"japan", "Japan"},
    {"china", "China"},
    {"france", "France"},
    {"germany", "Germany"},
    {"australia", "Australia"},
    {"canada", "Canada"},
    {"brazil", "Brazil"},
};

size_t CountTokens(const std::string& phrase) {
  return static_cast<size_t>(
             std::count(phrase.begin(), phrase.end(), ' ')) + 1;
}

}  // namespace

GazetteerMatcher::GazetteerMatcher(const geo::AdminDb* db) : db_(db) {
  for (const geo::Region& region : db_->regions()) {
    std::string county = NormalizeFreeText(region.county);
    AddPhrase(county, PhraseKind::kCounty, region.id, region.county);
    for (const std::string& alias : region.aliases) {
      AddPhrase(NormalizeFreeText(alias), PhraseKind::kCounty, region.id,
                region.county);
    }
    std::string state = NormalizeFreeText(region.state);
    AddPhrase(state, PhraseKind::kState, geo::kInvalidRegion, region.state);
    std::string country = NormalizeFreeText(region.country);
    AddPhrase(country, PhraseKind::kCountry, geo::kInvalidRegion,
              region.country);
  }
  for (const CountryAlias& alias : kCountryAliases) {
    AddPhrase(alias.alias, PhraseKind::kCountry, geo::kInvalidRegion,
              alias.canonical);
  }
  // Hangul spellings of Korean first-level divisions, for gazetteers
  // that contain them ("서울 마포구" must parse like "Seoul Mapo-gu").
  for (size_t i = 0; i < geo::internal_admin_data::kHangulStateAliasCount;
       ++i) {
    const auto& alias = geo::internal_admin_data::kHangulStateAliases[i];
    if (!db_->CountiesInState(alias.state).empty()) {
      AddPhrase(NormalizeFreeText(alias.hangul), PhraseKind::kState,
                geo::kInvalidRegion, alias.state);
    }
  }
  // Fuzzy pool: unambiguous single-token county names long enough that an
  // edit-distance-1 hit is very unlikely to be a false positive.
  for (const auto& [phrase, entry] : table_) {
    if (entry.kind == PhraseKind::kCounty && phrase.size() >= 6 &&
        phrase.find(' ') == std::string::npos) {
      fuzzy_pool_.push_back(phrase);
    }
  }
  std::sort(fuzzy_pool_.begin(), fuzzy_pool_.end());
  for (const auto& [phrase, entry] : table_) {
    const size_t space = phrase.find(' ');
    Head& head = heads_[phrase.substr(0, space)];
    if (space == std::string::npos) {
      head.single = &entry;
    } else {
      head.max_tokens = std::max(head.max_tokens, CountTokens(phrase));
    }
  }
  for (const auto& [token, head] : heads_) {
    const size_t bit = HeadSignature(token);
    head_signatures_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
}

size_t GazetteerMatcher::HeadSignature(std::string_view token) {
  const auto byte = [&](size_t i) -> uint32_t {
    return i < token.size() ? static_cast<unsigned char>(token[i]) : 0u;
  };
  const uint32_t key =
      static_cast<uint32_t>(token.size()) << 16 | byte(0) << 8 | byte(1);
  // Multiplicative hash onto the 2^15 bits of head_signatures_.
  return (key * 0x9E3779B1u) >> 17;
}

void GazetteerMatcher::AddPhrase(const std::string& phrase, PhraseKind kind,
                                 geo::RegionId region,
                                 const std::string& canonical) {
  if (phrase.empty()) return;
  auto it = table_.find(phrase);
  if (it == table_.end()) {
    Phrase entry;
    entry.kind = kind;
    entry.name = canonical;
    if (region != geo::kInvalidRegion) entry.regions.push_back(region);
    table_.emplace(phrase, std::move(entry));
    return;
  }
  Phrase& entry = it->second;
  // County entries win over state/country homonyms (a district lookup is
  // more specific); within counties, accumulate ambiguous candidates.
  if (kind == PhraseKind::kCounty) {
    if (entry.kind != PhraseKind::kCounty) {
      entry.kind = PhraseKind::kCounty;
      entry.regions.clear();
      entry.name = canonical;
    }
    if (region != geo::kInvalidRegion &&
        std::find(entry.regions.begin(), entry.regions.end(), region) ==
            entry.regions.end()) {
      entry.regions.push_back(region);
    }
  }
}

void GazetteerMatcher::ScanExact(const JoinedTokens& tokens,
                                 std::vector<PhraseMatch>* matches) const {
  matches->clear();
  size_t i = 0;
  while (i < tokens.size()) {
    // A clear signature bit: no phrase begins with this token.
    const std::string_view token = tokens[i];
    const size_t bit = HeadSignature(token);
    auto head = (head_signatures_[bit / 64] >> (bit % 64) & 1u) != 0
                    ? heads_.find(token)
                    : heads_.end();
    if (head == heads_.end()) {
      ++i;
      continue;
    }
    // The one-token phrase, unless a longer one starts here.
    PhraseMatch match{i, 1, head->second.single};
    for (size_t len = std::min(head->second.max_tokens, tokens.size() - i);
         len > 1; --len) {
      if (const Phrase* phrase = Find(tokens.Run(i, len))) {
        match.phrase = phrase;
        match.token_count = len;
        break;
      }
    }
    if (match.phrase == nullptr) {
      ++i;
      continue;
    }
    matches->push_back(match);
    i += match.token_count;
  }
}

std::vector<PhraseMatch> GazetteerMatcher::Match(
    const std::vector<std::string>& tokens) const {
  std::vector<PhraseMatch> exact;
  ScanExact(JoinedTokens(tokens), &exact);

  std::vector<PhraseMatch> matches;
  // Fuzzy fallback at the uncovered tokens before `end`.
  size_t next = 0;
  auto fuzzy_until = [&](size_t end) {
    for (; next < end; ++next) {
      if (const Phrase* phrase = FuzzyHit(tokens[next])) {
        matches.push_back({next, 1, phrase, /*fuzzy=*/true});
      }
    }
  };
  for (const PhraseMatch& match : exact) {
    fuzzy_until(match.token_begin);
    matches.push_back(match);
    next = match.token_begin + match.token_count;
  }
  fuzzy_until(tokens.size());
  return matches;
}

const Phrase* GazetteerMatcher::FuzzyHit(std::string_view token) const {
  if (token.size() < 6) return nullptr;
  const std::string* hit = nullptr;
  for (const std::string& candidate : fuzzy_pool_) {
    if (!EditDistanceIsOne(token, candidate)) continue;
    if (hit != nullptr) return nullptr;  // Not unique.
    hit = &candidate;
  }
  return hit == nullptr ? nullptr : Find(*hit);
}

const Phrase* GazetteerMatcher::Find(std::string_view phrase) const {
  auto it = table_.find(phrase);
  return it == table_.end() ? nullptr : &it->second;
}

}  // namespace stir::text
