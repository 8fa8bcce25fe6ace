#ifndef STIR_TEXT_GAZETTEER_MATCHER_H_
#define STIR_TEXT_GAZETTEER_MATCHER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geo/admin_db.h"
#include "text/normalize.h"

namespace stir::text {

/// What a matched phrase denotes.
enum class PhraseKind {
  kCounty,   ///< A second-level district (possibly in several states).
  kState,    ///< A first-level division name.
  kCountry,  ///< A country name or common alias ("korea", "usa").
};

/// One gazetteer phrase table entry.
struct Phrase {
  PhraseKind kind = PhraseKind::kCounty;
  /// Candidate regions for kCounty (size > 1 when the name is ambiguous
  /// across states). Empty for kState/kCountry.
  std::vector<geo::RegionId> regions;
  std::string name;  ///< Canonical name (state/country) or phrase.
};

/// One phrase match inside a token sequence.
struct PhraseMatch {
  size_t token_begin = 0;  ///< First token index of the phrase.
  size_t token_count = 0;  ///< Number of tokens covered.
  const Phrase* phrase = nullptr;  ///< Owned by the matcher.
  bool fuzzy = false;  ///< Matched via edit distance 1, not exactly.
};

/// Phrase-table matcher from free text to gazetteer entries. Built once
/// per AdminDb; the exact scan costs one bit test per token, one hash
/// probe per token that may begin a phrase, plus one per longer phrase
/// length at tokens that begin a multi-word phrase.
///
/// Handles multi-word names ("gold coast", "new york"), aliases recorded
/// in the gazetteer ("Yangchun-gu" for Yangcheon-gu), country aliases,
/// and a conservative fuzzy fallback (edit distance 1 for single-token
/// county names of >= 6 characters: "gangnam" vs "gangnm").
class GazetteerMatcher {
 public:
  /// `db` must outlive the matcher.
  explicit GazetteerMatcher(const geo::AdminDb* db);

  /// Exact phrase matches in `tokens`, longest phrase first, greedy from
  /// the left, non-overlapping. Replaces *matches.
  void ScanExact(const JoinedTokens& tokens,
                 std::vector<PhraseMatch>* matches) const;

  /// All non-overlapping matches: the exact scan, plus the fuzzy fallback
  /// at every token no exact phrase covers. A fuzzy hit covers one token,
  /// as a miss does, so it never changes which exact phrases are found.
  /// Tokens are as Tokenize or TokenizeTweet produce them.
  std::vector<PhraseMatch> Match(const std::vector<std::string>& tokens) const;

  /// The table entry for one normalized phrase (tokens joined by single
  /// spaces), or null.
  const Phrase* Find(std::string_view phrase) const;

  /// Single-token county phrases the fuzzy fallback compares against,
  /// sorted.
  const std::vector<std::string>& fuzzy_pool() const { return fuzzy_pool_; }

  const geo::AdminDb& db() const { return *db_; }

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename Value>
  using StringMap =
      std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

  /// What a phrase's first token can start: the one-token phrase, if any,
  /// and the token count of the longest phrase beginning with it.
  struct Head {
    const Phrase* single = nullptr;
    size_t max_tokens = 1;
  };

  /// Bit of `head_signatures_` for a token: a hash of its length and
  /// first two bytes, so a token no phrase begins with mostly misses.
  static size_t HeadSignature(std::string_view token);

  void AddPhrase(const std::string& phrase, PhraseKind kind,
                 geo::RegionId region, const std::string& canonical);
  /// The unique fuzzy-pool phrase at edit distance exactly 1 from
  /// `token`, or null.
  const Phrase* FuzzyHit(std::string_view token) const;

  const geo::AdminDb* db_;
  StringMap<Phrase> table_;
  /// Keyed by the first token of every phrase.
  StringMap<Head> heads_;
  /// HeadSignature of every heads_ key: a clear bit skips the probe.
  std::array<uint64_t, 512> head_signatures_{};
  /// Single-token county phrases for the fuzzy pass.
  std::vector<std::string> fuzzy_pool_;
};

}  // namespace stir::text

#endif  // STIR_TEXT_GAZETTEER_MATCHER_H_
