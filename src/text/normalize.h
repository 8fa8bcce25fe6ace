#ifndef STIR_TEXT_NORMALIZE_H_
#define STIR_TEXT_NORMALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stir::text {

/// Canonical form used for gazetteer matching: ASCII-lowercased,
/// punctuation (except intra-word hyphens) replaced by spaces, whitespace
/// collapsed. Non-ASCII bytes pass through so UTF-8 names keep working.
std::string NormalizeFreeText(std::string_view text);

/// Splits normalized text into word tokens (keeps intra-word hyphens:
/// "yangcheon-gu" is one token).
std::vector<std::string> Tokenize(std::string_view text);

/// Word tokens stored back to back in one buffer, one space apart: the
/// layout gazetteer phrases are keyed by, so a run of consecutive tokens
/// reads as one phrase ("gold coast") without building a string. clear()
/// keeps the capacity, so a reused instance tokenizes without allocating.
/// Tokens are non-empty and contain no spaces.
class JoinedTokens {
 public:
  JoinedTokens() = default;
  explicit JoinedTokens(const std::vector<std::string>& tokens);

  size_t size() const { return begins_.size(); }
  std::string_view operator[](size_t i) const { return Run(i, 1); }
  /// Tokens [begin, begin + count) joined by single spaces.
  std::string_view Run(size_t begin, size_t count) const;

  void clear();
  std::vector<std::string> ToStrings() const;

 private:
  friend void TokenizeTweet(std::string_view text, JoinedTokens* out);

  /// Opens the next token at the end of text_.
  void StartToken();

  std::string text_;
  std::vector<uint32_t> begins_;  ///< Offset of each token in text_.
};

/// Tokenizer for tweet bodies used by TF-IDF and place-mention matching:
/// lowercases, strips URLs, @mentions pass through without the '@',
/// '#' hashtags keep their word, intra-word hyphens and apostrophes
/// survive ("yangcheon-gu", "don't").
std::vector<std::string> TokenizeTweet(std::string_view text);
/// The same tokens into caller-owned storage (replaces *out).
void TokenizeTweet(std::string_view text, JoinedTokens* out);

/// True when the Levenshtein distance between `a` and `b` is exactly one
/// (one substitution, insertion or deletion). Linear, allocation-free.
bool EditDistanceIsOne(std::string_view a, std::string_view b);

}  // namespace stir::text

#endif  // STIR_TEXT_NORMALIZE_H_
