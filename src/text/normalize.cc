#include "text/normalize.h"

#include <cctype>
#include <utility>

namespace stir::text {

namespace {

/// ASCII letters and digits (isalnum in the "C" locale) plus every byte
/// >= 0x80, so UTF-8 lead and continuation bytes stay inside words.
bool IsWordChar(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c >= 0x80;
}

/// tolower in the "C" locale; bytes >= 0x80 pass through.
char AsciiLower(unsigned char c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
}

}  // namespace

std::string NormalizeFreeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (size_t i = 0; i < text.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    char mapped;
    if (IsWordChar(c)) {
      mapped = AsciiLower(c);
    } else if (c == '-' && i > 0 && i + 1 < text.size() &&
               IsWordChar(static_cast<unsigned char>(text[i - 1])) &&
               IsWordChar(static_cast<unsigned char>(text[i + 1]))) {
      mapped = '-';  // intra-word hyphen survives ("seocho-gu")
    } else {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(mapped);
  }
  return out;
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::string normalized = NormalizeFreeText(text);
  std::vector<std::string> tokens;
  size_t start = 0;
  while (start < normalized.size()) {
    size_t end = normalized.find(' ', start);
    if (end == std::string::npos) end = normalized.size();
    if (end > start) tokens.emplace_back(normalized.substr(start, end - start));
    start = end + 1;
  }
  return tokens;
}

JoinedTokens::JoinedTokens(const std::vector<std::string>& tokens) {
  for (const std::string& token : tokens) {
    StartToken();
    text_ += token;
  }
}

void JoinedTokens::StartToken() {
  if (!begins_.empty()) text_.push_back(' ');
  begins_.push_back(static_cast<uint32_t>(text_.size()));
}

std::string_view JoinedTokens::Run(size_t begin, size_t count) const {
  const size_t last = begin + count - 1;
  const size_t start = begins_[begin];
  const size_t end =
      last + 1 < begins_.size() ? begins_[last + 1] - 1 : text_.size();
  return std::string_view(text_).substr(start, end - start);
}

void JoinedTokens::clear() {
  text_.clear();
  begins_.clear();
}

std::vector<std::string> JoinedTokens::ToStrings() const {
  std::vector<std::string> tokens;
  tokens.reserve(size());
  for (size_t i = 0; i < size(); ++i) tokens.emplace_back((*this)[i]);
  return tokens;
}

std::vector<std::string> TokenizeTweet(std::string_view text) {
  JoinedTokens tokens;
  TokenizeTweet(text, &tokens);
  return tokens.ToStrings();
}

void TokenizeTweet(std::string_view text, JoinedTokens* out) {
  out->clear();
  size_t i = 0;
  while (i < text.size()) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    // Drop URLs wholesale.
    if (c == 'h' &&
        (text.substr(i, 7) == "http://" || text.substr(i, 8) == "https://")) {
      while (i < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      continue;
    }
    // '@' and '#' are not word characters: the word after the sigil is
    // collected on the next step.
    if (!IsWordChar(c)) {
      ++i;
      continue;
    }
    const size_t start = i;
    while (i < text.size()) {
      unsigned char w = static_cast<unsigned char>(text[i]);
      // Keep apostrophes ("don't") and intra-word hyphens ("yangcheon-gu",
      // so place names tokenize the same way the gazetteer stores them).
      bool keep_joiner =
          (w == '\'' || w == '-') && i > start && i + 1 < text.size() &&
          IsWordChar(static_cast<unsigned char>(text[i + 1]));
      if (!IsWordChar(w) && !keep_joiner) break;
      ++i;
    }
    out->StartToken();
    for (size_t k = start; k < i; ++k) {
      out->text_.push_back(AsciiLower(static_cast<unsigned char>(text[k])));
    }
  }
}

bool EditDistanceIsOne(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > 1) return false;
  size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  if (a.size() == b.size()) {
    // One substitution at the first mismatch, the rest equal.
    return i < a.size() && a.substr(i + 1) == b.substr(i + 1);
  }
  // One deletion from the longer string: dropping its first mismatching
  // byte is enough, since any other deletion that works leaves a run of
  // equal bytes ending there.
  return a.substr(i) == b.substr(i + 1);
}

}  // namespace stir::text
