#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace stir::obs {

namespace {

void AppendFormatted(std::string* out, const char* fmt, ...) {
  char buf[64];
  va_list args;
  va_start(args, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

}  // namespace

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          AppendFormatted(&out, "\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter() { out_.reserve(256); }

void JsonWriter::Fail(std::string_view what) {
  if (error_.empty()) error_ = std::string(what);
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    if (root_written_) Fail("second root value");
    root_written_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.scope == Scope::kObject) {
    if (!top.key_pending) Fail("value inside object without a key");
    top.key_pending = false;
    return;
  }
  if (top.count > 0) out_ += ',';
  ++top.count;
}

void JsonWriter::Key(std::string_view name) {
  if (stack_.empty() || stack_.back().scope != Scope::kObject) {
    Fail("Key() outside an object");
    return;
  }
  Frame& top = stack_.back();
  if (top.key_pending) Fail("consecutive keys");
  if (top.count > 0) out_ += ',';
  ++top.count;
  top.key_pending = true;
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
}

void JsonWriter::BeginObject() {
  BeforeValue();
  stack_.push_back({Scope::kObject});
  out_ += '{';
}

void JsonWriter::EndObject() {
  if (stack_.empty() || stack_.back().scope != Scope::kObject ||
      stack_.back().key_pending) {
    Fail("EndObject() without matching open object");
    return;
  }
  stack_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  stack_.push_back({Scope::kArray});
  out_ += '[';
}

void JsonWriter::EndArray() {
  if (stack_.empty() || stack_.back().scope != Scope::kArray) {
    Fail("EndArray() without matching open array");
    return;
  }
  stack_.pop_back();
  out_ += ']';
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  AppendFormatted(&out_, "%lld", static_cast<long long>(value));
}

void JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  AppendFormatted(&out_, "%llu", static_cast<unsigned long long>(value));
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

void JsonWriter::Double(double value) {
  if (!std::isfinite(value)) {
    Null();
    return;
  }
  BeforeValue();
  AppendFormatted(&out_, "%.17g", value);
}

void JsonWriter::FixedDouble(double value, int precision) {
  if (!std::isfinite(value)) {
    Null();
    return;
  }
  BeforeValue();
  AppendFormatted(&out_, "%.*f", precision, value);
}

void JsonWriter::Raw(std::string_view token) {
  BeforeValue();
  out_.append(token.data(), token.size());
}

namespace {

/// Recursive-descent parser building a JsonValue tree. Tracks position
/// for error messages; depth-capped so malicious nesting cannot blow the
/// stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Run(JsonValue* out, std::string* error) {
    SkipWs();
    bool ok = Value(out, 0) && (SkipWs(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = error_.empty()
                   ? "trailing bytes at offset " + std::to_string(pos_)
                   : error_;
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool HexQuad(uint32_t* out) {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size() ||
          !isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad \\u escape");
      }
      char c = text_[pos_++];
      uint32_t digit = c <= '9'   ? static_cast<uint32_t>(c - '0')
                       : c <= 'F' ? static_cast<uint32_t>(c - 'A' + 10)
                                  : static_cast<uint32_t>(c - 'a' + 10);
      value = value * 16 + digit;
    }
    *out = value;
    return true;
  }

  bool StringValue(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected '\"'");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      unsigned char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Fail("unescaped control character");
      if (c != '\\') {
        *out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          if (!HexQuad(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("lone high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            if (!HexQuad(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(out, cp);
          break;
        }
        default: return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool NumberValue(JsonValue* out) {
    size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("bad number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad fraction");
      }
      while (pos_ < text_.size() &&
             isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("bad exponent");
      }
      while (pos_ < text_.size() &&
             isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out->is_int = true;
        out->integer = static_cast<int64_t>(v);
      }
    }
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ObjectValue(out, depth);
      case '[': return ArrayValue(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return StringValue(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default: return NumberValue(out);
    }
  }

  bool ObjectValue(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!StringValue(&key)) return false;
      for (const auto& [existing, unused] : out->members) {
        if (existing == key) return Fail("duplicate key \"" + key + "\"");
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ArrayValue(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->elements.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool JsonIsValid(std::string_view text, std::string* error) {
  JsonValue scratch;
  return JsonParse(text, &scratch, error);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool JsonParse(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return JsonParser(text).Run(out, error);
}

}  // namespace stir::obs
