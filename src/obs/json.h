#ifndef STIR_OBS_JSON_H_
#define STIR_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stir::obs {

/// Streaming JSON writer shared by the observability exporters and the
/// versioned study report. Commas and key/value separators are inserted
/// automatically; the caller only states structure:
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("schema_version"); w.Int(2);
///   w.Key("stages"); w.BeginArray(); w.String("refinement"); w.EndArray();
///   w.EndObject();
///   std::string doc = w.TakeString();
///
/// Scope misuse (ending an unopened scope, a value without a key inside an
/// object) is a programmer error and is reported through Ok()/error() so
/// exporters can assert in tests without aborting production runs.
class JsonWriter {
 public:
  JsonWriter();

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Names the next value; valid only directly inside an object.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Bool(bool value);
  void Null();
  /// Shortest round-trip rendering (%.17g with NaN/Inf mapped to null,
  /// which JSON cannot represent).
  void Double(double value);
  /// Fixed-point rendering for report fields that pin their precision.
  void FixedDouble(double value, int precision);
  /// Pre-rendered token the caller guarantees is valid JSON.
  void Raw(std::string_view token);

  /// True while every call so far respected the grammar.
  bool Ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Finished document. Valid only once all scopes are closed.
  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  enum class Scope { kObject, kArray };
  void BeforeValue();
  void Fail(std::string_view what);

  std::string out_;
  std::string error_;
  struct Frame {
    Scope scope;
    int count = 0;
    bool key_pending = false;  ///< Object frame saw Key(), awaits value.
  };
  std::vector<Frame> stack_;
  bool root_written_ = false;
};

/// Escapes `raw` per RFC 8259 (quotes, backslash, control characters).
/// Returns the escaped body without surrounding quotes.
std::string JsonEscape(std::string_view raw);

/// Minimal JSON document tree, the read-side counterpart of JsonWriter.
/// Produced by JsonParse for consumers that must *interpret* incoming
/// JSON (the serve request protocol); exporters keep using JsonWriter.
/// Numbers keep both views: `number` always holds the double value, and
/// when the token was integral and fits, `is_int`/`integer` hold the
/// exact int64 (the protocol layer rejects non-integral ids/params).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  bool is_int = false;
  int64_t integer = 0;
  std::string string;                  ///< kString payload (unescaped).
  std::vector<JsonValue> elements;     ///< kArray payload.
  /// kObject payload in document order. Duplicate keys are a parse error
  /// (stricter than RFC 8259, which leaves them undefined).
  std::vector<std::pair<std::string, JsonValue>> members;

  bool IsObject() const { return kind == Kind::kObject; }
  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Strict recursive-descent parse of a complete JSON document into a
/// JsonValue tree: RFC 8259 grammar with a nesting-depth cap, no
/// trailing bytes, and unique object keys; \uXXXX escapes are decoded to
/// UTF-8 (surrogate pairs included, lone surrogates rejected). On
/// failure returns false and, when `error` is non-null, a byte offset +
/// reason.
bool JsonParse(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

/// Strict JSON validity check: JsonParse into a scratch value, so it
/// accepts exactly what JsonParse accepts — stricter than RFC 8259 in
/// that duplicate object keys and lone surrogate escapes fail. Used by
/// the observability tests and available to harnesses that want to lint
/// emitted documents without a JSON library dependency. On failure,
/// `error` (when non-null) receives a byte offset + reason.
bool JsonIsValid(std::string_view text, std::string* error = nullptr);

}  // namespace stir::obs

#endif  // STIR_OBS_JSON_H_
