//===- api/Json.h - Minimal JSON value, parser and writer -------*- C++ -*-===//
///
/// \file
/// The JSON layer of the service wire protocol (api/Serialize.h) and of the
/// machine-readable reports: a streaming writer, a DOM value and a parser.
/// Deliberately dependency-free and exact:
///
///   - Numbers are formatted with std::to_chars: unsigned integers as plain
///     digits (simulated cycle counts exceed 2^53), doubles in
///     chars_format::general with precision 17, which the standard defines
///     as printf's %.17g. Both survive a write/parse roundtrip bit-exactly
///     — the property the served-vs-direct bit-identity tests rest on. JSON
///     has no inf or nan; a non-finite double is written as 0.
///   - The DOM stores a number as its source token, so a parsed document
///     writes back byte-identically.
///   - Object members keep insertion order, so serialization is
///     deterministic and responses are byte-stable run to run.
///
/// JsonWriter is the one writer: the wire types stream through it straight
/// into one string, and JsonValue::write() walks the DOM through it.
/// Strings are UTF-8 passthrough; only '"', '\\' and control characters are
/// escaped. The parser's escapes cover the JSON set including \uXXXX
/// (decoded to UTF-8, surrogate pairs supported).
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_JSON_H
#define OFFCHIP_API_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace offchip {

/// Appends one JSON document to a caller-owned string, with no DOM in
/// between. Separators are implicit: a value after another value in the
/// same container gets its comma, and key() supplies the member's colon.
/// The caller keeps the calls well-nested; the writer does not check.
class JsonWriter {
public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  /// An object member's key; the next value() or begin*() is its value.
  void key(std::string_view K);

  void value(std::uint64_t V);
  void value(unsigned V) { value(static_cast<std::uint64_t>(V)); }
  void value(double V);
  void value(bool V);
  void value(std::string_view V);
  void value(const char *V) { value(std::string_view(V)); }
  void null();
  /// A pre-formatted token (a DOM number's source text), written as is.
  void raw(std::string_view Token);

  template <typename T> void member(std::string_view K, const T &V) {
    key(K);
    value(V);
  }

private:
  void separate() {
    if (NeedComma)
      Out += ',';
    NeedComma = true;
  }
  void open(char C) {
    separate();
    Out += C;
    NeedComma = false;
  }
  void close(char C) {
    Out += C;
    NeedComma = true;
  }

  std::string &Out;
  bool NeedComma = false;
};

class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool V);
  static JsonValue number(double V);
  static JsonValue number(std::uint64_t V);
  static JsonValue number(unsigned V) {
    return number(static_cast<std::uint64_t>(V));
  }
  /// A number from its source token (parser internal; also handy in tests).
  static JsonValue rawNumber(std::string Token);
  static JsonValue string(std::string V);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Typed accessors; calling one on a mismatched kind aborts (callers
  /// check kind() first — the deserializers do so with typed diagnostics).
  bool asBool() const;
  double asDouble() const;
  std::uint64_t asU64() const;
  const std::string &asString() const;
  /// The number's source token ("1.5", "18446744073709551615").
  const std::string &numberToken() const;

  // Arrays.
  void push(JsonValue V);
  std::size_t size() const { return Items.size(); }
  const JsonValue &at(std::size_t I) const { return Items[I]; }

  // Objects (insertion-ordered).
  void set(std::string Key, JsonValue V);
  /// Member lookup; nullptr when absent.
  const JsonValue *find(std::string_view Key) const;
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Compact, deterministic serialization (no whitespace, insertion order).
  std::string write() const;

private:
  Kind K = Kind::Null;
  bool BoolV = false;
  std::string Text; // number token or string payload
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  void writeTo(JsonWriter &W) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). On failure returns std::nullopt and fills \p Err with a
/// message that includes the byte offset.
std::optional<JsonValue> parseJson(const std::string &Text,
                                   std::string *Err = nullptr);

} // namespace offchip

#endif // OFFCHIP_API_JSON_H
