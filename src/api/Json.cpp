//===- api/Json.cpp -------------------------------------------------------===//

#include "api/Json.h"

#include "support/Error.h"
#include "support/Format.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace offchip;

//===----------------------------------------------------------------------===//
// Number formatting, shared by the DOM and the streaming writer
//===----------------------------------------------------------------------===//

namespace {

/// Longest token either formatter produces ("-1.2345678901234567e-308").
constexpr std::size_t NumberBufSize = 32;

std::string_view formatNumber(char (&Buf)[NumberBufSize], std::uint64_t V) {
  std::to_chars_result R = std::to_chars(Buf, Buf + NumberBufSize, V);
  return {Buf, static_cast<std::size_t>(R.ptr - Buf)};
}

std::string_view formatNumber(char (&Buf)[NumberBufSize], double V) {
  // JSON has no inf/nan; the simulator never produces them, but don't emit
  // an unparsable document if a bug does.
  if (!std::isfinite(V))
    return "0";
  // Precision 17 round-trips every finite IEEE double through strtod
  // exactly; general format with it is %.17g by definition.
  std::to_chars_result R = std::to_chars(Buf, Buf + NumberBufSize, V,
                                         std::chars_format::general, 17);
  return {Buf, static_cast<std::size_t>(R.ptr - Buf)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

JsonValue JsonValue::boolean(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.BoolV = V;
  return J;
}

JsonValue JsonValue::number(double V) {
  char Buf[NumberBufSize];
  return rawNumber(std::string(formatNumber(Buf, V)));
}

JsonValue JsonValue::number(std::uint64_t V) {
  char Buf[NumberBufSize];
  return rawNumber(std::string(formatNumber(Buf, V)));
}

JsonValue JsonValue::rawNumber(std::string Token) {
  JsonValue J;
  J.K = Kind::Number;
  J.Text = std::move(Token);
  return J;
}

JsonValue JsonValue::string(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Text = std::move(V);
  return J;
}

JsonValue JsonValue::array() {
  JsonValue J;
  J.K = Kind::Array;
  return J;
}

JsonValue JsonValue::object() {
  JsonValue J;
  J.K = Kind::Object;
  return J;
}

//===----------------------------------------------------------------------===//
// Accessors
//===----------------------------------------------------------------------===//

bool JsonValue::asBool() const {
  if (K != Kind::Bool)
    reportFatalError("JsonValue::asBool on non-bool");
  return BoolV;
}

double JsonValue::asDouble() const {
  if (K != Kind::Number)
    reportFatalError("JsonValue::asDouble on non-number");
  return std::strtod(Text.c_str(), nullptr);
}

std::uint64_t JsonValue::asU64() const {
  if (K != Kind::Number)
    reportFatalError("JsonValue::asU64 on non-number");
  // Integer tokens parse exactly (strtod would truncate above 2^53);
  // fractional/exponent tokens fall back to the double value.
  if (Text.find_first_of(".eE") == std::string::npos)
    return std::strtoull(Text.c_str(), nullptr, 10);
  return static_cast<std::uint64_t>(asDouble());
}

const std::string &JsonValue::asString() const {
  if (K != Kind::String)
    reportFatalError("JsonValue::asString on non-string");
  return Text;
}

const std::string &JsonValue::numberToken() const {
  if (K != Kind::Number)
    reportFatalError("JsonValue::numberToken on non-number");
  return Text;
}

void JsonValue::push(JsonValue V) {
  if (K != Kind::Array)
    reportFatalError("JsonValue::push on non-array");
  Items.push_back(std::move(V));
}

void JsonValue::set(std::string Key, JsonValue V) {
  if (K != Kind::Object)
    reportFatalError("JsonValue::set on non-object");
  for (auto &M : Members) {
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  }
  Members.emplace_back(std::move(Key), std::move(V));
}

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

bool needsEscape(char C) {
  return C == '"' || C == '\\' || static_cast<unsigned char>(C) < 0x20;
}

void writeEscaped(std::string_view S, std::string &Out) {
  Out += '"';
  const char *P = S.data(), *End = P + S.size();
  while (P != End) {
    // Copy the run up to the next character that needs an escape in bulk.
    const char *Run = P;
    while (P != End && !needsEscape(*P))
      ++P;
    Out.append(Run, static_cast<std::size_t>(P - Run));
    if (P == End)
      break;
    switch (char C = *P++) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      static const char Hex[] = "0123456789abcdef";
      const char Esc[] = {'\\', 'u', '0', '0', Hex[(C >> 4) & 0xF],
                          Hex[C & 0xF]};
      Out.append(Esc, sizeof(Esc));
    }
    }
  }
  Out += '"';
}

} // namespace

void JsonWriter::key(std::string_view K) {
  separate();
  writeEscaped(K, Out);
  Out += ':';
  NeedComma = false;
}

void JsonWriter::value(std::uint64_t V) {
  char Buf[NumberBufSize];
  raw(formatNumber(Buf, V));
}

void JsonWriter::value(double V) {
  char Buf[NumberBufSize];
  raw(formatNumber(Buf, V));
}

void JsonWriter::value(bool V) { raw(V ? "true" : "false"); }

void JsonWriter::value(std::string_view V) {
  separate();
  writeEscaped(V, Out);
}

void JsonWriter::null() { raw("null"); }

void JsonWriter::raw(std::string_view Token) {
  separate();
  Out += Token;
}

void JsonValue::writeTo(JsonWriter &W) const {
  switch (K) {
  case Kind::Null:
    W.null();
    return;
  case Kind::Bool:
    W.value(BoolV);
    return;
  case Kind::Number:
    W.raw(Text);
    return;
  case Kind::String:
    W.value(std::string_view(Text));
    return;
  case Kind::Array:
    W.beginArray();
    for (const JsonValue &Item : Items)
      Item.writeTo(W);
    W.endArray();
    return;
  case Kind::Object:
    W.beginObject();
    for (const auto &[Key, Value] : Members) {
      W.key(Key);
      Value.writeTo(W);
    }
    W.endObject();
    return;
  }
}

std::string JsonValue::write() const {
  std::string Out;
  JsonWriter W(Out);
  writeTo(W);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Err)
      : S(Text), Err(Err) {}

  std::optional<JsonValue> run() {
    skipWs();
    JsonValue V;
    if (!parseValue(V))
      return std::nullopt;
    skipWs();
    if (Pos != S.size())
      return fail("trailing garbage after document");
    return V;
  }

private:
  const std::string &S;
  std::string *Err;
  std::size_t Pos = 0;
  unsigned Depth = 0;

  std::optional<JsonValue> fail(const std::string &Msg) {
    if (Err)
      *Err = formatString("JSON error at byte %zu: %s", Pos, Msg.c_str());
    return std::nullopt;
  }
  bool failB(const std::string &Msg) {
    fail(Msg);
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    std::size_t N = std::strlen(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return failB(formatString("expected '%s'", Lit));
    Pos += N;
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Depth > 128)
      return failB("nesting too deep");
    if (Pos >= S.size())
      return failB("unexpected end of input");
    switch (S[Pos]) {
    case 'n':
      return literal("null") && (Out = JsonValue::null(), true);
    case 't':
      return literal("true") && (Out = JsonValue::boolean(true), true);
    case 'f':
      return literal("false") && (Out = JsonValue::boolean(false), true);
    case '"': {
      std::string V;
      if (!parseString(V))
        return false;
      Out = JsonValue::string(std::move(V));
      return true;
    }
    case '[':
      return parseArray(Out);
    case '{':
      return parseObject(Out);
    default:
      return parseNumber(Out);
    }
  }

  bool parseNumber(JsonValue &Out) {
    std::size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    if (Pos >= S.size() || !isdigit(static_cast<unsigned char>(S[Pos])))
      return failB("invalid number");
    while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      if (Pos >= S.size() || !isdigit(static_cast<unsigned char>(S[Pos])))
        return failB("invalid number: digits must follow '.'");
      while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      if (Pos >= S.size() || !isdigit(static_cast<unsigned char>(S[Pos])))
        return failB("invalid number: digits must follow exponent");
      while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    Out = JsonValue::rawNumber(S.substr(Start, Pos - Start));
    return true;
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > S.size())
      return failB("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = S[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return failB("invalid \\u escape digit");
    }
    return true;
  }

  void appendUtf8(unsigned Cp, std::string &Out) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    while (true) {
      if (Pos >= S.size())
        return failB("unterminated string");
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return failB("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= S.size())
        return failB("truncated escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp;
        if (!parseHex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) { // high surrogate
          if (Pos + 1 < S.size() && S[Pos] == '\\' && S[Pos + 1] == 'u') {
            Pos += 2;
            unsigned Lo;
            if (!parseHex4(Lo))
              return false;
            if (Lo >= 0xDC00 && Lo <= 0xDFFF)
              Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
            else
              return failB("invalid low surrogate");
          } else {
            return failB("lone high surrogate");
          }
        }
        appendUtf8(Cp, Out);
        break;
      }
      default:
        return failB("unknown escape");
      }
    }
  }

  bool parseArray(JsonValue &Out) {
    ++Pos; // '['
    ++Depth;
    Out = JsonValue::array();
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      --Depth;
      return true;
    }
    while (true) {
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.push(std::move(V));
      skipWs();
      if (Pos >= S.size())
        return failB("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        skipWs();
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        --Depth;
        return true;
      }
      return failB("expected ',' or ']' in array");
    }
  }

  bool parseObject(JsonValue &Out) {
    ++Pos; // '{'
    ++Depth;
    Out = JsonValue::object();
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      --Depth;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"')
        return failB("expected string key in object");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return failB("expected ':' after object key");
      ++Pos;
      skipWs();
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.set(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= S.size())
        return failB("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        --Depth;
        return true;
      }
      return failB("expected ',' or '}' in object");
    }
  }
};

} // namespace

std::optional<JsonValue> offchip::parseJson(const std::string &Text,
                                            std::string *Err) {
  return Parser(Text, Err).run();
}
