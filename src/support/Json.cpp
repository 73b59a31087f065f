//===- support/Json.cpp ---------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace kremlin;

void JsonValue::set(std::string_view Key, JsonValue V) {
  K = Kind::Object;
  for (auto &M : Members) {
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  }
  Members.emplace_back(std::string(Key), std::move(V));
}

const JsonValue *JsonValue::get(std::string_view Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

std::string kremlin::formatJsonNumber(double V) {
  if (!std::isfinite(V))
    return "null"; // JSON has no inf/nan; emit null rather than garbage.
  // Integers (the common case for counters) print exactly, without
  // exponent noise, up to the 2^53 precision limit.
  if (V == std::floor(V) && std::fabs(V) < 9.007199254740992e15)
    return formatString("%.0f", V);
  // Shortest form that round-trips: try increasing precision.
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::string S = formatString("%.*g", Prec, V);
    if (std::strtod(S.c_str(), nullptr) == V)
      return S;
  }
  return formatString("%.17g", V);
}

void kremlin::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
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
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

static void serializeInto(const JsonValue &V, std::string &Out,
                          unsigned Depth) {
  const std::string Pad(2 * (Depth + 1), ' ');
  const std::string ClosePad(2 * Depth, ' ');
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case JsonValue::Kind::Number:
    Out += formatJsonNumber(V.asNumber());
    break;
  case JsonValue::Kind::String:
    appendJsonString(Out, V.asString());
    break;
  case JsonValue::Kind::Array: {
    if (V.size() == 0) {
      Out += "[]";
      break;
    }
    Out += "[\n";
    for (size_t I = 0; I < V.size(); ++I) {
      Out += Pad;
      serializeInto(V.at(I), Out, Depth + 1);
      if (I + 1 < V.size())
        Out += ',';
      Out += '\n';
    }
    Out += ClosePad + "]";
    break;
  }
  case JsonValue::Kind::Object: {
    if (V.members().empty()) {
      Out += "{}";
      break;
    }
    Out += "{\n";
    size_t I = 0;
    for (const auto &M : V.members()) {
      Out += Pad;
      appendJsonString(Out, M.first);
      Out += ": ";
      serializeInto(M.second, Out, Depth + 1);
      if (++I < V.members().size())
        Out += ',';
      Out += '\n';
    }
    Out += ClosePad + "}";
    break;
  }
  }
}

std::string JsonValue::serialize(unsigned Indent) const {
  std::string Out;
  serializeInto(*this, Out, Indent);
  return Out;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
public:
  Parser(std::string_view Text) : Text(Text) {}

  bool parseDocument(JsonValue &Out, std::string *Error) {
    bool Ok = parseValue(Out, 0);
    if (Ok) {
      skipWhitespace();
      if (Pos != Text.size()) {
        Ok = false;
        Err = "trailing characters after document";
      }
    }
    if (!Ok && Error)
      *Error = formatString("json: at offset %zu: %s", Pos, Err.c_str());
    return Ok;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  std::string_view Text;
  size_t Pos = 0;
  std::string Err;

  void skipWhitespace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool fail(const char *Message) {
    Err = Message;
    return false;
  }

  bool consume(char C, const char *Message) {
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(Message);
    ++Pos;
    return true;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("invalid literal");
    Pos += Word.size();
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWhitespace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue(std::move(S));
      return true;
    }
    case 't':
      Out = JsonValue(true);
      return literal("true");
    case 'f':
      Out = JsonValue(false);
      return literal("false");
    case 'n':
      Out = JsonValue();
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    ++Pos; // '{'
    Out = JsonValue::makeObject();
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWhitespace();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWhitespace();
      if (!consume(':', "expected ':' in object"))
        return false;
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.set(Key, std::move(V));
      skipWhitespace();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}', "expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    ++Pos; // '['
    Out = JsonValue::makeArray();
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.push(std::move(V));
      skipWhitespace();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']', "expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    if (!consume('"', "expected string"))
      return false;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!parseHex4(Code))
          return false;
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("invalid \\u escape digit");
    }
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected value");
    std::string Lexeme(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double V = std::strtod(Lexeme.c_str(), &End);
    if (End != Lexeme.c_str() + Lexeme.size())
      return fail("malformed number");
    Out = JsonValue(V);
    return true;
  }
};

} // namespace

bool JsonValue::parse(std::string_view Text, JsonValue &Out,
                      std::string *Error) {
  return Parser(Text).parseDocument(Out, Error);
}

bool kremlin::readFileToString(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool kremlin::writeStringToFile(const std::string &Path,
                                std::string_view Text) {
  std::ofstream OutFile(Path, std::ios::binary | std::ios::trunc);
  if (!OutFile)
    return false;
  OutFile.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  return static_cast<bool>(OutFile);
}
