//===- support/Json.h - Minimal JSON value, parser, writer ------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON library for the bench/regression tooling:
/// an insertion-ordered value type, a strict recursive-descent parser, and
/// a pretty-printing serializer whose number formatting round-trips
/// doubles. Objects preserve insertion order so emitted reports stay in
/// suite order and diffs against checked-in baselines are stable.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_SUPPORT_JSON_H
#define KREMLIN_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kremlin {

/// One JSON value (null, bool, number, string, array, or object).
class JsonValue {
public:
  enum class Kind : unsigned char { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  JsonValue(bool V) : K(Kind::Bool), Boolean(V) {}
  JsonValue(double V) : K(Kind::Number), Number(V) {}
  JsonValue(int V) : K(Kind::Number), Number(V) {}
  JsonValue(unsigned V) : K(Kind::Number), Number(V) {}
  JsonValue(uint64_t V) : K(Kind::Number), Number(static_cast<double>(V)) {}
  JsonValue(const char *V) : K(Kind::String), Str(V) {}
  JsonValue(std::string V) : K(Kind::String), Str(std::move(V)) {}

  static JsonValue makeArray() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue makeObject() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool(bool Default = false) const {
    return isBool() ? Boolean : Default;
  }
  double asNumber(double Default = 0.0) const {
    return isNumber() ? Number : Default;
  }
  const std::string &asString() const { return Str; }

  /// Array access.
  size_t size() const {
    return isArray() ? Arr.size() : (isObject() ? Members.size() : 0);
  }
  const JsonValue &at(size_t I) const { return Arr[I]; }
  void push(JsonValue V) { Arr.push_back(std::move(V)); }

  /// Object access: members in insertion order.
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }
  /// Sets \p Key (replacing an existing member of the same name).
  void set(std::string_view Key, JsonValue V);
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue *get(std::string_view Key) const;
  /// Numeric member shorthand with default.
  double getNumber(std::string_view Key, double Default = 0.0) const {
    const JsonValue *V = get(Key);
    return V && V->isNumber() ? V->Number : Default;
  }

  /// Serializes with two-space indentation (\p Indent is the starting
  /// depth). Number formatting picks the shortest representation that
  /// round-trips the double.
  std::string serialize(unsigned Indent = 0) const;

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error). Returns false and fills \p Error with a position-annotated
  /// message on malformed input.
  static bool parse(std::string_view Text, JsonValue &Out,
                    std::string *Error = nullptr);

private:
  Kind K;
  bool Boolean = false;
  double Number = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Formats \p V the way the serializer does (shortest round-trip form).
std::string formatJsonNumber(double V);

/// Appends \p S to \p Out as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
void appendJsonString(std::string &Out, std::string_view S);

/// Reads an entire file into \p Out; false on I/O failure.
bool readFileToString(const std::string &Path, std::string &Out);

/// Writes \p Text to \p Path atomically enough for our purposes (truncate
/// + write); false on I/O failure.
bool writeStringToFile(const std::string &Path, std::string_view Text);

} // namespace kremlin

#endif // KREMLIN_SUPPORT_JSON_H
