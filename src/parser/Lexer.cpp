//===- parser/Lexer.cpp ---------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <utility>

using namespace kremlin;

const char *kremlin::tokKindName(TokKind Kind) {
  static constexpr const char *Names[] = {
      "end of file", "identifier", "integer literal", "float literal",
      "'int'",       "'float'",    "'void'",          "'if'",
      "'else'",      "'for'",      "'while'",         "'return'",
      "'('",         "')'",        "'{'",             "'}'",
      "'['",         "']'",        "','",             "';'",
      "'='",         "'+'",        "'-'",             "'*'",
      "'/'",         "'%'",        "'=='",            "'!='",
      "'<'",         "'<='",       "'>'",             "'>='",
      "'&&'",        "'||'",       "'!'"};
  static_assert(std::size(Names) == static_cast<size_t>(TokKind::Not) + 1);
  auto Index = static_cast<size_t>(Kind);
  return Index < std::size(Names) ? Names[Index] : "?";
}

namespace {

/// Character classes of the C locale's isspace, isalpha/'_' and isdigit.
enum : uint8_t { Space = 1, IdentStart = 2, Digit = 4 };

constexpr std::array<uint8_t, 256> CharClass = [] {
  std::array<uint8_t, 256> Table{};
  for (unsigned char C : std::string_view(" \t\n\v\f\r"))
    Table[C] = Space;
  for (unsigned C = 0; C < 26; ++C)
    Table['a' + C] = Table['A' + C] = IdentStart;
  Table['_'] = IdentStart;
  for (unsigned C = '0'; C <= '9'; ++C)
    Table[C] = Digit;
  return Table;
}();

bool isClass(char C, uint8_t Classes) {
  return CharClass[static_cast<unsigned char>(C)] & Classes;
}

/// The token a one-character operator or punctuator makes; Eof for every
/// other character.
constexpr std::array<TokKind, 256> OneCharTok = [] {
  std::array<TokKind, 256> Table{};
  const std::pair<char, TokKind> Tokens[] = {
      {'(', TokKind::LParen},   {')', TokKind::RParen},
      {'{', TokKind::LBrace},   {'}', TokKind::RBrace},
      {'[', TokKind::LBracket}, {']', TokKind::RBracket},
      {',', TokKind::Comma},    {';', TokKind::Semi},
      {'+', TokKind::Plus},     {'-', TokKind::Minus},
      {'*', TokKind::Star},     {'/', TokKind::Slash},
      {'%', TokKind::Percent},  {'=', TokKind::Assign},
      {'!', TokKind::Not},      {'<', TokKind::Less},
      {'>', TokKind::Greater}};
  for (auto [C, Kind] : Tokens)
    Table[static_cast<unsigned char>(C)] = Kind;
  return Table;
}();

/// The two-character token \p Kind makes when '=' follows it, else Eof.
TokKind withEquals(TokKind Kind) {
  switch (Kind) {
  case TokKind::Assign:
    return TokKind::EqEq;
  case TokKind::Not:
    return TokKind::NotEq;
  case TokKind::Less:
    return TokKind::LessEq;
  case TokKind::Greater:
    return TokKind::GreaterEq;
  default:
    return TokKind::Eof;
  }
}

TokKind keywordKind(std::string_view Word) {
  switch (Word.size()) {
  case 2:
    return Word == "if" ? TokKind::KwIf : TokKind::Ident;
  case 3:
    return Word == "int"   ? TokKind::KwInt
           : Word == "for" ? TokKind::KwFor
                           : TokKind::Ident;
  case 4:
    return Word == "void"   ? TokKind::KwVoid
           : Word == "else" ? TokKind::KwElse
                            : TokKind::Ident;
  case 5:
    return Word == "float"   ? TokKind::KwFloat
           : Word == "while" ? TokKind::KwWhile
                             : TokKind::Ident;
  case 6:
    return Word == "double"   ? TokKind::KwFloat
           : Word == "return" ? TokKind::KwReturn
                              : TokKind::Ident;
  default:
    return TokKind::Ident;
  }
}

/// strtod's value for a float literal's spelling, read in place; only a
/// value out of double's range takes strtod itself (for its inf or 0).
double floatValue(std::string_view Text) {
  const char *First = Text.data();
  const char *Last = First + Text.size();
  double Value = 0.0;
  if (std::from_chars(First, Last, Value).ec == std::errc())
    return Value;
  return std::strtod(std::string(Text).c_str(), nullptr);
}

} // namespace

void Lexer::lexNumber(Token &T) {
  const char *Start = P;
  // strtoll's value: decimal digits, saturating at INT64_MAX.
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  int64_t Value = 0;
  for (; P < End && isClass(*P, Digit); ++P) {
    int D = *P - '0';
    Value = Value > (Max - D) / 10 ? Max : Value * 10 + D;
  }
  auto SkipDigits = [&] {
    while (P < End && isClass(*P, Digit))
      ++P;
  };
  bool IsFloat = false;
  if (P < End && *P == '.') {
    IsFloat = true;
    ++P;
    SkipDigits();
  }
  if (P < End && (*P == 'e' || *P == 'E')) {
    IsFloat = true;
    ++P;
    if (P < End && (*P == '+' || *P == '-'))
      ++P;
    SkipDigits();
  }
  T.Text = std::string_view(Start, static_cast<size_t>(P - Start));
  T.Kind = IsFloat ? TokKind::FloatLit : TokKind::IntLit;
  if (IsFloat)
    T.FloatValue = floatValue(T.Text);
  else
    T.IntValue = Value;
}

Token Lexer::next() {
  Token T;
  for (;;) {
    T.Line = Line;
    T.Col = col(P);
    if (P == End)
      return T;
    const char *Start = P;
    char C = *P;
    bool More = P + 1 < End;
    if (isClass(C, Space)) {
      if (C == '\n') {
        ++Line;
        LineStart = P + 1;
      }
      ++P;
      continue;
    }
    if (C == '/' && More && P[1] == '/') {
      P = std::find(P, End, '\n');
      continue;
    }
    if (C == '/' && More && P[1] == '*') {
      for (P += 2; P < End && !(*P == '*' && P + 1 < End && P[1] == '/'); ++P)
        if (*P == '\n') {
          ++Line;
          LineStart = P + 1;
        }
      if (P == End)
        Errors.push_back(formatString("%u:%u: unterminated block comment",
                                      T.Line, T.Col));
      else
        P += 2;
      continue;
    }
    if (isClass(C, IdentStart)) {
      do
        ++P;
      while (P < End && isClass(*P, IdentStart | Digit));
      T.Text = std::string_view(Start, static_cast<size_t>(P - Start));
      T.Kind = keywordKind(T.Text);
      return T;
    }
    if (isClass(C, Digit) || (C == '.' && More && isClass(P[1], Digit))) {
      lexNumber(T);
      return T;
    }

    ++P;
    T.Kind = OneCharTok[static_cast<unsigned char>(C)];
    if (T.Kind != TokKind::Eof) {
      TokKind Longer = withEquals(T.Kind);
      if (Longer != TokKind::Eof && P < End && *P == '=') {
        ++P;
        T.Kind = Longer;
      }
    } else if ((C == '&' || C == '|') && P < End && *P == C) {
      ++P;
      T.Kind = C == '&' ? TokKind::AndAnd : TokKind::OrOr;
    } else {
      if (C == '&')
        Errors.push_back(formatString("%u:%u: stray '&' (MiniC has no "
                                      "bitwise ops or address-of)",
                                      T.Line, T.Col));
      else if (C == '|')
        Errors.push_back(formatString("%u:%u: stray '|'", T.Line, T.Col));
      else
        Errors.push_back(formatString("%u:%u: unexpected character '%c'",
                                      T.Line, T.Col, C));
      continue;
    }
    T.Text = std::string_view(Start, static_cast<size_t>(P - Start));
    return T;
  }
}

std::vector<Token> kremlin::lexSource(std::string_view Source,
                                      std::vector<std::string> &Errors) {
  std::vector<Token> Toks;
  Lexer Lex(Source, Errors);
  do
    Toks.push_back(Lex.next());
  while (Toks.back().Kind != TokKind::Eof);
  return Toks;
}
