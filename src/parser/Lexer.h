//===- parser/Lexer.h - MiniC tokenizer -------------------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for MiniC, the C subset Kremlin profiles in this reproduction.
/// Supports identifiers, integer/float literals, the usual operator set,
/// line ('//') and block comments.
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PARSER_LEXER_H
#define KREMLIN_PARSER_LEXER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace kremlin {

/// Token kinds produced by the MiniC lexer, in tokKindName's table order.
enum class TokKind : unsigned char {
  Eof, Ident, IntLit, FloatLit,
  // Keywords.
  KwInt, KwFloat, KwVoid, KwIf, KwElse, KwFor, KwWhile, KwReturn,
  // Punctuation and operators.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket, Comma, Semi,
  Assign, Plus, Minus, Star, Slash, Percent, EqEq, NotEq, Less, LessEq,
  Greater, GreaterEq, AndAnd, OrOr, Not
};

/// Returns a printable token-kind name for diagnostics.
const char *tokKindName(TokKind Kind);

/// One lexed token with its source position. Trivially copyable: Text
/// views the token's spelling in the lexed source, so a token must not
/// outlive that source, and no token owns a string.
struct Token {
  TokKind Kind = TokKind::Eof;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string_view Text; ///< Empty for Eof.
  int64_t IntValue = 0;
  double FloatValue = 0.0;
};
static_assert(std::is_trivially_copyable_v<Token>);

/// Produces the tokens of one source buffer on demand, in one pass over a
/// character-class table. Lexical errors go to the error list given at
/// construction; the offending character is skipped.
class Lexer {
public:
  Lexer(std::string_view Source, std::vector<std::string> &Errors)
      : P(Source.data()), End(Source.data() + Source.size()), LineStart(P),
        Errors(Errors) {}

  /// The next token; Eof at the end of the source, and from then on.
  Token next();

private:
  const char *P;
  const char *End;
  const char *LineStart;
  unsigned Line = 1;
  std::vector<std::string> &Errors;

  unsigned col(const char *At) const {
    return static_cast<unsigned>(At - LineStart) + 1;
  }
  void lexNumber(Token &T);
};

/// Lexes \p Source completely, ending with an Eof token.
std::vector<Token> lexSource(std::string_view Source,
                             std::vector<std::string> &Errors);

} // namespace kremlin

#endif // KREMLIN_PARSER_LEXER_H
