//===- tests/LexerTest.cpp - MiniC lexer tests ----------------------------===//

#include "parser/Lexer.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <limits>

using namespace kremlin;

namespace {

/// Tokens view their spelling in the source, so every test lexes a string
/// literal, which outlives its tokens.
std::vector<Token> lexOk(std::string_view Src) {
  std::vector<std::string> Errors;
  std::vector<Token> Toks = lexSource(Src, Errors);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  return Toks;
}

TEST(Lexer, Keywords) {
  std::vector<Token> T = lexOk("int float double void if else for while return");
  ASSERT_EQ(T.size(), 10u); // 9 + EOF.
  EXPECT_EQ(T[0].Kind, TokKind::KwInt);
  EXPECT_EQ(T[1].Kind, TokKind::KwFloat);
  EXPECT_EQ(T[2].Kind, TokKind::KwFloat); // double aliases float.
  EXPECT_EQ(T[3].Kind, TokKind::KwVoid);
  EXPECT_EQ(T[4].Kind, TokKind::KwIf);
  EXPECT_EQ(T[5].Kind, TokKind::KwElse);
  EXPECT_EQ(T[6].Kind, TokKind::KwFor);
  EXPECT_EQ(T[7].Kind, TokKind::KwWhile);
  EXPECT_EQ(T[8].Kind, TokKind::KwReturn);
  EXPECT_EQ(T[9].Kind, TokKind::Eof);
}

TEST(Lexer, IdentifiersAndNumbers) {
  std::vector<Token> T = lexOk("foo _bar x1 42 3.5 1e3 2.5e-2");
  EXPECT_EQ(T[0].Kind, TokKind::Ident);
  EXPECT_EQ(T[0].Text, "foo");
  EXPECT_EQ(T[1].Text, "_bar");
  EXPECT_EQ(T[2].Text, "x1");
  EXPECT_EQ(T[3].Kind, TokKind::IntLit);
  EXPECT_EQ(T[3].IntValue, 42);
  EXPECT_EQ(T[4].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(T[4].FloatValue, 3.5);
  EXPECT_EQ(T[5].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(T[5].FloatValue, 1000.0);
  EXPECT_DOUBLE_EQ(T[6].FloatValue, 0.025);
}

TEST(Lexer, Operators) {
  std::vector<Token> T =
      lexOk("+ - * / % = == != < <= > >= && || ! ( ) { } [ ] , ;");
  TokKind Expected[] = {
      TokKind::Plus,     TokKind::Minus,    TokKind::Star,
      TokKind::Slash,    TokKind::Percent,  TokKind::Assign,
      TokKind::EqEq,     TokKind::NotEq,    TokKind::Less,
      TokKind::LessEq,   TokKind::Greater,  TokKind::GreaterEq,
      TokKind::AndAnd,   TokKind::OrOr,     TokKind::Not,
      TokKind::LParen,   TokKind::RParen,   TokKind::LBrace,
      TokKind::RBrace,   TokKind::LBracket, TokKind::RBracket,
      TokKind::Comma,    TokKind::Semi};
  for (size_t I = 0; I < sizeof(Expected) / sizeof(Expected[0]); ++I)
    EXPECT_EQ(T[I].Kind, Expected[I]) << "token " << I;
}

TEST(Lexer, Comments) {
  std::vector<Token> T = lexOk("a // line comment\nb /* block\n comment */ c");
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[2].Text, "c");
}

TEST(Lexer, LineAndColumnTracking) {
  std::vector<Token> T = lexOk("a\n  b\nccc d");
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[0].Col, 1u);
  EXPECT_EQ(T[1].Line, 2u);
  EXPECT_EQ(T[1].Col, 3u);
  EXPECT_EQ(T[2].Line, 3u);
  EXPECT_EQ(T[3].Line, 3u);
  EXPECT_EQ(T[3].Col, 5u);
}

TEST(Lexer, ErrorsReported) {
  std::vector<std::string> Errors;
  lexSource("a & b", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("stray '&'"), std::string::npos);

  Errors.clear();
  lexSource("x @ y # z", Errors);
  EXPECT_EQ(Errors.size(), 2u);

  Errors.clear();
  lexSource("/* never closed", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("unterminated"), std::string::npos);
}

TEST(Lexer, IntLiteralPastInt64MaxSaturates) {
  // Literal values are strtoll's: out-of-range digits saturate.
  std::vector<Token> T = lexOk(
      "9223372036854775807 9223372036854775808 99999999999999999999");
  ASSERT_EQ(T.size(), 4u);
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_EQ(T[I].Kind, TokKind::IntLit) << "token " << I;
    EXPECT_EQ(T[I].IntValue, std::numeric_limits<int64_t>::max())
        << "token " << I;
  }
  EXPECT_EQ(T[2].Text, "99999999999999999999");
}

TEST(Lexer, FloatLiteralEdgeForms) {
  // An exponent marker without digits still makes a float literal, whose
  // value is strtod's reading of the longest valid prefix.
  std::vector<Token> T = lexOk("1e 1e+ .5 5. 1e999 1e-999");
  ASSERT_EQ(T.size(), 7u);
  const char *Texts[] = {"1e", "1e+", ".5", "5.", "1e999", "1e-999"};
  double Values[] = {1.0, 1.0, 0.5, 5.0,
                     std::numeric_limits<double>::infinity(), 0.0};
  for (unsigned I = 0; I < 6; ++I) {
    EXPECT_EQ(T[I].Kind, TokKind::FloatLit) << "token " << I;
    EXPECT_EQ(T[I].Text, Texts[I]);
    EXPECT_EQ(T[I].FloatValue, Values[I]) << "token " << I;
  }
  EXPECT_EQ(T[2].Col, 8u);
}

TEST(Lexer, HexPrefixLexesZeroThenIdentifier) {
  std::vector<Token> T = lexOk("0x1F");
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Kind, TokKind::IntLit);
  EXPECT_EQ(T[0].Text, "0");
  EXPECT_EQ(T[0].IntValue, 0);
  EXPECT_EQ(T[1].Kind, TokKind::Ident);
  EXPECT_EQ(T[1].Text, "x1F");
  EXPECT_EQ(T[1].Col, 2u);
}

TEST(Lexer, CrlfAndTabsCountOneColumnEach) {
  std::vector<Token> T = lexOk("a\r\n\tb\r\n  c");
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[0].Col, 1u);
  EXPECT_EQ(T[1].Line, 2u);
  EXPECT_EQ(T[1].Col, 2u);
  EXPECT_EQ(T[2].Line, 3u);
  EXPECT_EQ(T[2].Col, 3u);
  EXPECT_EQ(T[3].Kind, TokKind::Eof);
  EXPECT_EQ(T[3].Line, 3u);
  EXPECT_EQ(T[3].Col, 4u);
}

TEST(Lexer, TokenAfterMultiLineBlockComment) {
  std::vector<Token> T = lexOk("x /* one\ntwo\n three */ y");
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[1].Text, "y");
  EXPECT_EQ(T[1].Line, 3u);
  EXPECT_EQ(T[1].Col, 11u);
}

TEST(Lexer, HighAndNulBytesReportedWithPosition) {
  std::vector<std::string> Errors;
  std::vector<Token> T =
      lexSource(std::string_view("a \xE9 b\n\0c", 8), Errors);
  ASSERT_EQ(Errors.size(), 2u);
  EXPECT_EQ(Errors[0], "1:3: unexpected character '\xE9'");
  EXPECT_EQ(Errors[1], std::string("2:1: unexpected character '\0'", 29));
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[1].Col, 5u);
  EXPECT_EQ(T[2].Text, "c");
  EXPECT_EQ(T[2].Line, 2u);
  EXPECT_EQ(T[2].Col, 2u);
}

TEST(Lexer, EmptyInput) {
  std::vector<Token> T = lexOk("");
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Kind, TokKind::Eof);
}

} // namespace
