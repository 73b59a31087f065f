//===- tests/ParserTest.cpp - MiniC parser tests --------------------------===//

#include "parser/Lower.h"
#include "parser/Parser.h"

#include "gtest/gtest.h"

using namespace kremlin;

namespace {

ProgramAst parseOk(const std::string &Src) {
  ParseResult R = parseMiniC(Src, "test.c");
  EXPECT_TRUE(R.succeeded()) << (R.Errors.empty() ? "" : R.Errors[0]);
  return std::move(R.Program);
}

std::vector<std::string> parseErrors(const std::string &Src) {
  return parseMiniC(Src, "test.c").Errors;
}

TEST(Parser, GlobalArrays) {
  ProgramAst P = parseOk("int a[16];\nfloat m[8][4];\n");
  ASSERT_EQ(P.Globals.size(), 2u);
  EXPECT_EQ(P.name(P.Globals[0].Name), "a");
  EXPECT_EQ(P.Globals[0].Ty, Type::Int);
  ASSERT_EQ(P.Globals[0].Dims.size(), 1u);
  EXPECT_EQ(P.Globals[0].Dims[0], 16u);
  EXPECT_EQ(P.Globals[1].Ty, Type::Float);
  ASSERT_EQ(P.Globals[1].Dims.size(), 2u);
  EXPECT_EQ(P.Globals[1].Dims[1], 4u);
}

TEST(Parser, FunctionSignatures) {
  ProgramAst P = parseOk(
      "void f() {}\nint g(int x, float y) { return x; }\n"
      "float h(float a[], int m[4][4]) { return a[0]; }\n");
  ASSERT_EQ(P.Functions.size(), 3u);
  EXPECT_EQ(P.Functions[0].ReturnTy, Type::Void);
  EXPECT_EQ(P.Functions[0].Params.size(), 0u);
  EXPECT_EQ(P.Functions[1].Params.size(), 2u);
  EXPECT_EQ(P.Functions[1].Params[1].Ty, Type::Float);
  EXPECT_FALSE(P.Functions[1].Params[0].IsArray);
  const FuncDecl &H = P.Functions[2];
  EXPECT_TRUE(H.Params[0].IsArray);
  ASSERT_EQ(H.Params[0].Dims.size(), 1u);
  EXPECT_EQ(H.Params[0].Dims[0], 0u); // Unknown leading dim.
  ASSERT_EQ(H.Params[1].Dims.size(), 2u);
  EXPECT_EQ(H.Params[1].Dims[0], 4u);
}

TEST(Parser, StatementKinds) {
  ProgramAst P = parseOk(R"(
    int a[4];
    void f() {
      int x = 1;
      float y;
      int b[2][3];
      x = x + 1;
      a[x] = 2;
      if (x < 3) { x = 0; } else x = 1;
      for (int i = 0; i < 4; i = i + 1) a[i] = i;
      while (x > 0) x = x - 1;
      f();
      return;
    }
  )");
  const FuncDecl &F = P.Functions[0];
  ASSERT_EQ(F.Body->Body.size(), 10u);
  using K = Stmt::Kind;
  EXPECT_EQ(F.Body->Body[0]->K, K::DeclScalar);
  EXPECT_EQ(F.Body->Body[1]->K, K::DeclScalar);
  EXPECT_EQ(F.Body->Body[2]->K, K::DeclArray);
  EXPECT_EQ(F.Body->Body[3]->K, K::Assign);
  EXPECT_EQ(F.Body->Body[4]->K, K::Assign);
  EXPECT_EQ(F.Body->Body[5]->K, K::If);
  EXPECT_EQ(F.Body->Body[6]->K, K::For);
  EXPECT_EQ(F.Body->Body[7]->K, K::While);
  EXPECT_EQ(F.Body->Body[8]->K, K::ExprStmt);
  EXPECT_EQ(F.Body->Body[9]->K, K::Return);
}

TEST(Parser, ExpressionPrecedence) {
  // a + b * c parses as a + (b * c).
  ProgramAst P = parseOk("int f(int a, int b, int c) { return a + b * c; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  ASSERT_EQ(E.K, Expr::Kind::Binary);
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Add);
  EXPECT_EQ(E.args()[1]->BinOp, Expr::BinOpKind::Mul);
}

TEST(Parser, ComparisonBindsLooserThanArith) {
  ProgramAst P = parseOk("int f(int a) { return a + 1 < a * 2; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Lt);
}

TEST(Parser, LogicalOperators) {
  ProgramAst P =
      parseOk("int f(int a, int b) { return a < 1 && b > 2 || !a; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Or);
  EXPECT_EQ(E.args()[0]->BinOp, Expr::BinOpKind::And);
  EXPECT_EQ(E.args()[1]->K, Expr::Kind::Unary);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  ProgramAst P = parseOk("int f(int a, int b) { return (a + b) * 2; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  EXPECT_EQ(E.BinOp, Expr::BinOpKind::Mul);
  EXPECT_EQ(E.args()[0]->BinOp, Expr::BinOpKind::Add);
}

TEST(Parser, MultiDimIndexing) {
  ProgramAst P = parseOk("int m[4][4];\nint f(int i) { return m[i][i+1]; }");
  const Expr &E = *P.Functions[0].Body->Body[0]->Value;
  ASSERT_EQ(E.K, Expr::Kind::Index);
  EXPECT_EQ(E.args().size(), 2u);
}

TEST(Parser, CallArguments) {
  ProgramAst P = parseOk(
      "int g(int a, int b) { return a; }\n"
      "int f() { return g(1, g(2, 3)); }");
  const Expr &E = *P.Functions[1].Body->Body[0]->Value;
  ASSERT_EQ(E.K, Expr::Kind::Call);
  EXPECT_EQ(E.args().size(), 2u);
  EXPECT_EQ(E.args()[1]->K, Expr::Kind::Call);
}

TEST(Parser, ForWithoutInitOrStep) {
  ProgramAst P = parseOk("void f() { for (; 1 < 2;) { } }");
  const Stmt &For = *P.Functions[0].Body->Body[0];
  EXPECT_EQ(For.Init, nullptr);
  EXPECT_EQ(For.Step, nullptr);
  EXPECT_NE(For.Cond, nullptr);
}

TEST(Parser, LineNumbersOnLoops) {
  ProgramAst P = parseOk("void f() {\n\n  for (int i = 0; i < 2; i = i + 1)"
                         " {\n    i = i;\n  }\n}");
  EXPECT_EQ(P.Functions[0].Body->Body[0]->Line, 3u);
  EXPECT_EQ(P.Functions[0].Body->Body[0]->EndLine, 5u);
}

TEST(Parser, ArenaAndNameTableGrowPastTheirFirstSize) {
  // 3000 parameters make a list larger than one arena chunk and enough
  // distinct names to grow the name table several times; the tree must
  // not depend on the source it was parsed from.
  ProgramAst P;
  {
    std::string Src = "int f(";
    for (unsigned I = 0; I < 3000; ++I)
      Src += (I ? ", int p" : "int p") + std::to_string(I);
    Src += ") { return p2999; }";
    P = parseOk(Src);
  }
  ASSERT_EQ(P.Functions.size(), 1u);
  const FuncDecl &F = P.Functions[0];
  ASSERT_EQ(F.Params.size(), 3000u);
  for (unsigned I = 0; I < 3000; ++I)
    ASSERT_EQ(P.name(F.Params[I].Name), "p" + std::to_string(I));
  EXPECT_EQ(P.Names.size(), 3002u); // "", f and the parameters.
  EXPECT_EQ(P.Names.intern("p1234"), F.Params[1234].Name);
  EXPECT_EQ(F.Body->Body[0]->Value->Name, F.Params[2999].Name);
}

// --- Error cases -----------------------------------------------------------

TEST(Parser, ErrorMissingSemicolon) {
  std::vector<std::string> E = parseErrors("void f() { int x = 1 }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("';'"), std::string::npos);
}

TEST(Parser, ErrorScalarGlobal) {
  std::vector<std::string> E = parseErrors("int x;");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("must be arrays"), std::string::npos);
}

TEST(Parser, ErrorAssignToExpression) {
  std::vector<std::string> E = parseErrors("void f() { 1 + 2 = 3; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("left side"), std::string::npos);
}

TEST(Parser, ErrorBareNonCallExpression) {
  std::vector<std::string> E = parseErrors("void f(int x) { x + 1; }");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("must be a call"), std::string::npos);
}

TEST(Parser, ErrorsIncludePosition) {
  std::vector<std::string> E = parseErrors("void f() {\n  int 5;\n}");
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E[0].find("test.c:2"), std::string::npos);
}

TEST(Parser, RecoversAcrossTopLevels) {
  // The error in f must not hide g.
  ParseResult R = parseMiniC("void f() { !!! }\nvoid g() { }", "t.c");
  EXPECT_FALSE(R.succeeded());
  bool FoundG = false;
  for (const FuncDecl &F : R.Program.Functions)
    FoundG |= R.Program.name(F.Name) == "g";
  EXPECT_TRUE(FoundG);
}

TEST(Parser, MalformedInputsPinTheirFullErrorLists) {
  // Every malformed input of the parser, lower and lexer tests, with the
  // whole diagnostic list compileMiniC reports for it, text and position.
  struct Case {
    const char *File;
    const char *Source;
    std::vector<std::string> Errors;
  };
  const Case Cases[] = {
      {"test.c", "void f() { int x = 1 }",
       {"test.c:1:22: expected ';', found '}'"}},
      {"test.c", "int x;",
       {"test.c:1:6: global variables must be arrays in MiniC (scalars are "
        "locals)"}},
      {"test.c", "void f() { 1 + 2 = 3; }",
       {"test.c:1:18: left side of '=' must be a variable or array "
        "element"}},
      {"test.c", "void f(int x) { x + 1; }",
       {"test.c:1:22: expression statement must be a call"}},
      {"test.c", "void f() {\n  int 5;\n}",
       {"test.c:2:7: expected a variable name",
        "test.c:2:7: expected ';', found integer literal",
        "test.c:2:8: expression statement must be a call"}},
      {"t.c", "void f() { !!! }\nvoid g() { }",
       {"t.c:1:16: expected an expression, found '}'",
        "t.c:1:16: expression statement must be a call",
        "t.c:1:16: expected ';', found '}'"}},
      {"t.c", "int main() { return nope; }",
       {"t.c:1: use of undeclared variable 'nope'"}},
      {"t.c", "int main() { return g(); }",
       {"t.c:1: call to undeclared function 'g'"}},
      {"t.c", "int g(int a) { return a; }\nint main() { return g(1, 2); }",
       {"t.c:2: 'g' expects 1 arguments, got 2"}},
      {"t.c", "int main() { int x = 1; int x = 2; return x; }",
       {"t.c:1: redeclaration of 'x'"}},
      {"t.c", "int m[4][4];\nint main() { return m[1]; }",
       {"t.c:2: 'm' has 2 dimensions but 1 indices given"}},
      {"t.c", "int a[4];\nint main() { a = 1; return 0; }",
       {"t.c:2: cannot assign to array 'a'"}},
      {"t.c", "a & b",
       {"1:3: stray '&' (MiniC has no bitwise ops or address-of)",
        "t.c:1:1: expected a declaration, found identifier"}},
      {"t.c", "x @ y # z",
       {"1:3: unexpected character '@'", "1:7: unexpected character '#'",
        "t.c:1:1: expected a declaration, found identifier"}},
      {"t.c", "/* never closed", {"1:1: unterminated block comment"}},
      // Lowering errors in three functions and in both bodies of a
      // duplicate definition: signature errors first, then each body's
      // errors in declaration order, although the duplicate's body lowers
      // into the first definition of 'f'.
      {"t.c",
       "int f(int a) { return nope1; }\n"
       "int g(int b) { int x = 1; int x = 2; return x + b; }\n"
       "int f(int c) { return nope2 + h(c); }\n"
       "int main() { int m[4]; m = 1; return g(1, 2); }",
       {"t.c:3: duplicate function 'f'",
        "t.c:1: use of undeclared variable 'nope1'",
        "t.c:2: redeclaration of 'x'",
        "t.c:3: use of undeclared variable 'nope2'",
        "t.c:3: call to undeclared function 'h'",
        "t.c:4: cannot assign to array 'm'",
        "t.c:4: 'g' expects 1 arguments, got 2"}},
  };
  for (const Case &C : Cases)
    EXPECT_EQ(compileMiniC(C.Source, C.File).Errors, C.Errors) << C.Source;
}

} // namespace
