//===- parser/Parser.cpp --------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"
#include "support/StringUtils.h"

using namespace kremlin;

namespace {

/// Recursive-descent parser pulling tokens from a Lexer. Nodes go into the
/// program's arena; a list is gathered on one of the scratch stacks (nested
/// lists stack above it) and copied into the arena once complete.
class ParserImpl {
public:
  ParserImpl(std::string_view Source, std::string SourceName)
      : Lex(Source, Result.Errors), Cur(Lex.next()) {
    Result.Program.SourceName = std::move(SourceName);
  }

  ParseResult run() {
    while (!at(TokKind::Eof)) {
      if (!parseTopLevel() && !at(TokKind::Eof))
        synchronizeTopLevel();
    }
    // Lexical errors come first, then the parser's.
    Result.Errors.insert(Result.Errors.end(),
                         std::make_move_iterator(ParseErrors.begin()),
                         std::make_move_iterator(ParseErrors.end()));
    return std::move(Result);
  }

private:
  ParseResult Result;
  Lexer Lex;
  Token Cur;
  std::vector<std::string> ParseErrors;
  std::vector<const Expr *> ExprStack;
  std::vector<const Stmt *> StmtStack;
  std::vector<uint64_t> DimStack;
  std::vector<ParamDecl> ParamStack;

  ProgramAst &program() { return Result.Program; }

  bool at(TokKind Kind) const { return Cur.Kind == Kind; }

  Token advance() {
    Token T = Cur;
    if (!at(TokKind::Eof))
      Cur = Lex.next();
    return T;
  }

  bool accept(TokKind Kind) {
    if (!at(Kind))
      return false;
    advance();
    return true;
  }

  SymbolId name() { return program().Names.intern(advance().Text); }

  /// Moves the scratch entries above \p Mark into the arena.
  template <typename T>
  std::span<const T> take(std::vector<T> &Stack, size_t Mark) {
    std::span<const T> Items = program().Arena.copy(
        std::span<const T>(Stack.data() + Mark, Stack.size() - Mark));
    Stack.resize(Mark);
    return Items;
  }

  void error(const std::string &Msg) {
    ParseErrors.push_back(formatString("%s:%u:%u: %s",
                                       program().SourceName.c_str(),
                                       Cur.Line, Cur.Col, Msg.c_str()));
  }

  bool expect(TokKind Kind) {
    if (accept(Kind))
      return true;
    error(formatString("expected %s, found %s", tokKindName(Kind),
                       tokKindName(Cur.Kind)));
    return false;
  }

  /// Skips ahead to a plausible top-level start after an error.
  void synchronizeTopLevel() {
    while (!at(TokKind::Eof) && !atType())
      advance();
  }

  bool atType() const {
    return at(TokKind::KwInt) || at(TokKind::KwFloat) || at(TokKind::KwVoid);
  }

  Type parseType() {
    if (accept(TokKind::KwInt))
      return Type::Int;
    if (accept(TokKind::KwFloat))
      return Type::Float;
    if (accept(TokKind::KwVoid))
      return Type::Void;
    error("expected a type");
    advance();
    return Type::Int;
  }

  /// Parses `[d0][d1]...`; \p Required dimensions must be integer literals
  /// (a missing one is reported, or else recorded as 0: T a[]).
  std::span<const uint64_t> parseDims(bool Required) {
    size_t Mark = DimStack.size();
    while (accept(TokKind::LBracket)) {
      if (at(TokKind::IntLit))
        DimStack.push_back(static_cast<uint64_t>(advance().IntValue));
      else if (Required)
        error("array dimension must be an integer literal");
      else
        DimStack.push_back(0); // Unknown leading dimension: T a[].
      expect(TokKind::RBracket);
    }
    return take(DimStack, Mark);
  }

  /// Parses either a global array declaration or a function definition.
  bool parseTopLevel() {
    if (!atType()) {
      error(formatString("expected a declaration, found %s",
                         tokKindName(Cur.Kind)));
      return false;
    }
    unsigned Line = Cur.Line;
    Type Ty = parseType();
    if (!at(TokKind::Ident)) {
      error("expected an identifier");
      return false;
    }
    SymbolId Name = name();

    if (at(TokKind::LParen))
      return parseFunction(Ty, Name, Line);
    return parseGlobal(Ty, Name, Line);
  }

  bool parseGlobal(Type Ty, SymbolId Name, unsigned Line) {
    if (Ty == Type::Void) {
      error("global arrays cannot be void");
      Ty = Type::Int;
    }
    GlobalDecl G;
    G.Ty = Ty;
    G.Name = Name;
    G.Line = Line;
    if (!at(TokKind::LBracket)) {
      error("global variables must be arrays in MiniC (scalars are locals)");
      accept(TokKind::Semi);
      return false;
    }
    size_t Mark = DimStack.size();
    while (accept(TokKind::LBracket)) {
      if (!at(TokKind::IntLit)) {
        error("array dimension must be an integer literal");
        DimStack.resize(Mark);
        return false;
      }
      DimStack.push_back(static_cast<uint64_t>(advance().IntValue));
      expect(TokKind::RBracket);
    }
    G.Dims = take(DimStack, Mark);
    expect(TokKind::Semi);
    program().Globals.push_back(G);
    return true;
  }

  bool parseFunction(Type RetTy, SymbolId Name, unsigned Line) {
    FuncDecl F;
    F.ReturnTy = RetTy;
    F.Name = Name;
    F.Line = Line;
    expect(TokKind::LParen);
    size_t Mark = ParamStack.size();
    if (!at(TokKind::RParen)) {
      do {
        ParamDecl P;
        P.Line = Cur.Line;
        P.Ty = parseType();
        if (P.Ty == Type::Void) {
          error("parameters cannot be void");
          P.Ty = Type::Int;
        }
        if (at(TokKind::Ident))
          P.Name = name();
        else
          error("expected a parameter name");
        P.IsArray = at(TokKind::LBracket);
        P.Dims = parseDims(/*Required=*/false);
        ParamStack.push_back(P);
      } while (accept(TokKind::Comma));
    }
    F.Params = take(ParamStack, Mark);
    expect(TokKind::RParen);
    if (!at(TokKind::LBrace)) {
      error("expected a function body");
      return false;
    }
    F.Body = parseBlock();
    F.EndLine = F.Body->EndLine;
    program().Functions.push_back(F);
    return true;
  }

  Stmt *newStmt(Stmt::Kind K) {
    Stmt *S = program().Arena.make<Stmt>();
    S->K = K;
    S->Line = Cur.Line;
    return S;
  }

  const Stmt *parseBlock() {
    Stmt *S = newStmt(Stmt::Kind::Block);
    expect(TokKind::LBrace);
    size_t Mark = StmtStack.size();
    while (!at(TokKind::RBrace) && !at(TokKind::Eof))
      StmtStack.push_back(parseStatement());
    S->Body = take(StmtStack, Mark);
    S->EndLine = Cur.Line;
    expect(TokKind::RBrace);
    return S;
  }

  const Stmt *parseStatement() {
    if (at(TokKind::LBrace))
      return parseBlock();
    if (atType())
      return parseDecl();
    if (at(TokKind::KwIf))
      return parseIf();
    if (at(TokKind::KwFor))
      return parseFor();
    if (at(TokKind::KwWhile))
      return parseWhile();
    if (at(TokKind::KwReturn))
      return parseReturn();
    return parseAssignOrExpr(/*RequireSemi=*/true);
  }

  const Stmt *parseDecl() {
    Stmt *S = newStmt(Stmt::Kind::DeclScalar);
    S->Ty = parseType();
    if (S->Ty == Type::Void) {
      error("local declarations cannot be void");
      S->Ty = Type::Int;
    }
    if (at(TokKind::Ident))
      S->Name = name();
    else
      error("expected a variable name");
    if (at(TokKind::LBracket)) {
      S->K = Stmt::Kind::DeclArray;
      S->Dims = parseDims(/*Required=*/true);
    } else if (accept(TokKind::Assign)) {
      S->Value = parseExpr();
    }
    S->EndLine = Cur.Line;
    expect(TokKind::Semi);
    return S;
  }

  const Stmt *parseIf() {
    Stmt *S = newStmt(Stmt::Kind::If);
    advance(); // if
    expect(TokKind::LParen);
    S->Cond = parseExpr();
    expect(TokKind::RParen);
    S->Then = parseStatement();
    if (accept(TokKind::KwElse))
      S->Else = parseStatement();
    S->EndLine = (S->Else ? S->Else : S->Then)->EndLine;
    return S;
  }

  const Stmt *parseFor() {
    Stmt *S = newStmt(Stmt::Kind::For);
    advance(); // for
    expect(TokKind::LParen);
    if (!at(TokKind::Semi)) {
      if (atType())
        S->Init = parseDecl(); // Consumes its ';'.
      else
        S->Init = parseAssignOrExpr(/*RequireSemi=*/true);
    } else {
      expect(TokKind::Semi);
    }
    if (!at(TokKind::Semi))
      S->Cond = parseExpr();
    expect(TokKind::Semi);
    if (!at(TokKind::RParen))
      S->Step = parseAssignOrExpr(/*RequireSemi=*/false);
    expect(TokKind::RParen);
    S->Then = parseStatement();
    S->EndLine = S->Then->EndLine;
    return S;
  }

  const Stmt *parseWhile() {
    Stmt *S = newStmt(Stmt::Kind::While);
    advance(); // while
    expect(TokKind::LParen);
    S->Cond = parseExpr();
    expect(TokKind::RParen);
    S->Then = parseStatement();
    S->EndLine = S->Then->EndLine;
    return S;
  }

  const Stmt *parseReturn() {
    Stmt *S = newStmt(Stmt::Kind::Return);
    advance(); // return
    if (!at(TokKind::Semi))
      S->Value = parseExpr();
    S->EndLine = Cur.Line;
    expect(TokKind::Semi);
    return S;
  }

  /// Parses `lvalue = expr` or a bare expression statement (a call).
  const Stmt *parseAssignOrExpr(bool RequireSemi) {
    Stmt *S = newStmt(Stmt::Kind::ExprStmt);
    const Expr *E = parseExpr();
    if (at(TokKind::Assign)) {
      if (E->K != Expr::Kind::Var && E->K != Expr::Kind::Index)
        error("left side of '=' must be a variable or array element");
      advance();
      S->K = Stmt::Kind::Assign;
      S->Target = E;
      S->Value = parseExpr();
    } else {
      if (E->K != Expr::Kind::Call)
        error("expression statement must be a call");
      S->Value = E;
    }
    S->EndLine = Cur.Line;
    if (RequireSemi)
      expect(TokKind::Semi);
    return S;
  }

  // --- Expressions (precedence climbing) --------------------------------

  const Expr *parseExpr() { return parseOr(); }

  Expr *newExpr(Expr::Kind K, unsigned Line) {
    Expr *E = program().Arena.make<Expr>();
    E->K = K;
    E->Line = Line;
    return E;
  }

  const Expr *makeBinary(Expr::BinOpKind Op, const Expr *L, const Expr *R,
                         unsigned Line) {
    Expr *E = newExpr(Expr::Kind::Binary, Line);
    E->BinOp = Op;
    const Expr *Args[] = {L, R};
    E->Args = program().Arena.copy(std::span<const Expr *const>(Args));
    return E;
  }

  const Expr *parseOr() {
    const Expr *L = parseAnd();
    while (at(TokKind::OrOr)) {
      unsigned Line = advance().Line;
      L = makeBinary(Expr::BinOpKind::Or, L, parseAnd(), Line);
    }
    return L;
  }

  const Expr *parseAnd() {
    const Expr *L = parseCmp();
    while (at(TokKind::AndAnd)) {
      unsigned Line = advance().Line;
      L = makeBinary(Expr::BinOpKind::And, L, parseCmp(), Line);
    }
    return L;
  }

  const Expr *parseCmp() {
    const Expr *L = parseAddSub();
    Expr::BinOpKind Op;
    switch (Cur.Kind) {
    case TokKind::EqEq:
      Op = Expr::BinOpKind::Eq;
      break;
    case TokKind::NotEq:
      Op = Expr::BinOpKind::Ne;
      break;
    case TokKind::Less:
      Op = Expr::BinOpKind::Lt;
      break;
    case TokKind::LessEq:
      Op = Expr::BinOpKind::Le;
      break;
    case TokKind::Greater:
      Op = Expr::BinOpKind::Gt;
      break;
    case TokKind::GreaterEq:
      Op = Expr::BinOpKind::Ge;
      break;
    default:
      return L;
    }
    unsigned Line = advance().Line;
    return makeBinary(Op, L, parseAddSub(), Line);
  }

  const Expr *parseAddSub() {
    const Expr *L = parseMulDiv();
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      Expr::BinOpKind Op = at(TokKind::Plus) ? Expr::BinOpKind::Add
                                             : Expr::BinOpKind::Sub;
      unsigned Line = advance().Line;
      L = makeBinary(Op, L, parseMulDiv(), Line);
    }
    return L;
  }

  const Expr *parseMulDiv() {
    const Expr *L = parseUnary();
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      Expr::BinOpKind Op = at(TokKind::Star)    ? Expr::BinOpKind::Mul
                           : at(TokKind::Slash) ? Expr::BinOpKind::Div
                                                : Expr::BinOpKind::Rem;
      unsigned Line = advance().Line;
      L = makeBinary(Op, L, parseUnary(), Line);
    }
    return L;
  }

  const Expr *parseUnary() {
    if (at(TokKind::Minus) || at(TokKind::Not)) {
      Expr *E = newExpr(Expr::Kind::Unary, Cur.Line);
      E->UnOp = at(TokKind::Minus) ? Expr::UnOpKind::Neg : Expr::UnOpKind::Not;
      advance();
      const Expr *Operand[] = {parseUnary()};
      E->Args = program().Arena.copy(std::span<const Expr *const>(Operand));
      return E;
    }
    return parsePrimary();
  }

  const Expr *parsePrimary() {
    if (accept(TokKind::LParen)) {
      const Expr *Inner = parseExpr();
      expect(TokKind::RParen);
      return Inner;
    }
    Expr *E = newExpr(Expr::Kind::IntLit, Cur.Line);
    if (at(TokKind::IntLit)) {
      E->IntValue = advance().IntValue;
      return E;
    }
    if (at(TokKind::FloatLit)) {
      E->K = Expr::Kind::FloatLit;
      E->FloatValue = advance().FloatValue;
      return E;
    }
    if (!at(TokKind::Ident)) {
      error(formatString("expected an expression, found %s",
                         tokKindName(Cur.Kind)));
      // Do not consume structural tokens: they let the enclosing
      // block/statement resynchronize.
      if (!at(TokKind::RBrace) && !at(TokKind::RParen) &&
          !at(TokKind::Semi) && !at(TokKind::Eof))
        advance();
      return E;
    }
    E->Name = name();
    size_t Mark = ExprStack.size();
    if (accept(TokKind::LParen)) {
      E->K = Expr::Kind::Call;
      if (!at(TokKind::RParen)) {
        do {
          ExprStack.push_back(parseExpr());
        } while (accept(TokKind::Comma));
      }
      expect(TokKind::RParen);
    } else if (at(TokKind::LBracket)) {
      E->K = Expr::Kind::Index;
      while (accept(TokKind::LBracket)) {
        ExprStack.push_back(parseExpr());
        expect(TokKind::RBracket);
      }
    } else {
      E->K = Expr::Kind::Var;
    }
    E->Args = take(ExprStack, Mark);
    return E;
  }
};

} // namespace

ParseResult kremlin::parseMiniC(std::string_view Source,
                                std::string SourceName) {
  return ParserImpl(Source, std::move(SourceName)).run();
}
