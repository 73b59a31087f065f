//===- parser/Lower.cpp ---------------------------------------------------===//

#include "parser/Lower.h"

#include "ir/IRBuilder.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"

#include <cassert>
#include <iterator>

using namespace kremlin;

namespace {

/// What a name refers to during lowering.
struct Symbol {
  enum class Kind : unsigned char {
    Scalar,     ///< Dedicated vreg.
    LocalArray, ///< Frame array index.
    GlobalArray,
    ParamArray ///< vreg holding the base address.
  };
  Kind K = Kind::Scalar;
  Type Ty = Type::Int;
  ValueId Reg = NoValue;  ///< Scalar / ParamArray.
  uint32_t ArrayId = 0;   ///< LocalArray (frame idx) / GlobalArray (global).
  std::span<const uint64_t> Dims; ///< Arrays only; Dims[0] may be 0 (T a[]).
};

/// One declaration in force: its symbol and the binding of the same name it
/// shadows.
struct Binding {
  Symbol Sym;
  SymbolId Name = EmptyName;
  uint32_t Shadowed = 0;
};

/// "No binding" in Lowering::Innermost.
constexpr uint32_t Unbound = UINT32_MAX;

/// A typed expression value: the register plus its scalar type.
struct TypedValue {
  ValueId Reg = NoValue;
  Type Ty = Type::Int;
};

/// Lowers one ProgramAst into a Module.
class Lowering {
public:
  explicit Lowering(const ProgramAst &Program)
      : Program(Program), Innermost(Program.Names.size(), Unbound),
        FuncOf(Program.Names.size(), NoFunc) {
    Result.M = std::make_unique<Module>();
  }

  LowerResult run() {
    Module &M = *Result.M;
    M.SourceName = Program.SourceName;

    std::vector<bool> IsFuncName(Program.Names.size());
    for (const FuncDecl &FD : Program.Functions)
      IsFuncName[FD.Name] = true;
    // Globals are the bottom scope, in force in every function.
    pushScope();
    for (const GlobalDecl &G : Program.Globals) {
      if (Innermost[G.Name] != Unbound || IsFuncName[G.Name]) {
        error(G.Line, "duplicate global " + quoted(G.Name));
        continue;
      }
      GlobalArray GA;
      GA.Name = Program.name(G.Name);
      GA.ElemTy = G.Ty;
      GA.SizeWords = 1;
      for (uint64_t D : G.Dims)
        GA.SizeWords *= D;
      Symbol Sym;
      Sym.K = Symbol::Kind::GlobalArray;
      Sym.Ty = G.Ty;
      Sym.ArrayId = M.addGlobal(std::move(GA));
      Sym.Dims = G.Dims;
      declare(G.Line, G.Name, Sym);
    }

    // Pass 1: register signatures so forward calls resolve.
    for (const FuncDecl &FD : Program.Functions) {
      if (FuncOf[FD.Name] != NoFunc) {
        error(FD.Line, "duplicate function " + quoted(FD.Name));
        continue;
      }
      Function F;
      F.Name = Program.name(FD.Name);
      F.ReturnTy = FD.ReturnTy;
      F.NumParams = static_cast<unsigned>(FD.Params.size());
      for (const ParamDecl &P : FD.Params)
        F.ParamTypes.push_back(P.IsArray ? Type::Int : P.Ty);
      F.NumValues = F.NumParams;
      FuncOf[FD.Name] = M.addFunction(std::move(F));
    }

    // Pass 2: lower bodies (a duplicate's body into the first definition,
    // whose errors it reports).
    for (const FuncDecl &FD : Program.Functions)
      lowerFunction(FD, M.Functions[FuncOf[FD.Name]]);
    return std::move(Result);
  }

private:
  const ProgramAst &Program;
  LowerResult Result;

  // Per-function state.
  IRBuilder *B = nullptr;
  Function *CurFunc = nullptr;
  /// Every declaration in force, innermost last; ScopeStarts[K] is the
  /// first binding of open scope K.
  std::vector<Binding> Bindings;
  std::vector<size_t> ScopeStarts;
  /// Per SymbolId: its innermost binding, or Unbound.
  std::vector<uint32_t> Innermost;
  /// Per SymbolId: the function of that name, or NoFunc.
  std::vector<FuncId> FuncOf;
  /// Open static regions, innermost last (Function region first).
  std::vector<RegionId> RegionStack;

  void error(unsigned Line, const std::string &Msg) {
    Result.Errors.push_back(formatString(
        "%s:%u: %s", Program.SourceName.c_str(), Line, Msg.c_str()));
  }

  std::string quoted(SymbolId Name) const {
    std::string Quoted(1, '\'');
    Quoted.append(Program.name(Name)).push_back('\'');
    return Quoted;
  }

  // --- Scope handling ----------------------------------------------------

  void pushScope() { ScopeStarts.push_back(Bindings.size()); }
  void popScope() {
    while (Bindings.size() > ScopeStarts.back()) {
      Innermost[Bindings.back().Name] = Bindings.back().Shadowed;
      Bindings.pop_back();
    }
    ScopeStarts.pop_back();
  }

  /// The symbol \p Name denotes; valid until the next declare().
  const Symbol *lookup(SymbolId Name) const {
    uint32_t I = Innermost[Name];
    return I == Unbound ? nullptr : &Bindings[I].Sym;
  }

  bool declare(unsigned Line, SymbolId Name, const Symbol &Sym) {
    uint32_t Shadowed = Innermost[Name];
    if (Shadowed != Unbound && Shadowed >= ScopeStarts.back()) {
      error(Line, "redeclaration of " + quoted(Name));
      return false;
    }
    Innermost[Name] = static_cast<uint32_t>(Bindings.size());
    Bindings.push_back({Sym, Name, Shadowed});
    return true;
  }

  // --- Region bookkeeping -------------------------------------------------

  RegionId makeRegion(RegionKind Kind, std::string Name, unsigned StartLine,
                      unsigned EndLine) {
    Module &M = *Result.M;
    StaticRegion R;
    R.Kind = Kind;
    R.Func = CurFunc->Id;
    R.Parent = Kind == RegionKind::Function ? NoRegion : RegionStack.back();
    R.Name = std::move(Name);
    R.File = M.SourceName;
    R.StartLine = StartLine;
    R.EndLine = EndLine;
    RegionId Id = M.addRegion(std::move(R));
    if (Kind != RegionKind::Function)
      M.Regions[RegionStack.back()].Children.push_back(Id);
    return Id;
  }

  // --- Function lowering ---------------------------------------------------

  void lowerFunction(const FuncDecl &FD, Function &F) {
    IRBuilder Builder(*Result.M, F);
    B = &Builder;
    CurFunc = &F;
    RegionStack.clear();

    BlockId Entry = B->createBlock("entry");
    B->setInsertPoint(Entry);
    B->setLine(FD.Line);

    F.FuncRegion =
        makeRegion(RegionKind::Function, std::string(Program.name(FD.Name)),
                   FD.Line, FD.EndLine ? FD.EndLine : FD.Line);
    RegionStack.push_back(F.FuncRegion);
    B->setRegion(F.FuncRegion);
    B->emitRegionEnter(F.FuncRegion);

    pushScope();
    for (unsigned PIdx = 0; PIdx < FD.Params.size(); ++PIdx) {
      const ParamDecl &P = FD.Params[PIdx];
      Symbol Sym;
      if (P.IsArray) {
        Sym.K = Symbol::Kind::ParamArray;
        Sym.Ty = P.Ty;
        Sym.Reg = PIdx;
        Sym.Dims = P.Dims;
      } else {
        Sym.K = Symbol::Kind::Scalar;
        Sym.Ty = P.Ty;
        Sym.Reg = PIdx;
      }
      declare(P.Line, P.Name, Sym);
    }

    lowerStmt(*FD.Body);

    // Fall off the end: close regions and return a default value.
    if (!B->blockTerminated())
      emitReturn(FD.EndLine, nullptr);

    popScope();
    RegionStack.clear();
    B = nullptr;
    CurFunc = nullptr;
  }

  /// Emits RegionExit for every open region (innermost first) and a Ret.
  void emitReturn(unsigned Line, const Expr *ValueExpr) {
    B->setLine(Line);
    ValueId Ret = NoValue;
    if (ValueExpr) {
      TypedValue V = lowerExpr(*ValueExpr);
      if (CurFunc->ReturnTy == Type::Void) {
        error(Line, "returning a value from a void function");
      } else {
        Ret = convert(V, CurFunc->ReturnTy).Reg;
      }
    } else if (CurFunc->ReturnTy != Type::Void) {
      // Implicit `return 0` / `return 0.0`.
      Ret = CurFunc->ReturnTy == Type::Int ? B->emitConstInt(0)
                                           : B->emitConstFloat(0.0);
    }
    for (auto It = RegionStack.rbegin(); It != RegionStack.rend(); ++It)
      B->emitRegionExit(*It);
    B->emitRet(Ret);
  }

  // --- Statements ----------------------------------------------------------

  void lowerStmt(const Stmt &S) {
    if (B->blockTerminated()) {
      // Unreachable code after a return: emit into a fresh dead block so the
      // IR stays well-formed; it will simply never execute.
      BlockId Dead = B->createBlock("dead");
      B->setInsertPoint(Dead);
    }
    B->setLine(S.Line);
    switch (S.K) {
    case Stmt::Kind::Block:
      pushScope();
      for (const Stmt *Inner : S.Body)
        lowerStmt(*Inner);
      popScope();
      return;
    case Stmt::Kind::DeclScalar: {
      Symbol Sym;
      Sym.K = Symbol::Kind::Scalar;
      Sym.Ty = S.Ty;
      Sym.Reg = B->newValue(S.Ty);
      if (!declare(S.Line, S.Name, Sym))
        return;
      if (S.Value) {
        TypedValue V = convert(lowerExpr(*S.Value), Sym.Ty);
        B->emitMove(Sym.Ty, V.Reg, Sym.Reg);
      }
      return;
    }
    case Stmt::Kind::DeclArray: {
      FrameArray FA;
      FA.Name = Program.name(S.Name);
      FA.ElemTy = S.Ty;
      FA.SizeWords = 1;
      for (uint64_t D : S.Dims)
        FA.SizeWords *= D;
      uint32_t Idx = static_cast<uint32_t>(CurFunc->FrameArrays.size());
      CurFunc->FrameArrays.push_back(std::move(FA));
      Symbol Sym;
      Sym.K = Symbol::Kind::LocalArray;
      Sym.Ty = S.Ty;
      Sym.ArrayId = Idx;
      Sym.Dims = S.Dims;
      declare(S.Line, S.Name, Sym);
      return;
    }
    case Stmt::Kind::Assign:
      lowerAssign(S);
      return;
    case Stmt::Kind::ExprStmt:
      if (S.Value)
        lowerExpr(*S.Value);
      return;
    case Stmt::Kind::Return:
      emitReturn(S.Line, S.Value);
      return;
    case Stmt::Kind::If:
      lowerIf(S);
      return;
    case Stmt::Kind::For:
    case Stmt::Kind::While:
      lowerLoop(S);
      return;
    }
  }

  void lowerAssign(const Stmt &S) {
    const Expr &Target = *S.Target;
    if (Target.K == Expr::Kind::Var) {
      const Symbol *Sym = lookup(Target.Name);
      if (!Sym) {
        error(S.Line, "use of undeclared variable " + quoted(Target.Name));
        return;
      }
      if (Sym->K != Symbol::Kind::Scalar) {
        error(S.Line, "cannot assign to array " + quoted(Target.Name));
        return;
      }
      TypedValue V = convert(lowerExpr(*S.Value), Sym->Ty);
      B->emitMove(Sym->Ty, V.Reg, Sym->Reg);
      return;
    }
    assert(Target.K == Expr::Kind::Index && "assign target must be lvalue");
    const Symbol *Sym = lookup(Target.Name);
    if (!Sym) {
      error(S.Line, "use of undeclared array " + quoted(Target.Name));
      return;
    }
    TypedValue Addr = lowerElementAddr(*Sym, Target);
    // `a[i] = a[i] op x` with a syntactically identical simple index:
    // route the read-modify-write through the one address register just
    // computed instead of re-deriving it for the right-hand side. Element
    // addressing is pure, so this changes nothing observable — it produces
    // the load/op/store-on-one-address shape the tape decoder fuses into a
    // TapeLoadOpStore superinstruction.
    if (S.Value->K == Expr::Kind::Binary &&
        S.Value->Args[0]->K == Expr::Kind::Index &&
        S.Value->Args[0]->Name == Target.Name &&
        sameSimpleIndices(Target, *S.Value->Args[0])) {
      TypedValue Loaded{B->emitLoad(Sym->Ty, Addr.Reg), Sym->Ty};
      TypedValue V = convert(lowerBinaryFrom(*S.Value, Loaded), Sym->Ty);
      B->emitStore(Addr.Reg, V.Reg);
      return;
    }
    TypedValue V = convert(lowerExpr(*S.Value), Sym->Ty);
    B->emitStore(Addr.Reg, V.Reg);
  }

  /// True when two index expression lists are trivially identical — every
  /// subscript is the same literal or the same variable. Conservative by
  /// design: anything with computation (or side effects) says no.
  static bool sameSimpleIndices(const Expr &A, const Expr &B) {
    if (A.Args.size() != B.Args.size())
      return false;
    for (size_t K = 0; K < A.Args.size(); ++K) {
      const Expr &X = *A.Args[K];
      const Expr &Y = *B.Args[K];
      if (X.K == Expr::Kind::IntLit && Y.K == Expr::Kind::IntLit &&
          X.IntValue == Y.IntValue)
        continue;
      if (X.K == Expr::Kind::Var && Y.K == Expr::Kind::Var &&
          X.Name == Y.Name)
        continue;
      return false;
    }
    return true;
  }

  void lowerIf(const Stmt &S) {
    TypedValue Cond = lowerCondition(*S.Cond);
    BlockId ThenBB = B->createBlock("if.then");
    BlockId JoinBB = B->createBlock("if.join");
    BlockId ElseBB = S.Else ? B->createBlock("if.else") : JoinBB;

    Instruction CondBr;
    CondBr.Op = Opcode::CondBr;
    CondBr.A = Cond.Reg;
    CondBr.Aux = ThenBB;
    CondBr.Aux2 = ElseBB;
    CondBr.MergeBlock = JoinBB;
    B->emit(CondBr);

    B->setInsertPoint(ThenBB);
    lowerStmt(*S.Then);
    if (!B->blockTerminated())
      B->emitBr(JoinBB);

    if (S.Else) {
      B->setInsertPoint(ElseBB);
      lowerStmt(*S.Else);
      if (!B->blockTerminated())
        B->emitBr(JoinBB);
    }
    B->setInsertPoint(JoinBB);
  }

  /// Lowers both `for` and `while`; For carries Init/Step.
  void lowerLoop(const Stmt &S) {
    pushScope(); // Holds a for-init declaration if present.
    if (S.Init)
      lowerStmt(*S.Init);

    const char *KindName = S.K == Stmt::Kind::For ? "for" : "while";
    RegionId LoopRegion =
        makeRegion(RegionKind::Loop, KindName, S.Line, S.EndLine);
    RegionStack.push_back(LoopRegion);
    B->setRegion(LoopRegion);
    RegionId BodyRegion =
        makeRegion(RegionKind::Body, std::string(KindName) + ".body", S.Line,
                   S.EndLine);

    B->emitRegionEnter(LoopRegion);

    BlockId Header = B->createBlock("loop.header");
    BlockId BodyBB = B->createBlock("loop.body");
    BlockId Latch = B->createBlock("loop.latch");
    BlockId Exit = B->createBlock("loop.exit");
    B->emitBr(Header);

    B->setInsertPoint(Header);
    ValueId Cond;
    if (S.Cond) {
      Cond = lowerCondition(*S.Cond).Reg;
    } else {
      Cond = B->emitConstInt(1);
    }
    Instruction CondBr;
    CondBr.Op = Opcode::CondBr;
    CondBr.A = Cond;
    CondBr.Aux = BodyBB;
    CondBr.Aux2 = Exit;
    CondBr.MergeBlock = Exit;
    B->emit(CondBr);

    B->setInsertPoint(BodyBB);
    RegionStack.push_back(BodyRegion);
    B->setRegion(BodyRegion);
    B->emitRegionEnter(BodyRegion);
    if (S.Then)
      lowerStmt(*S.Then);
    RegionStack.pop_back();
    B->setRegion(LoopRegion);
    if (!B->blockTerminated()) {
      B->emitRegionExit(BodyRegion);
      B->emitBr(Latch);
    }

    B->setInsertPoint(Latch);
    if (S.Step)
      lowerStmt(*S.Step);
    B->emitBr(Header);

    B->setInsertPoint(Exit);
    RegionStack.pop_back();
    B->setRegion(RegionStack.back());
    B->emitRegionExit(LoopRegion);
    popScope();
  }

  // --- Expressions ----------------------------------------------------------

  /// Converts \p V to type \p To, inserting casts as needed.
  TypedValue convert(TypedValue V, Type To) {
    if (V.Ty == To || V.Reg == NoValue)
      return {V.Reg, To};
    if (V.Ty == Type::Int && To == Type::Float)
      return {B->emitUnary(Opcode::IntToFloat, Type::Float, V.Reg),
              Type::Float};
    if (V.Ty == Type::Float && To == Type::Int)
      return {B->emitUnary(Opcode::FloatToInt, Type::Int, V.Reg), Type::Int};
    return {V.Reg, To};
  }

  /// \p V as a 0/1 int condition.
  TypedValue toCondition(TypedValue V) {
    if (V.Ty != Type::Float)
      return V;
    ValueId Zero = B->emitConstFloat(0.0);
    return {B->emitBinary(Opcode::FCmpNE, Type::Int, V.Reg, Zero), Type::Int};
  }

  /// Lowers a condition expression to a 0/1 int register.
  TypedValue lowerCondition(const Expr &E) {
    return toCondition(lowerExpr(E));
  }

  /// Computes the word address of `Sym[indices]`, flattening by the
  /// declared dimensions.
  TypedValue lowerElementAddr(const Symbol &Sym, const Expr &IndexExpr) {
    if (IndexExpr.Args.size() != Sym.Dims.size())
      error(IndexExpr.Line,
            quoted(IndexExpr.Name) +
                formatString(" has %zu dimensions but %zu indices given",
                             Sym.Dims.size(), IndexExpr.Args.size()));

    // flat = ((i0 * d1 + i1) * d2 + i2) ...
    ValueId Flat = NoValue;
    for (size_t K = 0; K < IndexExpr.Args.size(); ++K) {
      TypedValue Idx = convert(lowerExpr(*IndexExpr.Args[K]), Type::Int);
      if (Flat == NoValue) {
        Flat = Idx.Reg;
        continue;
      }
      uint64_t Dim = K < Sym.Dims.size() ? Sym.Dims[K] : 1;
      ValueId DimReg = B->emitConstInt(static_cast<int64_t>(Dim));
      ValueId Scaled = B->emitBinary(Opcode::Mul, Type::Int, Flat, DimReg);
      Flat = B->emitBinary(Opcode::Add, Type::Int, Scaled, Idx.Reg);
    }
    if (Flat == NoValue)
      Flat = B->emitConstInt(0);

    ValueId Base = NoValue;
    switch (Sym.K) {
    case Symbol::Kind::GlobalArray:
      Base = B->emitGlobalAddr(Sym.ArrayId);
      break;
    case Symbol::Kind::LocalArray:
      Base = B->emitFrameAddr(Sym.ArrayId);
      break;
    case Symbol::Kind::ParamArray:
      Base = Sym.Reg;
      break;
    case Symbol::Kind::Scalar:
      error(IndexExpr.Line, "cannot index scalar " + quoted(IndexExpr.Name));
      Base = B->emitConstInt(0);
      break;
    }
    return {B->emitPtrAdd(Base, Flat), Type::Int};
  }

  TypedValue lowerExpr(const Expr &E) {
    B->setLine(E.Line);
    switch (E.K) {
    case Expr::Kind::IntLit:
      return {B->emitConstInt(E.IntValue), Type::Int};
    case Expr::Kind::FloatLit:
      return {B->emitConstFloat(E.FloatValue), Type::Float};
    case Expr::Kind::Var: {
      const Symbol *Sym = lookup(E.Name);
      if (!Sym) {
        error(E.Line, "use of undeclared variable " + quoted(E.Name));
        return {B->emitConstInt(0), Type::Int};
      }
      // Array name used as a value: its base address (for call arguments).
      switch (Sym->K) {
      case Symbol::Kind::GlobalArray:
        return {B->emitGlobalAddr(Sym->ArrayId), Type::Int};
      case Symbol::Kind::LocalArray:
        return {B->emitFrameAddr(Sym->ArrayId), Type::Int};
      case Symbol::Kind::ParamArray:
        return {Sym->Reg, Type::Int};
      case Symbol::Kind::Scalar:
        break;
      }
      return {Sym->Reg, Sym->Ty};
    }
    case Expr::Kind::Index: {
      const Symbol *Sym = lookup(E.Name);
      if (!Sym) {
        error(E.Line, "use of undeclared array " + quoted(E.Name));
        return {B->emitConstInt(0), Type::Int};
      }
      TypedValue Addr = lowerElementAddr(*Sym, E);
      return {B->emitLoad(Sym->Ty, Addr.Reg), Sym->Ty};
    }
    case Expr::Kind::Call:
      return lowerCall(E);
    case Expr::Kind::Unary: {
      if (E.UnOp == Expr::UnOpKind::Not) {
        TypedValue IV = lowerCondition(*E.Args[0]);
        return {B->emitUnary(Opcode::Not, Type::Int, IV.Reg), Type::Int};
      }
      TypedValue V = lowerExpr(*E.Args[0]);
      if (V.Ty == Type::Float)
        return {B->emitUnary(Opcode::FNeg, Type::Float, V.Reg), Type::Float};
      return {B->emitUnary(Opcode::Neg, Type::Int, V.Reg), Type::Int};
    }
    case Expr::Kind::Binary:
      return lowerBinary(E);
    }
    return {B->emitConstInt(0), Type::Int};
  }

  TypedValue lowerCall(const Expr &E) {
    Module &M = *Result.M;
    FuncId Callee = FuncOf[E.Name];
    if (Callee == NoFunc) {
      error(E.Line, "call to undeclared function " + quoted(E.Name));
      return {B->emitConstInt(0), Type::Int};
    }
    const Function &F = M.Functions[Callee];
    if (E.Args.size() != F.NumParams)
      error(E.Line, quoted(E.Name) +
                        formatString(" expects %u arguments, got %zu",
                                     F.NumParams, E.Args.size()));
    std::vector<ValueId> Args;
    for (size_t K = 0; K < E.Args.size(); ++K) {
      TypedValue V = lowerExpr(*E.Args[K]);
      Type Want = K < F.ParamTypes.size() ? F.ParamTypes[K] : V.Ty;
      Args.push_back(convert(V, Want).Reg);
    }
    ValueId Res = B->emitCall(Callee, F.ReturnTy, std::move(Args));
    return {Res, F.ReturnTy == Type::Void ? Type::Int : F.ReturnTy};
  }

  TypedValue lowerBinary(const Expr &E) {
    return lowerBinaryFrom(E, lowerExpr(*E.Args[0]));
  }

  /// Lowers \p E with its left operand already evaluated to \p L — lets
  /// lowerAssign feed a load through a shared address register.
  TypedValue lowerBinaryFrom(const Expr &E, TypedValue L) {
    TypedValue R = lowerExpr(*E.Args[1]);
    bool IsFloat = L.Ty == Type::Float || R.Ty == Type::Float;

    using BK = Expr::BinOpKind;
    // Logical ops work on int conditions.
    if (E.BinOp == BK::And || E.BinOp == BK::Or) {
      TypedValue LI = toCondition(L);
      TypedValue RI = toCondition(R);
      Opcode Op = E.BinOp == BK::And ? Opcode::And : Opcode::Or;
      return {B->emitBinary(Op, Type::Int, LI.Reg, RI.Reg), Type::Int};
    }

    if (IsFloat) {
      L = convert(L, Type::Float);
      R = convert(R, Type::Float);
    }

    // The int and the float opcode of each operator from Add to Ge; '%'
    // has no float form. Only arithmetic on floats yields a float.
    static constexpr Opcode IntOps[] = {
        Opcode::Add,   Opcode::Sub,   Opcode::Mul,   Opcode::Div,
        Opcode::Rem,   Opcode::CmpEQ, Opcode::CmpNE, Opcode::CmpLT,
        Opcode::CmpLE, Opcode::CmpGT, Opcode::CmpGE};
    static constexpr Opcode FloatOps[] = {
        Opcode::FAdd,   Opcode::FSub,   Opcode::FMul,   Opcode::FDiv,
        Opcode::Rem,    Opcode::FCmpEQ, Opcode::FCmpNE, Opcode::FCmpLT,
        Opcode::FCmpLE, Opcode::FCmpGT, Opcode::FCmpGE};
    auto Index = static_cast<size_t>(E.BinOp);
    assert(Index < std::size(IntOps) && "unhandled binary operator");
    if (E.BinOp == BK::Rem && IsFloat)
      error(E.Line, "'%' requires integer operands");
    Opcode Op = IsFloat ? FloatOps[Index] : IntOps[Index];
    Type ResTy = IsFloat && E.BinOp < BK::Rem ? Type::Float : Type::Int;
    return {B->emitBinary(Op, ResTy, L.Reg, R.Reg), ResTy};
  }
};

} // namespace

LowerResult kremlin::lowerProgram(const ProgramAst &Program) {
  return Lowering(Program).run();
}

LowerResult kremlin::compileMiniC(std::string_view Source,
                                  std::string SourceName) {
  ParseResult PR = parseMiniC(Source, std::move(SourceName));
  if (!PR.succeeded()) {
    LowerResult LR;
    LR.M = std::make_unique<Module>();
    LR.Errors = std::move(PR.Errors);
    return LR;
  }
  return lowerProgram(PR.Program);
}
