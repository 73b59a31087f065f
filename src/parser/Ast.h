//===- parser/Ast.h - MiniC abstract syntax trees ---------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for MiniC. The AST is an intermediate step between
/// the parser and IR lowering and owns all source-position information used
/// to build the static region table.
///
/// A ProgramAst owns everything its nodes refer to: identifiers are
/// SymbolIds into its NameTable, and nodes, child lists and dimension lists
/// live in its AstArena, so building a node costs no heap allocation and
/// freeing the tree frees a handful of chunks. Nothing points into the
/// parsed source. Nodes are plain structs with kind tags.
///
/// MiniC restrictions relevant to the HCPA runtime (documented in
/// DESIGN.md): no break/continue/goto (structured control flow keeps the
/// control-dependence stack exact), no pointers or address-of (arrays are
/// storage, not values), logical &&/|| evaluate eagerly (all arithmetic is
/// trap-free, so this is semantics-preserving).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_PARSER_AST_H
#define KREMLIN_PARSER_AST_H

#include "ir/Type.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace kremlin {

/// Dense id of an interned identifier spelling.
using SymbolId = uint32_t;
/// The empty spelling, interned first: the name of a declaration whose
/// identifier was missing.
inline constexpr SymbolId EmptyName = 0;

/// Interns identifier spellings. Each distinct spelling is copied once;
/// ids are dense from 0 in first-seen order.
class NameTable {
public:
  NameTable();

  SymbolId intern(std::string_view Name);
  /// The spelling of \p Id; valid until the next intern().
  std::string_view name(SymbolId Id) const {
    return {Chars.data() + Offsets[Id], Offsets[Id + 1] - Offsets[Id]};
  }
  uint32_t size() const { return static_cast<uint32_t>(Offsets.size() - 1); }

private:
  std::string Chars;             ///< Every spelling, back to back.
  std::vector<uint32_t> Offsets; ///< Spelling Id is [Offsets[Id], [Id+1]).
  std::vector<SymbolId> Slots;   ///< Open-addressed ids; UINT32_MAX free.
};

/// Bump allocator for AST nodes and their lists. Only trivially
/// destructible objects go in, so teardown frees the chunks and nothing
/// else. Moving an arena keeps every address it handed out.
class AstArena {
public:
  template <typename T> T *make() {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (allocate(sizeof(T), alignof(T))) T();
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<const T> copy(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Items.empty())
      return {};
    T *Data = static_cast<T *>(allocate(Items.size_bytes(), alignof(T)));
    std::uninitialized_copy(Items.begin(), Items.end(), Data);
    return {Data, Items.size()};
  }

private:
  /// \p Align is at most new's default alignment, which every chunk has.
  void *allocate(size_t Bytes, size_t Align);

  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  size_t Used = 0;     ///< Bytes taken from Chunks.back().
  size_t Capacity = 0; ///< Size of Chunks.back().
};

/// Expression node.
struct Expr {
  enum class Kind : unsigned char {
    IntLit,   ///< IntValue
    FloatLit, ///< FloatValue
    Var,      ///< Name
    Index,    ///< Name[args()[0]][args()[1]]...
    Call,     ///< Name(args()...)
    Unary,    ///< UnOp applied to args()[0]
    Binary    ///< args()[0] BinOp args()[1]
  };
  enum class UnOpKind : unsigned char { Neg, Not };
  /// Add to Ge are in the order of lowering's opcode tables.
  enum class BinOpKind : unsigned char {
    Add, Sub, Mul, Div, Rem, Eq, Ne, Lt, Le, Gt, Ge, And, Or
  };

  Kind K = Kind::IntLit;
  UnOpKind UnOp = UnOpKind::Neg;
  BinOpKind BinOp = BinOpKind::Add;
  unsigned Line = 0;
  SymbolId Name = EmptyName;
  /// Length of the operand list at ArgData (it fills the padding).
  uint32_t NumArgs = 0;
  /// A literal's value: one slot, read as the literal's kind says.
  union {
    int64_t IntValue = 0;
    double FloatValue;
  };
  const Expr *const *ArgData = nullptr;

  std::span<const Expr *const> args() const { return {ArgData, NumArgs}; }
};
static_assert(sizeof(Expr) <= 32, "keep expression nodes dense");

/// Statement node.
struct Stmt {
  enum class Kind : unsigned char {
    DeclScalar, ///< Ty Name = Init? ;
    DeclArray,  ///< Ty Name[d0][d1]... ;
    Assign,     ///< Target (Var or Index expr) = Value ;
    If,         ///< if (Cond) Then else Else?
    For,        ///< for (Init?; Cond?; Step?) Body
    While,      ///< while (Cond) Body
    Return,     ///< return Value? ;
    ExprStmt,   ///< Value ; (calls)
    Block       ///< { Body... }
  };

  Kind K = Stmt::Kind::Block;
  Type Ty = Type::Int;
  unsigned Line = 0;
  unsigned EndLine = 0;
  SymbolId Name = EmptyName;
  std::span<const uint64_t> Dims;

  const Expr *Target = nullptr; ///< Assign: lvalue (Var or Index).
  const Expr *Value = nullptr;  ///< Assign/Return/ExprStmt value; If/While/
                                ///< For condition lives in Cond.
  const Expr *Cond = nullptr;
  const Stmt *Init = nullptr; ///< For: init statement (Assign or DeclScalar).
  const Stmt *Step = nullptr; ///< For: step statement (Assign).
  const Stmt *Then = nullptr;
  const Stmt *Else = nullptr;
  std::span<const Stmt *const> Body;
};

/// One function parameter. Array parameters carry trailing dimensions for
/// index flattening; Dims[0] == 0 means "unknown first dimension" (T a[]).
struct ParamDecl {
  Type Ty = Type::Int;
  bool IsArray = false;
  SymbolId Name = EmptyName;
  std::span<const uint64_t> Dims;
  unsigned Line = 0;
};

/// One parsed function definition.
struct FuncDecl {
  Type ReturnTy = Type::Void;
  SymbolId Name = EmptyName;
  std::span<const ParamDecl> Params;
  const Stmt *Body = nullptr; ///< Always a Block statement.
  unsigned Line = 0;
  unsigned EndLine = 0;
};

/// One parsed global array declaration.
struct GlobalDecl {
  Type Ty = Type::Int;
  SymbolId Name = EmptyName;
  std::span<const uint64_t> Dims;
  unsigned Line = 0;
};

/// A whole parsed translation unit. Move-only: its nodes live in Arena.
struct ProgramAst {
  std::string SourceName;
  std::vector<GlobalDecl> Globals;
  std::vector<FuncDecl> Functions;
  NameTable Names;
  AstArena Arena;

  std::string_view name(SymbolId Id) const { return Names.name(Id); }
};

} // namespace kremlin

#endif // KREMLIN_PARSER_AST_H
