//===- rt/Timestamp.h - HCPA time and latency model -------------*- C++ -*-===//
//
// Part of the Kremlin reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The availability-time type used by the HCPA runtime, and the per-opcode
/// latency model. Work and critical-path length are both measured in these
/// latency units (paper §4.1: availability time = max over dependences +
/// the operation's latency).
///
//===----------------------------------------------------------------------===//

#ifndef KREMLIN_RT_TIMESTAMP_H
#define KREMLIN_RT_TIMESTAMP_H

#include "ir/Opcode.h"

#include <cstdint>

namespace kremlin {

/// Region-relative availability time, in latency units.
using Time = uint64_t;

/// Latency of one operation. Work approximates the dynamic instruction
/// count: every real operation costs 1; artifacts of lowering that a
/// compiler would fold away (constants, register moves, address-base
/// materialization, region markers) cost 0. It is a constant, not an
/// option, because the tape decoder folds latencies into expression-tree
/// shapes (rt/ProfEvent.h) before the runtime exists.
constexpr unsigned latencyOf(Opcode Op) {
  switch (Op) {
  case Opcode::ConstInt:
  case Opcode::ConstFloat:
  case Opcode::Move:
  case Opcode::GlobalAddr:
  case Opcode::FrameAddr:
  case Opcode::RegionEnter:
  case Opcode::RegionExit:
    return 0;
  default:
    return 1;
  }
}

} // namespace kremlin

#endif // KREMLIN_RT_TIMESTAMP_H
