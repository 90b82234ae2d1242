// Per-lane semantics of every arithmetic, compare and convert op, defined
// once.
//
// Each row below is the only statement of what an op computes for one lane.
// The widened XOp enum (sim/decode.h) is generated from these rows, and so
// are both ways of running them: the production engine's computed-goto
// handlers (sim/interp_threaded.cpp) and the min-PC oracle's exec_compute
// (sim/interp.cpp). The engines add operand fetch, lane loops and issue
// accounting around a row; neither restates one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <type_traits>

#include "ir/instr.h"
#include "ir/types.h"
#include "sim/value_codec.h"

namespace gpc::sim {

// Float rows: X(name, expr). `expr` sees doubles a, b, c decoded for the
// op's type and `f32` (single precision); the result is rounded back to the
// type. divz() records a division by zero and yields 0.
#define GPC_XOP_FLOAT_OPS(X)                                              \
  X(Add, a + b)                                                           \
  X(Sub, a - b)                                                           \
  X(Mul, a * b)                                                           \
  X(Div, b == 0 ? divz() : a / b)                                         \
  /* GT200-style mad: the multiply rounds to f32 first. */                \
  X(Mad, static_cast<double>(static_cast<float>(a) *                      \
                             static_cast<float>(b)) + c)                  \
  X(Fma, std::fma(a, b, c))                                               \
  X(Neg, -a)                                                              \
  X(Abs, std::fabs(a))                                                    \
  X(Min, std::min(a, b))                                                  \
  X(Max, std::max(a, b))                                                  \
  X(Sqrt, std::sqrt(a))                                                   \
  X(Rsqrt, 1.0 / std::sqrt(a))                                            \
  X(Rcp, 1.0 / a)                                                         \
  /* f32 evaluates at float precision (GPU SFU semantics). */             \
  X(Sin, f32 ? std::sin(static_cast<float>(a)) : std::sin(a))             \
  X(Cos, f32 ? std::cos(static_cast<float>(a)) : std::cos(a))             \
  X(Ex2, std::exp2(a))                                                    \
  X(Lg2, std::log2(a))

// Integer rows: X(name, expr64, expr32).
//  * expr64 is the U64 lane: a, b, c are uint64_t, so arithmetic wraps and
//    every compare, divide and shift is unsigned.
//  * expr32 is the S32/U32 lane: a, b, c are uint32_t (wrapping) and s(x)
//    views x as the op's own signed or unsigned 32-bit type. The low 32 bits
//    of the result are kept and re-extended per the type. 32-bit lanes
//    matter because AVX2 has native 32-bit multiplies but only emulated
//    64-bit ones; the unrolled MxM inner loop is two integer mads per
//    ld.shared.
// divz() records a division by zero and yields 0.
#define GPC_XOP_INT_OPS(X)                                                \
  X(Add, a + b, a + b)                                                    \
  X(Sub, a - b, a - b)                                                    \
  X(Mul, a * b, a * b)                                                    \
  X(MulHi, static_cast<unsigned __int128>(a) * b >> 64,                   \
    static_cast<__int128>(s(a)) * s(b) >> 32)                             \
  X(Div, b == 0 ? divz() : a / b,                                         \
    b == 0 ? divz() : std::int64_t{s(a)} / s(b))                          \
  X(Rem, b == 0 ? divz() : a % b,                                         \
    b == 0 ? divz() : std::int64_t{s(a)} % s(b))                          \
  X(Mad, a * b + c, a * b + c)                                            \
  X(Neg, 0 - a, 0u - a)                                                   \
  X(Abs, a, std::abs(std::int64_t{s(a)}))                                 \
  X(Min, std::min(a, b), std::min(s(a), s(b)))                            \
  X(Max, std::max(a, b), std::max(s(a), s(b)))                            \
  X(And, a & b, a & b)                                                    \
  X(Or, a | b, a | b)                                                     \
  X(Xor, a ^ b, a ^ b)                                                    \
  X(Not, ~a, ~a)                                                          \
  X(Shl, a << (b & 63), a << (b & 31))                                    \
  X(Shr, a >> (b & 63), s(a) >> (b & 31))

// Compare rows: X(name, operator) over operands decoded per setp_dec.
#define GPC_CMP_OPS(X) \
  X(Eq, ==) X(Ne, !=) X(Lt, <) X(Le, <=) X(Gt, >) X(Ge, >=)

// Convert rows, one per (source, destination) domain — F float, I integer,
// source letter first: X(name, expr) over the raw source x, with the source
// type st and destination type dt known only at run time.
#define GPC_CVT_OPS(X)                                                    \
  X(FF, enc_float(dt, dec_float(st, x)))                                  \
  X(FI, enc_int(dt, static_cast<std::int64_t>(dec_float(st, x))))         \
  X(IF, enc_float(dt, static_cast<double>(dec_int(st, x))))               \
  X(II, enc_int(dt, dec_int(st, x)))

// ---------------------------------------------------------------------------
// Typed register codecs: dec_*/enc_* from value_codec.h with the type
// resolved at compile time.

template <ir::Type kT>
inline double fdec(std::uint64_t raw) {
  if constexpr (kT == ir::Type::F32) {
    return dec_f32(raw);
  } else {
    return dec_f64(raw);
  }
}

template <ir::Type kT>
inline std::uint64_t fenc(double v) {
  if constexpr (kT == ir::Type::F32) {
    return enc_f32(static_cast<float>(v));
  } else {
    return enc_f64(v);
  }
}

/// Keeps the low 32 bits of r and re-extends them per the S32/U32 type.
template <ir::Type kT, class R>
inline std::uint64_t enc32(R r) {
  if constexpr (kT == ir::Type::S32) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(r)));
  } else {
    return static_cast<std::uint32_t>(r);
  }
}

/// SetP operand interpretation: floats compare as double, S32 sign-extends,
/// U32/U64 compare unsigned.
template <ir::Type kT>
inline auto setp_dec(std::uint64_t raw) {
  if constexpr (kT == ir::Type::F32) {
    return static_cast<double>(dec_f32(raw));
  } else if constexpr (kT == ir::Type::F64) {
    return dec_f64(raw);
  } else if constexpr (kT == ir::Type::S32) {
    return static_cast<std::int64_t>(static_cast<std::int32_t>(raw));
  } else if constexpr (kT == ir::Type::U32) {
    return raw & 0xFFFFFFFFull;
  } else {
    return raw;
  }
}

// ---------------------------------------------------------------------------
// One lane function per row: Row::lane<kT>(divz, a, b, c) maps the raw
// register bits of one lane's operands to the raw bits of its result.

namespace fop {
#define GPC_X(name, expr)                                                 \
  struct name {                                                           \
    template <ir::Type kT, class DivZ>                                    \
    static std::uint64_t lane([[maybe_unused]] const DivZ& divz,          \
                              std::uint64_t ra, std::uint64_t rb,         \
                              std::uint64_t rc) {                         \
      [[maybe_unused]] constexpr bool f32 = kT == ir::Type::F32;          \
      [[maybe_unused]] const double a = fdec<kT>(ra), b = fdec<kT>(rb),   \
                                    c = fdec<kT>(rc);                     \
      return fenc<kT>(expr);                                              \
    }                                                                     \
  };
GPC_XOP_FLOAT_OPS(GPC_X)
#undef GPC_X
}  // namespace fop

namespace iop {
#define GPC_X(name, expr64, expr32)                                       \
  struct name {                                                           \
    template <ir::Type kT, class DivZ>                                    \
    static std::uint64_t lane([[maybe_unused]] const DivZ& divz,          \
                              std::uint64_t ra, std::uint64_t rb,         \
                              std::uint64_t rc) {                         \
      if constexpr (kT == ir::Type::U64) {                                \
        [[maybe_unused]] const std::uint64_t a = ra, b = rb, c = rc;      \
        return expr64;                                                    \
      } else {                                                            \
        using S = std::conditional_t<kT == ir::Type::S32, std::int32_t,   \
                                     std::uint32_t>;                      \
        [[maybe_unused]] const auto s = [](std::uint32_t x) {             \
          return static_cast<S>(x);                                       \
        };                                                                \
        [[maybe_unused]] const std::uint32_t                              \
            a = static_cast<std::uint32_t>(ra),                           \
            b = static_cast<std::uint32_t>(rb),                           \
            c = static_cast<std::uint32_t>(rc);                           \
        return enc32<kT>(expr32);                                         \
      }                                                                   \
    }                                                                     \
  };
GPC_XOP_INT_OPS(GPC_X)
#undef GPC_X
}  // namespace iop

namespace cvt {
#define GPC_X(name, expr)                                                 \
  struct name {                                                           \
    ir::Type st, dt;                                                      \
    std::uint64_t operator()(std::uint64_t x) const { return expr; }      \
  };
GPC_CVT_OPS(GPC_X)
#undef GPC_X
}  // namespace cvt

/// Register move and predicated select: raw register bits, no decode.
inline constexpr auto mov_lane = [](std::uint64_t a) { return a; };
inline constexpr auto selp_lane = [](std::uint64_t p, std::uint64_t a,
                                     std::uint64_t b) {
  return (p & 1) != 0 ? a : b;
};

// ---------------------------------------------------------------------------
// Lane loops.

/// The loop every compute handler runs: d[l] = f(src[l]...) for each active
/// lane l. kList reads lane ids from `lanes` (the oracle's guard-filtered
/// set, a divergent cohort); otherwise the lanes are the contiguous range
/// [0, n), the stride-1 shape the compiler auto-vectorizes.
template <bool kList, class F, class... Src>
inline void lanes_apply(const int* lanes, int n, std::uint64_t* d, F f,
                        const Src*... src) {
  for (int i = 0; i < n; ++i) {
    const int l = kList ? lanes[i] : i;
    d[l] = f(src[l]...);
  }
}

/// Evaluates one arithmetic row over n lanes.
template <bool kList, class Row, ir::Type kT, class DivZ>
inline void row_lanes(const DivZ& divz, const int* lanes, int n,
                      std::uint64_t* d, const std::uint64_t* a,
                      const std::uint64_t* b, const std::uint64_t* c) {
  lanes_apply<kList>(
      lanes, n, d,
      [&](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
        return Row::template lane<kT>(divz, x, y, z);
      },
      a, b, c);
}

/// SetP over n lanes: d = dec(a) <cmp> dec(b), one compare row per CmpOp.
template <bool kList, class Dec>
inline void setp_lanes(ir::CmpOp cmp, Dec dec, const int* lanes, int n,
                       std::uint64_t* d, const std::uint64_t* a,
                       const std::uint64_t* b) {
  switch (cmp) {
#define GPC_X(name, OP)                                                   \
  case ir::CmpOp::name:                                                   \
    lanes_apply<kList>(                                                   \
        lanes, n, d,                                                      \
        [&](std::uint64_t x, std::uint64_t y) -> std::uint64_t {          \
          return dec(x) OP dec(y);                                        \
        },                                                                \
        a, b);                                                            \
    return;
    GPC_CMP_OPS(GPC_X)
#undef GPC_X
  }
}

template <bool kList, ir::Type kT>
inline void setp_typed(ir::CmpOp cmp, const int* lanes, int n,
                       std::uint64_t* d, const std::uint64_t* a,
                       const std::uint64_t* b) {
  setp_lanes<kList>(
      cmp, [](std::uint64_t r) { return setp_dec<kT>(r); }, lanes, n, d, a,
      b);
}

}  // namespace gpc::sim
