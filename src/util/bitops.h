// Small integer helpers used throughout the butterfly code, where almost
// every dimension is a power of two.
#pragma once

#include <cstdint>

#include "util/error.h"

namespace repro {

constexpr bool IsPow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

// floor(log2(x)); exact for powers of two (the only use in this codebase).
constexpr unsigned Log2(std::size_t x) {
  unsigned r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

// Smallest power of two >= x.
constexpr std::size_t NextPow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

// Reverses the low `bits` bits of `x`; the FFT/butterfly input permutation.
constexpr std::uint32_t BitReverse(std::uint32_t x, unsigned bits) {
  std::uint32_t r = 0;
  for (unsigned i = 0; i < bits; ++i) {
    r = (r << 1) | ((x >> i) & 1u);
  }
  return r;
}

constexpr std::size_t CeilDiv(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// x rounded up to a multiple of 16, the AMP's row block: GEMM operands and
// outputs are padded to it.
constexpr std::size_t Pad16(std::size_t x) { return CeilDiv(x, 16) * 16; }

}  // namespace repro
