#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace lsmio::crc32c {
namespace {

// CRC32C polynomial, reflected.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // table[k][b]: CRC contribution of byte b at position k (slicing-by-8).
  uint32_t t[8][256];
};

Tables BuildTables() {
  Tables tb{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tb.t[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = tb.t[0][b];
    for (int k = 1; k < 8; ++k) {
      crc = tb.t[0][crc & 0xff] ^ (crc >> 8);
      tb.t[k][b] = crc;
    }
  }
  return tb;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

#if defined(__x86_64__)

// The SSE4.2 kernel runs three independent crc32 instruction streams over
// adjacent stripes, which hides the instruction's three-cycle latency, then
// joins them: crc(A || B) = Shift_|B|(crc(A)) ^ crc_from_zero(B) on the raw
// CRC register. Shift_n, the effect of n zero bytes, is a linear map over
// GF(2), tabulated byte by byte (after Mark Adler's crc32c.c).
constexpr size_t kLongStripe = 8192;
constexpr size_t kShortStripe = 256;

// zeros[k][b]: Shift applied to byte b of the register at position k.
using ShiftTable = uint32_t[4][256];

struct ShiftTables {
  ShiftTable long_stripe;
  ShiftTable short_stripe;
};

// A 32x32 matrix over GF(2): row i is the image of bit i.
using Gf2Matrix = std::array<uint32_t, 32>;

uint32_t Gf2Times(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (size_t i = 0; vec != 0; vec >>= 1, ++i) {
    if (vec & 1) sum ^= mat[i];
  }
  return sum;
}

Gf2Matrix Gf2Square(const Gf2Matrix& mat) {
  Gf2Matrix square{};
  for (size_t i = 0; i < 32; ++i) square[i] = Gf2Times(mat, mat[i]);
  return square;
}

// Fills `zeros` with the operator for `len` zero bytes; `len` is a power of
// two.
void BuildShiftTable(ShiftTable& zeros, size_t len) {
  // One zero bit: shift right, folding the polynomial back in. Squaring
  // doubles the bits covered, up to 8 * len.
  Gf2Matrix op{};
  op[0] = kPoly;
  for (size_t i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
  for (size_t bits = 1; bits < 8 * len; bits *= 2) op = Gf2Square(op);
  for (uint32_t b = 0; b < 256; ++b) {
    for (int k = 0; k < 4; ++k) zeros[k][b] = Gf2Times(op, b << (8 * k));
  }
}

const ShiftTables& GetShiftTables() {
  static const ShiftTables tables = [] {
    ShiftTables st{};
    BuildShiftTable(st.long_stripe, kLongStripe);
    BuildShiftTable(st.short_stripe, kShortStripe);
    return st;
  }();
  return tables;
}

uint32_t Shift(const ShiftTable& zeros, uint32_t crc) {
  return zeros[0][crc & 0xff] ^ zeros[1][(crc >> 8) & 0xff] ^
         zeros[2][(crc >> 16) & 0xff] ^ zeros[3][crc >> 24];
}

uint64_t Load64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Consumes whole groups of three `stripe`-byte stripes from [*p, *p + *n).
__attribute__((target("sse4.2"))) uint64_t Interleave3(
    uint64_t crc0, const unsigned char** p, size_t* n, size_t stripe,
    const ShiftTable& shift) {
  while (*n >= 3 * stripe) {
    const unsigned char* next = *p;
    const unsigned char* const end = next + stripe;
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    do {
      crc0 = _mm_crc32_u64(crc0, Load64(next));
      crc1 = _mm_crc32_u64(crc1, Load64(next + stripe));
      crc2 = _mm_crc32_u64(crc2, Load64(next + 2 * stripe));
      next += 8;
    } while (next < end);
    crc0 = Shift(shift, static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = Shift(shift, static_cast<uint32_t>(crc0)) ^ crc2;
    *p += 3 * stripe;
    *n -= 3 * stripe;
  }
  return crc0;
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                        const char* data,
                                                        size_t n) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;

  // Leading bytes up to an 8-byte boundary, so no word load splits a cache
  // line.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  if (n >= 3 * kShortStripe) {
    const ShiftTables& st = GetShiftTables();
    crc = Interleave3(crc, &p, &n, kLongStripe, st.long_stripe);
    crc = Interleave3(crc, &p, &n, kShortStripe, st.short_stripe);
  }
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, Load64(p));
  for (; n > 0; --n) crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

#endif  // __x86_64__

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t) noexcept;

// The kernel for this CPU, chosen on first use.
ExtendFn Kernel() {
  static const ExtendFn kernel = []() -> ExtendFn {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
    return internal::ExtendPortable;
  }();
  return kernel;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data,
                        size_t n) noexcept {
  const Tables& tb = GetTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;

  // Process 8 bytes at a time (slicing-by-8).
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    __builtin_memcpy(&lo, p, 4);
    __builtin_memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][(lo >> 24) & 0xff] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][(hi >> 24) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) noexcept {
  return Kernel()(init_crc, data, n);
}

bool HardwareAccelerated() noexcept {
  return Kernel() != internal::ExtendPortable;
}

}  // namespace lsmio::crc32c
