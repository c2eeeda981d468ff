// CRC32C (Castagnoli) used to checksum WAL records, table blocks and the
// h5l/a2 on-disk structures. The kernel is chosen once, at first use: on
// x86-64 CPUs with SSE4.2, three interleaved streams of the crc32
// instruction; elsewhere, software slicing-by-8. Both give the same values.
// Masked variant provided for values embedded in checksummed payloads.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lsmio::crc32c {

/// Extends a running CRC with [data, data+n).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n) noexcept;

/// True when Extend runs the SSE4.2 kernel on this CPU.
bool HardwareAccelerated() noexcept;

/// CRC of [data, data+n).
inline uint32_t Value(const char* data, size_t n) noexcept {
  return Extend(0, data, n);
}

inline constexpr uint32_t kMaskDelta = 0xa282ead8u;

/// Returns a masked CRC, safe to store inside data that is itself CRC'd.
inline uint32_t Mask(uint32_t crc) noexcept {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked) noexcept {
  const uint32_t rot = masked - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

namespace internal {

/// The software slicing-by-8 kernel, exposed so tests can check the
/// dispatched kernel against it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) noexcept;

}  // namespace internal

}  // namespace lsmio::crc32c
