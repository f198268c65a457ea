#pragma once
/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3 polynomial, reflected) used for checkpoint and
///        compressed-stream integrity checks.
///
/// The byte work is the `crc32_update` entry of the runtime-dispatched SIMD
/// kernel table (common/simd.hpp): the scalar and SSE2 tiers run the
/// byte-at-a-time table loop, the AVX2 and AVX-512 tiers (which dispatch
/// only selects on CPUs with PCLMULQDQ) fold 16-byte blocks with carry-less
/// multiplies. Every tier computes the same CRC, so stored streams do not
/// depend on the host; LCK_FORCE_ISA=scalar pins the table loop.

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace lck {

/// Incremental CRC-32 computation.
class Crc32 {
 public:
  /// Fold `data` into the running checksum. Splitting a buffer across calls
  /// gives the same result as one call over all of it.
  void update(std::span<const byte_t> data);

  /// Final checksum value.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC-32 of a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const byte_t> data);

}  // namespace lck
