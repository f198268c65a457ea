#include "common/crc32.hpp"

#include "common/simd.hpp"

namespace lck {

void Crc32::update(std::span<const byte_t> data) {
  state_ = simd::ops().crc32_update(state_, data.data(), data.size());
}

std::uint32_t crc32(std::span<const byte_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace lck
