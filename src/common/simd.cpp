/// \file simd.cpp
/// \brief One-time CPUID dispatch over the per-ISA kernel tables, plus the
///        strict LCK_FORCE_ISA parsing and the test hooks.

#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "common/simd_tables.hpp"

namespace lck::simd {

namespace {

/// Cached dispatch choice; nullptr = not resolved yet. Two threads racing
/// the first resolution both compute the same table, so the race is benign.
std::atomic<const KernelOps*> g_active{nullptr};

constexpr const char* kIsaNames[] = {"scalar", "sse2", "avx2", "avx512"};

std::string valid_isa_names() {
  std::string s;
  for (const char* n : kIsaNames) {
    if (!s.empty()) s += ", ";
    s += n;
  }
  return s;
}

Isa choose_isa() {
  Isa isa = supported_isa();
  if (isa > compiled_isa()) isa = compiled_isa();
  if (const char* env = std::getenv("LCK_FORCE_ISA"); env && *env) {
    const Isa forced = parse_isa(env);  // strict: throws listing valid names
    if (forced > supported_isa())
      throw config_error(std::string("LCK_FORCE_ISA=") + env +
                         ": this CPU only supports up to " +
                         isa_name(supported_isa()));
    if (forced > compiled_isa())
      throw config_error(std::string("LCK_FORCE_ISA=") + env +
                         ": this binary was built without the " +
                         std::string(env) + " backend (max " +
                         isa_name(compiled_isa()) + ")");
    isa = forced;
  }
  return isa;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  const int i = static_cast<int>(isa);
  return (i >= 0 && i < 4) ? kIsaNames[i] : "unknown";
}

Isa parse_isa(const std::string& name) {
  for (int i = 0; i < 4; ++i)
    if (name == kIsaNames[i]) return static_cast<Isa>(i);
  throw config_error("unknown isa: '" + name + "' (valid: " +
                     valid_isa_names() + ")");
}

Isa supported_isa() noexcept {
#if defined(LCK_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
  // The wide tiers' CRC-32 kernel needs PCLMULQDQ; no AVX2 CPU is known to
  // lack it, but a VM may mask it, so the wide tiers require it explicitly.
  if (!__builtin_cpu_supports("pclmul")) return Isa::kSse2;
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kSse2;  // x86-64 baseline
#else
  return Isa::kScalar;
#endif
}

Isa compiled_isa() noexcept {
#if defined(LCK_SIMD_X86)
  return Isa::kAvx512;
#else
  return Isa::kScalar;
#endif
}

const KernelOps& ops_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::kOpsScalar;
#if defined(LCK_SIMD_X86)
    case Isa::kSse2:
      return detail::kOpsSse2;
    case Isa::kAvx2:
      return detail::kOpsAvx2;
    case Isa::kAvx512:
      return detail::kOpsAvx512;
#endif
    default:
      throw config_error(std::string("simd backend not compiled in: ") +
                         isa_name(isa));
  }
}

const KernelOps& ops() {
  const KernelOps* p = g_active.load(std::memory_order_acquire);
  if (p == nullptr) {
    p = &ops_for(choose_isa());
    g_active.store(p, std::memory_order_release);
  }
  return *p;
}

Isa active_isa() { return ops().isa; }

void force_isa(Isa isa) {
  if (isa > supported_isa())
    throw config_error(std::string("force_isa: this CPU only supports up to ") +
                       isa_name(supported_isa()));
  g_active.store(&ops_for(isa), std::memory_order_release);
}

void reset_isa() { g_active.store(nullptr, std::memory_order_release); }

}  // namespace lck::simd
