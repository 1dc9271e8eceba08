// Run-time selection and lookup for the x86_wide tables. Built with the
// baseline flags: nothing here executes a wide instruction.
#include "kernels/wide.hpp"

namespace autogemm::kernels {
namespace {

struct CpuWidth {
  bool avx2 = false;  // AVX2 and FMA
  bool avx512 = false;
};

const CpuWidth& cpu_width() {
  static const CpuWidth w = [] {
    CpuWidth x;
#if defined(AUTOGEMM_X86_WIDE)
    __builtin_cpu_init();
    x.avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    x.avx512 = __builtin_cpu_supports("avx512f");
#endif
    return x;
  }();
  return w;
}

const detail::WideTable* table(WideIsa isa) {
  if (!wide_isa_supported(isa)) return nullptr;
#if defined(AUTOGEMM_X86_WIDE)
  if (isa == WideIsa::kAvx512) return &detail::kAvx512Table;
  if (isa == WideIsa::kAvx2) return &detail::kAvx2Table;
#endif
  return nullptr;
}

const detail::WideEntry* entry(WideIsa isa, int mr, int vn) {
  const detail::WideTable* t = table(isa);
  if (t == nullptr || mr < 1 || mr > t->max_mr || vn < 1 || vn > t->max_vn)
    return nullptr;
  return &t->entries[(mr - 1) * t->max_vn + (vn - 1)];
}

}  // namespace

const char* wide_isa_name(WideIsa isa) {
  switch (isa) {
    case WideIsa::kNone: return "none";
    case WideIsa::kAvx2: return "avx2";
    case WideIsa::kAvx512: return "avx512";
  }
  return "?";
}

WideIsa detect_wide_isa() {
  if (cpu_width().avx512) return WideIsa::kAvx512;
  if (cpu_width().avx2) return WideIsa::kAvx2;
  return WideIsa::kNone;
}

bool wide_isa_supported(WideIsa isa) {
  switch (isa) {
    case WideIsa::kNone: return false;
    case WideIsa::kAvx2: return cpu_width().avx2;
    case WideIsa::kAvx512: return cpu_width().avx512;
  }
  return false;
}

int wide_lanes(WideIsa isa) {
  switch (isa) {
    case WideIsa::kNone: return 0;
    case WideIsa::kAvx2: return 8;
    case WideIsa::kAvx512: return 16;
  }
  return 0;
}

int wide_registers(WideIsa isa) {
  switch (isa) {
    case WideIsa::kNone: return 0;
    case WideIsa::kAvx2: return 16;
    case WideIsa::kAvx512: return 32;
  }
  return 0;
}

MicroKernelFn wide_kernel(WideIsa isa, int mr, int nr) {
  const int lanes = wide_lanes(isa);
  if (lanes == 0 || nr % lanes != 0) return nullptr;
  const detail::WideEntry* e = entry(isa, mr, nr / lanes);
  return e != nullptr ? e->exact : nullptr;
}

MaskedKernelFn wide_masked_kernel(WideIsa isa, int mr, int cols) {
  const int lanes = wide_lanes(isa);
  if (lanes == 0 || cols < 1) return nullptr;
  const detail::WideEntry* e = entry(isa, mr, (cols + lanes - 1) / lanes);
  return e != nullptr ? e->masked : nullptr;
}

}  // namespace autogemm::kernels
