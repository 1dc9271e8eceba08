// Run-time selection, B packing and dispatch for the wide int8 tier. Built
// with the baseline flags: nothing here executes a wide instruction.
#include "kernels/qwide.hpp"

#include <cassert>
#include <cstring>

namespace autogemm::kernels {
namespace {

struct CpuInt8 {
  bool avx2 = false;
  bool avx_vnni = false;
  bool avx512_vnni = false;
};

const CpuInt8& cpu_int8() {
  static const CpuInt8 w = [] {
    CpuInt8 x;
#if defined(AUTOGEMM_X86_WIDE)
    __builtin_cpu_init();
    x.avx2 = __builtin_cpu_supports("avx2");
    x.avx_vnni = x.avx2 && __builtin_cpu_supports("avxvnni");
    x.avx512_vnni = __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512vnni");
#endif
    return x;
  }();
  return w;
}

const detail::QWideTable& table(QWideIsa isa) {
  assert(qwide_isa_supported(isa));
#if defined(AUTOGEMM_X86_WIDE)
  if (isa == QWideIsa::kAvx512Vnni) return detail::kQAvx512VnniTable;
  if (isa == QWideIsa::kAvxVnni) return detail::kQAvxVnniTable;
  return detail::kQAvx2Table;
#else
  static const detail::QWideTable none{nullptr, nullptr, nullptr};
  return none;
#endif
}

long round_up(long x, long q) { return (x + q - 1) / q * q; }

}  // namespace

const char* qwide_isa_name(QWideIsa isa) {
  switch (isa) {
    case QWideIsa::kNone: return "none";
    case QWideIsa::kAvx2: return "avx2";
    case QWideIsa::kAvxVnni: return "avx_vnni";
    case QWideIsa::kAvx512Vnni: return "avx512_vnni";
  }
  return "?";
}

QWideIsa detect_qwide_isa() {
  if (cpu_int8().avx512_vnni) return QWideIsa::kAvx512Vnni;
  if (cpu_int8().avx_vnni) return QWideIsa::kAvxVnni;
  if (cpu_int8().avx2) return QWideIsa::kAvx2;
  return QWideIsa::kNone;
}

bool qwide_isa_supported(QWideIsa isa) {
  switch (isa) {
    case QWideIsa::kNone: return false;
    case QWideIsa::kAvx2: return cpu_int8().avx2;
    case QWideIsa::kAvxVnni: return cpu_int8().avx_vnni;
    case QWideIsa::kAvx512Vnni: return cpu_int8().avx512_vnni;
  }
  return false;
}

int qwide_a_offset(QWideIsa isa) {
  return isa == QWideIsa::kAvxVnni || isa == QWideIsa::kAvx512Vnni ? 128 : 0;
}

long qwide_b_image_bytes(int k, int n) {
  return round_up(k, kQWideGroup) * round_up(n, kQWidePanel);
}

long qwide_panel_bytes(int k) { return round_up(k, kQWideGroup) * kQWidePanel; }

void qwide_pack_b(const std::int8_t* cols, long ld, int k, int n,
                  std::int8_t* image, std::int32_t* offset_sums) {
  const long panel_bytes = qwide_panel_bytes(k);
  std::memset(image, 0, static_cast<std::size_t>(qwide_b_image_bytes(k, n)));
  for (int c = 0; c < n; ++c) {
    const std::int8_t* col = cols + static_cast<long>(c) * ld;
    std::int8_t* dst = image + (c / kQWidePanel) * panel_bytes +
                       (c % kQWidePanel) * kQWideGroup;
    std::uint32_t sum = 0;
    for (int kk = 0; kk < k; ++kk) {
      dst[(kk / kQWideGroup) * kQWidePanel * kQWideGroup +
          kk % kQWideGroup] = col[kk];
      sum += static_cast<std::uint32_t>(col[kk]);
    }
    // Modulo 2^32, like the kernels' int32 accumulators it corrects.
    offset_sums[c] = static_cast<std::int32_t>(128u * sum);
  }
}

void qwide_quantize_a(QWideIsa isa, common::ConstMatrixView src,
                      const float* row_scales, std::uint8_t* dst, long ld) {
  table(isa).quantize_a(src, row_scales, dst, ld);
}

float qwide_max_abs(QWideIsa isa, const float* x, int n) {
  return table(isa).max_abs(x, n);
}

void qwide_gemm(QWideIsa isa, const QWideProblem& p) { table(isa).gemm(p); }

}  // namespace autogemm::kernels
