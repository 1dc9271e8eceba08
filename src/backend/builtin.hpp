// Factories for the built-in backends (internal to autogemm::backend; the
// registry registers them on first use).
#pragma once

#include <memory>

#include "backend/backend.hpp"
#include "kernels/wide.hpp"

namespace autogemm::backend {

std::unique_ptr<KernelBackend> make_neon_backend();
std::unique_ptr<KernelBackend> make_sve_sim_backend();
/// x86_wide at the given tier; kNone (a CPU without AVX2+FMA) gives a
/// backend that is not host-executable, so kAuto skips it.
std::unique_ptr<KernelBackend> make_x86_wide_backend(kernels::WideIsa isa);

}  // namespace autogemm::backend
