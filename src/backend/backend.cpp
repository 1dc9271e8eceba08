#include "backend/backend.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "backend/builtin.hpp"

namespace autogemm::backend {

void BackendRegistry::register_backend(std::unique_ptr<KernelBackend> b) {
  if (!b) throw std::invalid_argument("registry: null backend");
  const BackendId id = b->caps().id;
  if (id == BackendId::kAuto)
    throw std::invalid_argument("registry: kAuto is not a registrable id");
  for (auto& existing : backends_) {
    if (existing->caps().id == id) {
      existing = std::move(b);
      return;
    }
  }
  backends_.push_back(std::move(b));
}

const KernelBackend* BackendRegistry::find(BackendId id) const {
  for (const auto& b : backends_)
    if (b->caps().id == id) return b.get();
  return nullptr;
}

const KernelBackend& BackendRegistry::get(BackendId id) const {
  const KernelBackend* b = find(id);
  if (!b)
    throw std::out_of_range("registry: no backend named '" +
                            std::string(backend_name(id)) + "'");
  return *b;
}

std::vector<const KernelBackend*> BackendRegistry::all() const {
  std::vector<const KernelBackend*> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b.get());
  std::sort(out.begin(), out.end(),
            [](const KernelBackend* a, const KernelBackend* b) {
              if (a->caps().priority != b->caps().priority)
                return a->caps().priority > b->caps().priority;
              return a->caps().id < b->caps().id;
            });
  return out;
}

BackendId BackendRegistry::resolve(BackendId requested) const {
  if (requested != BackendId::kAuto) {
    (void)get(requested);  // throws for unregistered ids
    return requested;
  }
  if (const char* env = std::getenv("AUTOGEMM_BACKEND")) {
    const BackendId id = parse_backend(env);
    if (id != BackendId::kAuto && find(id)) return id;
  }
  const auto ordered = all();
  if (ordered.empty()) throw std::out_of_range("registry: no backends");
  // Highest-priority host-executable backend: x86_wide on a CPU that runs
  // it, else neon (bitwise-identical to the pre-registry library).
  for (const KernelBackend* b : ordered)
    if (b->caps().host_executable) return b->caps().id;
  return ordered.front()->caps().id;
}

BackendRegistry& registry() {
  // Built-ins registered once, before main() can race (magic static).
  // Registration after startup is the caller's concurrency problem; reads
  // after that point are lock-free over an effectively immutable set.
  static BackendRegistry* reg = [] {
    auto* r = new BackendRegistry();
    r->register_backend(make_x86_wide_backend(kernels::detect_wide_isa()));
    r->register_backend(make_neon_backend());
    r->register_backend(make_sve_sim_backend());
    return r;
  }();
  return *reg;
}

const KernelBackend& get_backend(BackendId id) { return registry().get(id); }

BackendId resolve_backend(BackendId requested) {
  return registry().resolve(requested);
}

const KernelBackend& host_backend(BackendId id) {
  const KernelBackend& b = get_backend(id);
  return b.caps().host_executable ? b : get_backend(BackendId::kNeon);
}

}  // namespace autogemm::backend
