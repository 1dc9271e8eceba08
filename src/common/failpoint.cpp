#include "common/failpoint.hpp"

#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>

namespace autogemm::failpoint {

namespace detail {
std::atomic<int> g_armed{0};
}  // namespace detail

namespace {

struct Entry {
  bool active = false;
  long budget = -1;  // hits remaining; -1 = unlimited
  long hits = 0;     // lifetime fire count
};

std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

// Transparent comparator: should_fail's lookup by the site's literal builds
// no std::string, so an armed registry does not allocate on every check.
std::map<std::string, Entry, std::less<>>& registry() {
  static std::map<std::string, Entry, std::less<>> reg;
  return reg;
}

void recount_locked() {
  int n = 0;
  for (const auto& [name, e] : registry())
    if (e.active) ++n;
  detail::g_armed.store(n, std::memory_order_relaxed);
}

std::once_flag g_env_once;

void ensure_env_parsed() { std::call_once(g_env_once, arm_from_env); }

}  // namespace

void arm_from_env() {
  const char* spec = std::getenv("AUTOGEMM_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    long budget = -1;
    const auto eq = item.find('=');
    if (eq != std::string::npos) {
      try {
        budget = std::stol(item.substr(eq + 1));
      } catch (...) {
        continue;  // malformed budget: ignore the entry, never crash
      }
      item.resize(eq);
    }
    arm(item, budget);
  }
}

void arm(const std::string& name, long budget) {
  std::lock_guard lock(registry_mu());
  Entry& e = registry()[name];
  e.active = budget != 0;
  e.budget = budget;
  recount_locked();
}

void disarm(const std::string& name) {
  std::lock_guard lock(registry_mu());
  auto it = registry().find(name);
  if (it != registry().end()) it->second.active = false;
  recount_locked();
}

void disarm_all() {
  std::lock_guard lock(registry_mu());
  registry().clear();
  recount_locked();
}

bool armed(const std::string& name) {
  ensure_env_parsed();
  std::lock_guard lock(registry_mu());
  auto it = registry().find(name);
  return it != registry().end() && it->second.active;
}

long hits(const std::string& name) {
  std::lock_guard lock(registry_mu());
  auto it = registry().find(name);
  return it == registry().end() ? 0 : it->second.hits;
}

std::vector<std::string> armed_names() {
  std::lock_guard lock(registry_mu());
  std::vector<std::string> names;
  for (const auto& [name, e] : registry())
    if (e.active) names.push_back(name);
  return names;
}

namespace detail {

bool should_fail_slow(const char* name) {
  std::lock_guard lock(registry_mu());
  auto it = registry().find(name);
  if (it == registry().end() || !it->second.active) return false;
  Entry& e = it->second;
  ++e.hits;
  if (e.budget > 0 && --e.budget == 0) {
    e.active = false;
    recount_locked();
  }
  return true;
}

}  // namespace detail

namespace {
// Environment arming must happen before the first should_fail fast-path
// check can short-circuit it: parse at static-init time. (Tests that
// setenv later call arm_from_env() explicitly.)
const bool g_env_parsed_at_init = [] {
  ensure_env_parsed();
  return true;
}();
}  // namespace

}  // namespace autogemm::failpoint
