#include "tune/records.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/failpoint.hpp"

namespace autogemm::tune {
namespace {

// FNV-1a 32-bit over the record payload; cheap, dependency-free, and
// plenty to catch the torn writes and bit rot the tolerant loader guards
// against (this is an integrity check, not a cryptographic one).
std::uint32_t fnv1a(const std::string& payload) {
  std::uint32_t h = 2166136261u;
  for (const unsigned char ch : payload) {
    h ^= ch;
    h *= 16777619u;
  }
  return h;
}

constexpr const char* kChecksumTag = " c=";

}  // namespace

GemmConfig config_from_candidate(int m, int n, int k, const Candidate& c) {
  GemmConfig cfg = default_config(m, n, k, c.backend);
  cfg.mc = c.mc;
  cfg.nc = c.nc;
  cfg.kc = c.kc;
  cfg.loop_order = c.loop_order;
  cfg.packing = c.packing;
  cfg.parallel_strategy = c.strategy;
  return cfg;
}

bool TuningRecords::add(const ShapeKey& shape, const Candidate& candidate,
                        double cost) {
  const RecordKey key{shape, candidate.backend};
  auto it = records_.find(key);
  if (it != records_.end() && it->second.cost <= cost) return false;
  records_[key] = {candidate, cost};
  return true;
}

std::optional<Candidate> TuningRecords::lookup(
    const ShapeKey& shape, backend::BackendId backend) const {
  auto it = records_.find(RecordKey{shape, backend});
  if (it == records_.end()) return std::nullopt;
  return it->second.candidate;
}

std::optional<double> TuningRecords::cost(const ShapeKey& shape,
                                          backend::BackendId backend) const {
  auto it = records_.find(RecordKey{shape, backend});
  if (it == records_.end()) return std::nullopt;
  return it->second.cost;
}

std::optional<Candidate> TuningRecords::lookup_nearest(
    const ShapeKey& shape, double max_log2_distance,
    backend::BackendId backend) const {
  const auto dim_distance = [](int want, int have) {
    return std::abs(std::log2(static_cast<double>(want) / have));
  };
  double best = std::numeric_limits<double>::infinity();
  const Record* best_rec = nullptr;
  for (const auto& [key, rec] : records_) {
    if (key.backend != backend) continue;
    const double d = dim_distance(shape.m, key.shape.m) +
                     dim_distance(shape.n, key.shape.n) +
                     dim_distance(shape.k, key.shape.k);
    if (d < best) {
      best = d;
      best_rec = &rec;
    }
  }
  if (best_rec == nullptr || best > max_log2_distance) return std::nullopt;
  return best_rec->candidate;
}

Status TuningRecords::save(std::ostream& os) const {
  os << "autogemm-records v1\n";
  os << "# m n k mc nc kc order packing cost strategy backend c=fnv1a(line)\n";
  bool corrupt_one = failpoint::should_fail("records.corrupt_save");
  for (const auto& [key, rec] : records_) {
    const ShapeKey& shape = key.shape;
    std::ostringstream line;
    line << shape.m << ' ' << shape.n << ' ' << shape.k << ' '
         << rec.candidate.mc << ' ' << rec.candidate.nc << ' '
         << rec.candidate.kc << ' '
         << static_cast<int>(rec.candidate.loop_order) << ' '
         << static_cast<int>(rec.candidate.packing) << ' ' << rec.cost << ' '
         << static_cast<int>(rec.candidate.strategy) << ' '
         << static_cast<int>(rec.candidate.backend);
    std::string payload = line.str();
    const std::uint32_t crc = fnv1a(payload);
    if (corrupt_one) {
      // Simulated bit rot *after* the checksum was computed — the loader
      // must detect the mismatch and skip exactly this record.
      payload[0] = payload[0] == '9' ? '8' : '9';
      corrupt_one = false;
    }
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc);
    os << payload << kChecksumTag << crc_hex << '\n';
  }
  if (!os) return DataLossError("TuningRecords::save: stream write failed");
  return Status::OK();
}

Status TuningRecords::load(std::istream& is, LoadReport* report) {
  records_.clear();
  LoadReport local;
  std::string line;
  bool saw_content = false;
  std::string first_bad;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!saw_content) {
      saw_content = true;
      // Versioned header, introduced after the seed format; headerless
      // streams are the legacy v1 layout and load unchanged.
      if (line.rfind("autogemm-records", 0) == 0) {
        std::istringstream hs(line);
        std::string magic, version;
        hs >> magic >> version;
        if (version != "v1") {
          if (report != nullptr) *report = local;
          return InvalidArgumentError(
              "TuningRecords::load: unsupported format version: " + line);
        }
        continue;
      }
    }
    // Per-line integrity: when the writer's checksum field is present, the
    // payload must hash to it; legacy lines without one load unverified.
    std::string payload = line;
    bool checksum_ok = true;
    const auto tag = line.rfind(kChecksumTag);
    if (tag != std::string::npos) {
      payload = line.substr(0, tag);
      const std::string hex = line.substr(tag + 3);
      char parsed_hex[16];
      std::snprintf(parsed_hex, sizeof(parsed_hex), "%08x", fnv1a(payload));
      checksum_ok = hex == parsed_hex;
    }
    std::istringstream ls(payload);
    ShapeKey shape;
    Record rec;
    int order = 0, packing = 0;
    const bool parsed =
        static_cast<bool>(ls >> shape.m >> shape.n >> shape.k >>
                          rec.candidate.mc >> rec.candidate.nc >>
                          rec.candidate.kc >> order >> packing >> rec.cost);
    // Optional trailing parallel-strategy field (absent in legacy 9-field
    // lines, which load as kAuto); if present it must be a valid value.
    int strategy = 0;
    bool strategy_ok = true;
    if (parsed && (ls >> strategy))
      strategy_ok = strategy >= 0 && strategy <= 2;
    // Optional trailing backend field, introduced with the backend
    // registry: legacy 9- and 10-field lines load as NEON (the only
    // backend that existed when they were written); a present field must
    // name a known backend.
    int backend_int = static_cast<int>(backend::BackendId::kNeon);
    bool backend_valid = true;
    if (parsed && strategy_ok && (ls >> backend_int))
      backend_valid = backend_int >= 0 &&
                      backend_int <= static_cast<int>(backend::BackendId::kX86Wide);
    // Legacy trailing dtype field: 0 (fp32) is what every record resolves
    // as; any other value is a tier no record serves, skipped as unknown.
    int dtype_int = 0;
    bool dtype_ok = true;
    if (parsed && strategy_ok && backend_valid && (ls >> dtype_int))
      dtype_ok = dtype_int == 0;
    const bool sane = parsed && strategy_ok && backend_valid && dtype_ok &&
                      shape.m > 0 &&
                      shape.n > 0 && shape.k > 0 && rec.candidate.mc > 0 &&
                      rec.candidate.nc > 0 && rec.candidate.kc > 0 &&
                      order >= 0 && order <= 5 && packing >= 0 &&
                      packing <= 2 && std::isfinite(rec.cost);
    if (!checksum_ok || !sane) {
      // Tolerant skip-and-report: one damaged line must not cost the
      // caller every healthy tuned configuration around it.
      ++local.skipped;
      if (first_bad.empty()) first_bad = line;
      continue;
    }
    rec.candidate.loop_order = static_cast<LoopOrder>(order);
    rec.candidate.packing = static_cast<kernels::Packing>(packing);
    rec.candidate.strategy = static_cast<ParallelStrategy>(strategy);
    rec.candidate.backend = static_cast<backend::BackendId>(backend_int);
    records_[RecordKey{shape, rec.candidate.backend}] = rec;
    ++local.loaded;
  }
  if (report != nullptr) *report = local;
  if (local.skipped > 0)
    return DataLossError("TuningRecords::load: skipped " +
                         std::to_string(local.skipped) +
                         " corrupt line(s), first: " + first_bad);
  return Status::OK();
}

Status TuningRecords::save_file(const std::string& path) const {
  // Temp-then-rename in the destination directory: rename(2) is atomic on
  // POSIX within a filesystem, so readers see either the old complete file
  // or the new complete file — never a truncated half-write.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os)
      return DataLossError("TuningRecords::save_file: cannot open " + tmp);
    const Status s = save(os);
    if (s.ok() && failpoint::should_fail("records.save_fail")) {
      os.setstate(std::ios::failbit);  // simulated disk-full mid-flush
    }
    if (!s.ok() || !os) {
      os.close();
      std::remove(tmp.c_str());
      return DataLossError("TuningRecords::save_file: write failed for " +
                           tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return DataLossError("TuningRecords::save_file: rename to " + path +
                         " failed");
  }
  return Status::OK();
}

void TuningRecords::merge_from(const TuningRecords& other) {
  for (const auto& [key, rec] : other.records_)
    add(key.shape, rec.candidate, rec.cost);
}

Status TuningRecords::save_file_merged(const std::string& path) const {
  TuningRecords merged = *this;
  TuningRecords on_disk;
  const Status loaded = on_disk.load_file(path);
  if (loaded.code() == StatusCode::kInvalidArgument) {
    // The file is a records file of a version we cannot parse: blindly
    // replacing it would silently destroy every record it holds.
    return loaded;
  }
  // kUnavailable (no file yet) merges nothing; kDataLoss merges whatever
  // the tolerant loader salvaged around the damage.
  if (loaded.ok() || loaded.code() == StatusCode::kDataLoss)
    merged.merge_from(on_disk);
  return merged.save_file(path);
}

Status TuningRecords::load_file(const std::string& path, LoadReport* report) {
  std::ifstream is(path);
  if (!is)
    return UnavailableError("TuningRecords::load_file: cannot read " + path);
  return load(is, report);
}

}  // namespace autogemm::tune
