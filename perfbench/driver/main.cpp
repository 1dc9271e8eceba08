// perfbench_driver: runs one benchmark workload against the library's
// public API and prints one JSON object of raw measurements on its last
// stdout line. run.py builds this program, writes the open-loop schedule,
// and turns the raw measurements into the named metrics.
//
//   perfbench_driver --workload resnet50|gpt2_block|serve_mixed --seed N
//                    --seconds S --trace 0|1 --schedule FILE
//                    [--trace-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "simd/vec.hpp"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

// ---- small utilities ---------------------------------------------------

void Raw::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name, int parent) {
  if (!enabled) return -1;
  spans_.push_back({name, autogemm::common::now_ns(), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns =
      autogemm::common::now_ns();
}

void SpanLog::add(const char* name, std::uint64_t begin_ns,
                  std::uint64_t end_ns, int parent) {
  if (enabled) spans_.push_back({name, begin_ns, end_ns, parent});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t b = s.begin_ns >= t0 ? s.begin_ns - t0 : 0;
    const std::uint64_t e = std::max(s.end_ns, s.begin_ns);
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(b) * 1e-3
        << ", \"dur\": " << static_cast<double>(e - s.begin_ns) * 1e-3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

unsigned worker_threads() {
  // ContextOptions::threads counts pool workers; the calling thread joins
  // every parallel region too, so threads + 1 compute threads run.
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return std::max(1u, n - 1);
}

double gemm_flops(long m, long n, long k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- correctness -------------------------------------------------------

bool check_fp32(ConstMatrixView a, ConstMatrixView b, ConstMatrixView c,
                bool trans_b, float alpha, int samples, std::uint64_t seed,
                std::string* why) {
  constexpr double kU = 0x1p-24;
  const int k = a.cols;
  for (int s = 0; s < samples; ++s) {
    const std::uint64_t h = mix_seed(seed, static_cast<std::uint64_t>(s));
    const int i = static_cast<int>(h % static_cast<std::uint64_t>(c.rows));
    const int j =
        static_cast<int>((h >> 32) % static_cast<std::uint64_t>(c.cols));
    double dot = 0, abs_dot = 0;
    for (int p = 0; p < k; ++p) {
      const double x = a.at(i, p);
      const double y = trans_b ? b.at(j, p) : b.at(p, j);
      dot += x * y;
      abs_dot += std::fabs(x * y);
    }
    dot *= alpha;
    abs_dot *= std::fabs(alpha);
    const double bound = 2.0 * (k + 2) * kU * abs_dot + 1e-30;
    const double err = std::fabs(static_cast<double>(c.at(i, j)) - dot);
    if (!(err <= bound)) {
      if (why) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "fp32 %dx%dx%d: C(%d,%d)=%.9g vs fp64 %.9g (bound %.3g)",
                      c.rows, c.cols, k, i, j, c.at(i, j), dot, bound);
        *why = buf;
      }
      return false;
    }
  }
  return true;
}

std::vector<double> reference_fp64(ConstMatrixView a, ConstMatrixView b) {
  std::vector<double> ref(static_cast<std::size_t>(a.rows) * b.cols, 0.0);
  for (int i = 0; i < a.rows; ++i)
    for (int p = 0; p < a.cols; ++p) {
      const double x = a.at(i, p);
      double* row = ref.data() + static_cast<std::size_t>(i) * b.cols;
      for (int j = 0; j < b.cols; ++j) row[j] += x * b.at(p, j);
    }
  return ref;
}

double rel_frobenius(const std::vector<double>& ref, ConstMatrixView c) {
  double num = 0, den = 0;
  for (int i = 0; i < c.rows; ++i)
    for (int j = 0; j < c.cols; ++j) {
      const double r = ref[static_cast<std::size_t>(i) * c.cols + j];
      const double d = c.at(i, j) - r;
      num += d * d;
      den += r * r;
    }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

double rel_frobenius_fp64(ConstMatrixView a, ConstMatrixView b,
                          ConstMatrixView c) {
  return rel_frobenius(reference_fp64(a, b), c);
}

// ---- schedule ------------------------------------------------------------

const Phase* Schedule::find(const std::string& name) const {
  for (const Phase& p : phases)
    if (p.name == name) return &p;
  return nullptr;
}

std::vector<const Phase*> Schedule::all(const std::string& name) const {
  std::vector<const Phase*> out;
  for (const Phase& p : phases)
    if (p.name == name) out.push_back(&p);
  return out;
}

bool load_schedule(const std::string& path, Schedule* out, std::string* why) {
  std::ifstream in(path);
  std::string word;
  if (!in || !(in >> word) || word != "perfbench-schedule" || !(in >> word) ||
      word != "v1") {
    *why = "cannot read schedule " + path;
    return false;
  }
  while (in >> word) {
    if (word == "limit_ms") {
      in >> out->limit_ms;
    } else if (word == "phase") {
      Phase p;
      std::size_t n = 0;
      in >> p.name >> p.rate >> p.seconds >> n;
      p.due_ns.resize(n);
      p.pick.resize(n);
      for (std::size_t i = 0; i < n; ++i) in >> p.due_ns[i] >> p.pick[i];
      out->phases.push_back(std::move(p));
    } else {
      *why = "schedule: unexpected token " + word;
      return false;
    }
    if (!in) {
      *why = "schedule: truncated";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0 ||
        line.rfind("CPU part", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

const char* simd_name() {
#if defined(AUTOGEMM_SIMD_SSE)
  return "sse2";
#elif defined(AUTOGEMM_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string raw_json(const Args& args, const Raw& raw, double peak) {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(args.workload)
    << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"fingerprint\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": " << json_string(cpu_model())
    << ", \"simd\": " << json_string(simd_name())
    << ", \"simd_bits\": " << (std::strcmp(simd_name(), "scalar") ? 128 : 0)
    << ", \"build_flags\": " << json_string(PERFBENCH_BUILD_FLAGS)
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"peak_gflops\": " << json_number(peak) << "}"
    << ", \"attempted\": " << raw.attempted << ", \"failed\": " << raw.failed
    << ", \"failures\": [";
  for (std::size_t i = 0; i < raw.failures.size(); ++i)
    o << (i ? ", " : "") << json_string(raw.failures[i]);
  o << "], \"setup_s\": " << json_array(raw.setup_s)
    << ", \"peak_rss_mb\": " << json_number(peak_rss_mb())
    << ", \"flops\": " << json_number(raw.flops)
    << ", \"timed_s\": " << json_number(raw.timed_s)
    << ", \"ops\": " << raw.ops << ", \"pass_ms\": " << json_array(raw.pass_ms)
    << ", \"first_ms\": " << json_array(raw.first_ms)
    << ", \"later_ms\": " << json_array(raw.later_ms)
    << ", \"op_ms\": " << json_array(raw.op_ms) << ", \"ladder\": [";
  for (std::size_t i = 0; i < raw.ladder.size(); ++i)
    o << (i ? ", " : "") << "{\"rate\": " << json_number(raw.ladder[i].rate)
      << ", \"lat_ms\": " << json_array(raw.ladder[i].lat_ms) << "}";
  o << "], \"layers\": {";
  for (std::size_t i = 0; i < raw.layers.size(); ++i)
    o << (i ? ", " : "") << json_string(raw.layers[i].first) << ": "
      << json_number(raw.layers[i].second);
  o << "}}";
  return o.str();
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--schedule") a->schedule_path = v;
    else if (k == "--trace-dir") a->trace_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --schedule FILE [--trace-dir DIR]\n");
    return 2;
  }
  Schedule sched;
  std::string why;
  if (!load_schedule(args.schedule_path, &sched, &why)) {
    std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
    return 2;
  }
  Raw raw;
  // Measured in every run so that each result carries the host's peak.
  raw.peak_gflops = host_peak_gflops();
  if (args.trace) raw.layer("host.peak_gflops", raw.peak_gflops);
  int rc = 0;
  if (args.workload == "resnet50") rc = run_resnet50(args, sched, raw);
  else if (args.workload == "gpt2_block") rc = run_gpt2_block(args, sched, raw);
  else if (args.workload == "serve_mixed") rc = run_serve_mixed(args, sched, raw);
  else {
    std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace && !args.trace_dir.empty()) {
    const std::string stem = args.trace_dir + "/" + args.workload + "-" +
                             std::to_string(args.seed);
    spans().write(stem + "-bench.json");
    autogemm::obs::Tracer::instance().write_chrome_json(stem + "-lib.json");
  }
  for (const std::string& f : raw.failures)
    std::fprintf(stderr, "perfbench_driver: FAILED %s\n", f.c_str());
  std::printf("%s\n", raw_json(args, raw, raw.peak_gflops).c_str());
  std::fflush(stdout);
  return raw.failed > 0 ? 1 : rc;
}
