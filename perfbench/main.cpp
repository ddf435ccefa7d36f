// sapp_perfbench — end-to-end and per-layer benchmark of the adaptive
// reduction runtime. Usually started through perfbench/run.py, which
// builds it; see README.md for the workloads and metrics.
//
//   sapp_perfbench --workload <fig3_rotate|serve_churn>
//                  --seed <n> --seconds <s> --trace <0|1> --tmp <dir>
//                  [--steps <n>]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is a JSON "detail" object with sample
// counts, program counters, host-speed reference times, the end-to-end
// metrics before host-speed correction and the host's steal time.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "common/timer.hpp"

namespace perfbench {

// ---- helpers ---------------------------------------------------------------

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

bool matches(std::span<const double> out, std::span<const double> ref) {
  if (out.size() != ref.size()) return false;
  for (std::size_t e = 0; e < out.size(); ++e)
    if (!(std::abs(out[e] - ref[e]) <= 1e-9 + 1e-6 * std::abs(ref[e])))
      return false;
  return true;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/// Aggregate "cpu" line of /proc/stat: (steal, total) in clock ticks.
std::pair<std::uint64_t, std::uint64_t> read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  if (label != "cpu") return {0, 0};
  std::uint64_t v = 0, total = 0, steal = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = read_cpu_ticks(); }

double StealMeter::percent() const {
  const auto [steal, total] = read_cpu_ticks();
  if (total <= total_) return 0.0;
  return 100.0 * static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

HostReference::HostReference() : cells_(std::size_t{1} << 20, 0.0) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;  // splitmix64, fixed seed
  for (int i = 0; i < (1 << 16); ++i) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    idx_.push_back(static_cast<std::uint32_t>((z ^ (z >> 31)) % cells_.size()));
  }
}

double HostReference::median_pass(int n) {
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(pass());
  return median(xs);
}

double HostReference::pass() {
  auto sweep = [this] {
    for (const std::uint32_t i : idx_) cells_[i] += 1.0;
  };
  sweep();  // warm-up: bring the touched lines back into the caches
  const sapp::Timer t;
  sweep();
  const double s = t.seconds();
  // Keep the sweeps observable so they are not optimized away.
  if (cells_[idx_[0]] < 0.0) std::abort();
  return s;
}

namespace {

// ---- output ----------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<LayerMetric>& ms) {
  std::ostringstream o;
  o << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) o << ", ";
    o << '"' << ms[i].name << "\": {\"value\": " << num(ms[i].value)
      << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  o << '}';
  return o.str();
}

/// Samples strictly above the q-quantile (a percentile is reported only
/// with at least 10 of them).
std::size_t beyond(const std::vector<double>& xs, double q) {
  const double cut = quantile(xs, q);
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return x > cut; }));
}

/// The end-to-end times of one window of the measured phase.
struct WindowTimes {
  double step_p90_ms, calls_per_s, call_p50_us, call_p99_us;
};

/// Factor that scales a time measured in `win` to the nominal host speed
/// (kRefNominalS over the window's median reference pass).
double host_factor(const Window& win) {
  return win.ref.count() > 0 ? kRefNominalS / median(win.ref.kept()) : 1.0;
}

/// The window's times as measured (`corrected` false) or scaled to the
/// nominal host speed.
WindowTimes window_times(const Window& win, bool corrected) {
  const double k = corrected ? host_factor(win) : 1.0;
  // The one application thread makes its calls back to back, so their
  // summed wall is its busy time (the harness's verification between
  // calls is excluded).
  const double busy_s = win.calls.sum() * k;
  return {
      quantile(win.steps.kept(), 0.9) * 1e3 * k,
      busy_s > 0.0 ? static_cast<double>(win.calls.count()) / busy_s : 0.0,
      quantile(win.calls.kept(), 0.5) * 1e6 * k,
      quantile(win.calls.kept(), 0.99) * 1e6 * k,
  };
}

std::vector<LayerMetric> end_to_end(const RunRecord& rec, bool corrected) {
  std::vector<WindowTimes> wt;
  for (const Window& win : rec.windows)
    wt.push_back(window_times(win, corrected));
  auto over_windows = [&wt](double WindowTimes::*field) {
    std::vector<double> xs;
    for (const WindowTimes& t : wt) xs.push_back(t.*field);
    return median(xs);
  };
  const double setup_k =
      corrected ? kSetupRefNominalS / median(rec.setup_ref_s) : 1.0;
  return {
      {"setup_s", median(rec.setup_s) * setup_k, "s"},
      {"step_p90_ms", over_windows(&WindowTimes::step_p90_ms), "ms"},
      {"calls_per_s", over_windows(&WindowTimes::calls_per_s), "1/s"},
      {"call_p50_us", over_windows(&WindowTimes::call_p50_us), "us"},
      {"call_p99_us", over_windows(&WindowTimes::call_p99_us), "us"},
      {"peak_rss_mb", rec.peak_rss_mb, "MB"},
  };
}

/// Invariants of the benchmark's own settings, checked in every run: the
/// timing feedback loop is parked, and no decision flush failed.
bool settings_hold(const Counts& c) {
  return c.scheme_switches == 0 && c.time_drift_demotions == 0 &&
         c.flush_failures == 0;
}

/// JSON list of one end-to-end time per window, as measured.
std::string per_window(const RunRecord& rec, double WindowTimes::*field) {
  std::string out = "[";
  for (std::size_t k = 0; k < kWindows; ++k)
    out += (k ? ", " : "") + num(window_times(rec.windows[k], false).*field);
  return out + "]";
}

std::string detail_json(const Args& args, const Workload& w,
                        const RunRecord& rec) {
  const Counts& c = rec.counts;
  std::size_t steps_beyond = SIZE_MAX, calls_beyond = SIZE_MAX;
  for (const Window& win : rec.windows) {
    steps_beyond = std::min(steps_beyond, beyond(win.steps.kept(), 0.9));
    calls_beyond = std::min(calls_beyond, beyond(win.calls.kept(), 0.99));
  }
  std::ostringstream o;
  o << "{\"detail\": {\"workload\": \"" << args.workload
    << "\", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"pool_width\": " << kPoolWidth
    << ", \"calls_per_step\": " << w.calls_per_step()
    << ", \"windows\": " << kWindows << ", \"steps_per_window\": [";
  for (std::size_t k = 0; k < kWindows; ++k)
    o << (k ? ", " : "") << rec.windows[k].steps.count();
  o << "], \"window_step_p90_ms\": "
    << per_window(rec, &WindowTimes::step_p90_ms)
    << ", \"window_calls_per_s\": "
    << per_window(rec, &WindowTimes::calls_per_s)
    << ", \"min_steps_beyond_p90\": " << steps_beyond
    << ", \"min_calls_beyond_p99\": " << calls_beyond
    << ", \"window_ref_pass_us\": [";
  for (std::size_t k = 0; k < kWindows; ++k)
    o << (k ? ", " : "")
      << num(rec.windows[k].ref.count() > 0
                 ? median(rec.windows[k].ref.kept()) * 1e6
                 : 0.0);
  o << "], \"ref_nominal_us\": " << num(kRefNominalS * 1e6)
    << ", \"uncorrected\": " << metrics_json(end_to_end(rec, false))
    << ", \"traced_calls\": " << rec.spans.calls
    << ", \"wall_s\": " << num(rec.wall_s)
    << ", \"steal_pct\": " << num(rec.steal_pct)
    << ", \"setup_reps_s\": [";
  for (std::size_t i = 0; i < rec.setup_s.size(); ++i)
    o << (i ? ", " : "") << num(rec.setup_s[i]);
  o << "], \"setup_ref_pass_us\": [";
  for (std::size_t i = 0; i < rec.setup_ref_s.size(); ++i)
    o << (i ? ", " : "") << num(rec.setup_ref_s[i] * 1e6);
  o << "], \"mismatches\": " << rec.mismatches
    << ", \"exceptions\": " << rec.exceptions
    << ", \"check_failures\": " << c.check_failures
    << ", \"flush_failures\": " << c.flush_failures
    << ", \"recharacterizations\": " << c.recharacterizations
    << ", \"scheme_switches\": " << c.scheme_switches
    << ", \"time_drift_demotions\": " << c.time_drift_demotions
    << ", \"warm_offers\": " << c.warm_offers
    << ", \"evictions\": " << c.evictions;
  if (args.trace)
    o << ", \"reconcile_err_pct\": " << num(reconcile_err_pct(rec.spans))
      << ", \"reconcile_tol_pct\": " << num(kReconcileTolPct);
  o << ", \"decisions\": {";
  for (std::size_t k = 0; k < c.decisions.size(); ++k)
    o << (k ? ", " : "") << '"'
      << sapp::to_string(static_cast<sapp::SchemeKind>(k))
      << "\": " << c.decisions[k];
  o << "}}}";
  return o.str();
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--steps") {
      a.steps = std::stoull(v);
    } else if (flag == "--tmp") {
      a.tmp = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0)
    throw std::invalid_argument("--seconds must be in (0, 600]");
  if (a.tmp.empty()) throw std::invalid_argument("--tmp is required");
  return a;
}

/// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupReps = 9;
/// Back-to-back reference passes timed just before each set-up.
constexpr int kSetupRefPasses = 9;

int run(const Args& args) {
  std::filesystem::create_directories(args.tmp);
  std::unique_ptr<Workload> w = make_workload(args.workload);
  RunRecord rec;
  HostReference ref;
  for (int k = 0; k < kSetupReps; ++k) {
    w->teardown();
    // Hand the freed memory back to the kernel, so every set-up faults its
    // pages in afresh as a starting process does, instead of only the
    // first one.
    (void)malloc_trim(0);
    rec.setup_ref_s.push_back(ref.median_pass(kSetupRefPasses));
    const sapp::Timer t;
    w->setup(args);
    rec.setup_s.push_back(t.seconds());
  }
  measure(*w, args, ref, rec);
  w->collect(rec);

  const std::uint64_t failed =
      rec.mismatches + rec.exceptions + rec.counts.check_failures;
  bool correct = failed == 0 && settings_hold(rec.counts);
  std::vector<LayerMetric> metrics;
  if (args.trace) {
    correct = correct && rec.spans.calls > 0 &&
              reconcile_err_pct(rec.spans) <= kReconcileTolPct;
    trace_layers(*w, args, rec, metrics);
  } else {
    metrics = end_to_end(rec, true);
  }

  std::cout << detail_json(args, *w, rec) << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rec.attempted
            << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sapp_perfbench: " << e.what() << '\n';
    return 2;
  }
}
