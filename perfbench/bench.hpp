// Shared types of the adaptive-runtime benchmark (see README.md).
//
// The benchmark drives the library only through its public entry points:
// `sapp::Runtime::submit` for the measured workloads, and the layer entry
// points (characterize, decide_model, Scheme::plan/execute, the kernel
// table, calibration, the decision store) for the traced replay. Nothing
// here reaches into `src/` internals, so every span is measured from
// outside the layer it times.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When nonzero, measure exactly this many steps instead of `seconds`
  /// (the determinism self-test compares counts across runs).
  std::uint64_t steps = 0;
  /// Scratch directory for decision-store shards (inside the checkout).
  std::filesystem::path tmp;
};

/// Timing samples with a fixed memory footprint. With a capacity, every
/// sample is kept until the buffer is full; after that it keeps every 2nd,
/// 4th, ... sample, a uniform-in-time subset. The buffer's pages are
/// touched up front, so sample storage adds a constant to the peak RSS
/// however many calls a run makes. count() and sum() cover every sample.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : cap_(capacity) {
    kept_.assign(capacity, 0.0);
    kept_.clear();
  }

  void add(double x) {
    const std::uint64_t i = count_++;
    sum_ += x;
    if (i % stride_ != 0) return;
    if (kept_.size() == cap_) {
      for (std::size_t k = 0; k < cap_ / 2; ++k) kept_[k] = kept_[2 * k];
      kept_.resize(cap_ / 2);
      stride_ *= 2;
      if (i % stride_ != 0) return;
    }
    kept_.push_back(x);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] const std::vector<double>& kept() const { return kept_; }

 private:
  std::size_t cap_;  ///< a power of two
  std::uint64_t count_ = 0;
  std::uint64_t stride_ = 1;
  double sum_ = 0.0;
  std::vector<double> kept_;
};

/// The measured phase is cut into this many windows of equal length (equal
/// step or call counts in a fixed-count run). Every end-to-end time is
/// computed per window and reported as the median over the windows, so a
/// burst of host noise that covers less than half of a run (a stolen vCPU,
/// a stray process) does not move the result.
inline constexpr std::size_t kWindows = 5;

/// Sample capacities per window: 512 KiB of call times, 64 KiB of step
/// times, 32 KiB of reference pass times.
inline constexpr std::size_t kCallSamples = std::size_t{1} << 16;
inline constexpr std::size_t kStepSamples = std::size_t{1} << 13;
inline constexpr std::size_t kRefSamples = std::size_t{1} << 12;

/// Host-speed reference: a fixed pass of 65536 random increments into an
/// 8 MB array. The ~50k cache lines a pass touches (~3 MB) overflow a
/// core's private L2, so like the workloads' scatters it runs at the speed
/// of the shared L3, which is what the host's other tenants slow down. It
/// is benchmark code, so no change to the library changes it, and every
/// timed pass follows an untimed warm-up pass over the same lines, so
/// what the library left in the caches does not change it either. Its
/// time moves with the speed the host gives this vCPU, which drifts by up
/// to ~30% between runs minutes apart (README.md, "Host-speed
/// correction").
class HostReference {
 public:
  HostReference();
  /// Seconds of one timed pass.
  [[nodiscard]] double pass();
  /// Median seconds of `n` passes run back to back.
  [[nodiscard]] double median_pass(int n);

 private:
  std::vector<double> cells_;
  std::vector<std::uint32_t> idx_;
};

/// A reference pass's time on the host the benchmark was tuned on (4-vCPU
/// KVM guest, Xeon with AVX-512) in a run of typical speed: between the
/// workload's steps, and back to back. Every time of the measured phase is
/// scaled by kRefNominalS over the window's median pass, and setup_s by
/// kSetupRefNominalS over the median of the back-to-back passes taken
/// before the set-ups, so each reads as it would on a host that runs the
/// passes in exactly these times.
inline constexpr double kRefNominalS = 350e-6;
inline constexpr double kSetupRefNominalS = 250e-6;
/// A reference pass runs after the first untraced step of a window and
/// then after the first untraced step that ends this long after the
/// previous pass (~1% of the measured phase).
inline constexpr double kRefPeriodS = 0.05;

/// The untraced samples of one window of the measured phase.
struct Window {
  Samples calls{kCallSamples};
  Samples steps{kStepSamples};
  Samples ref{kRefSamples};  ///< reference pass times (s)
};

/// Running totals of the traced `submit` spans, each split with the
/// SchemeResult the call returned. What is left of a span after adapt
/// (inspect_s), the scheme phases and the checker (check_s) is the
/// runtime's own overhead.
struct SpanTotals {
  std::uint64_t calls = 0;
  double wall_s = 0, adapt_s = 0, init_s = 0, loop_s = 0, merge_s = 0,
         check_s = 0, overhead_s = 0;
  /// Sum of the layers with every span's overhead clamped at zero; equals
  /// wall_s when each span's measured parts fit inside it.
  double clamped_s = 0;
  double private_bytes = 0;
  /// Time spent recording the spans themselves: the cost tracing adds.
  double record_s = 0;

  void add(double wall, const sapp::SchemeResult& r) {
    const double parts = r.inspect_s + r.phases.total() + r.check_s;
    ++calls;
    wall_s += wall;
    adapt_s += r.inspect_s;
    init_s += r.phases.init_s;
    loop_s += r.phases.loop_s;
    merge_s += r.phases.merge_s;
    check_s += r.check_s;
    overhead_s += wall - parts;
    clamped_s += parts + std::max(wall - parts, 0.0);
    private_bytes += static_cast<double>(r.private_bytes);
  }
};

/// Program counters read after the measured phase.
struct Counts {
  std::uint64_t recharacterizations = 0;
  std::uint64_t scheme_switches = 0;
  std::uint64_t time_drift_demotions = 0;
  std::array<std::uint64_t, 8> decisions{};  ///< indexed by SchemeKind
  std::uint64_t evictions = 0;
  std::uint64_t warm_offers = 0;
  std::uint64_t sites_live_max = 0;
  std::uint64_t checks_run = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_failures = 0;
};

/// Everything one run measures. The traced run alternates traced and
/// untraced steps; only the untraced ones fill `windows`.
struct RunRecord {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  /// Median of the back-to-back reference passes just before each set-up
  /// repetition.
  std::vector<double> setup_ref_s;
  std::vector<Window> windows = std::vector<Window>(kWindows);
  SpanTotals spans;          ///< traced calls, decomposed
  double wall_s = 0.0;       ///< elapsed wall of the measured phase
  double cpu_s = 0.0;        ///< process CPU time of the measured phase
  double steal_pct = 0.0;    ///< host steal time during the phase
  double peak_rss_mb = 0.0;  ///< read at the end of the measured phase
  std::uint64_t attempted = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t exceptions = 0;
  Counts counts;

  /// Window of a sample taken at `elapsed_s` into a `seconds`-long phase.
  [[nodiscard]] Window& window_at(double elapsed_s, double seconds) {
    const auto w = static_cast<std::size_t>(
        elapsed_s / seconds * static_cast<double>(kWindows));
    return windows[std::min(w, kWindows - 1)];
  }
};

/// Pool width of every workload's Runtime. Wider pools turn host steal
/// time into fork-join stalls and made the step median unrepeatable
/// (README.md, "Noise sources removed").
inline constexpr unsigned kPoolWidth = 1;

/// One workload: owns its generated inputs and the Runtime under test.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Calls that make up one step.
  [[nodiscard]] virtual std::size_t calls_per_step() const = 0;

  /// Destroy the previous set-up, if any (untimed: a Runtime's destructor
  /// drains its decision store to disk).
  virtual void teardown() = 0;
  /// One set-up repetition: generate inputs from the seed, construct a
  /// fresh Runtime and run the warm-up. Called after teardown().
  virtual void setup(const Args& args) = 0;
  /// Untimed preparation of the measured phase (references, buffers,
  /// the call sequence's random stream).
  virtual void begin_measure(std::uint64_t seed) = 0;
  /// Choose the input of the `call`-th call and zero its output (untimed).
  virtual void prepare(std::uint64_t call) = 0;
  /// Make the prepared call: one `Runtime::submit`, the timed span.
  virtual sapp::SchemeResult submit() = 0;
  /// Check the prepared call's output against the sequential reference
  /// (untimed); false on a mismatch.
  virtual bool verify() = 0;
  /// Read the program counters after the measured phase.
  virtual void collect(RunRecord& rec) = 0;

  /// The distinct inputs of this workload (for the layer replay).
  [[nodiscard]] virtual const std::vector<sapp::ReductionInput>& inputs()
      const = 0;
  [[nodiscard]] virtual sapp::Runtime& runtime() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// Run the closed loop of `w` for the run's seconds (or steps): one
/// application thread, each call made after the previous one returned,
/// with a pass of `ref` between steps every kRefPeriodS. Fills the
/// windows, traced span totals and failure counts of `rec`.
void measure(Workload& w, const Args& args, HostReference& ref,
             RunRecord& rec);

// ---- helpers -------------------------------------------------------------

/// Linear-interpolated quantile of `xs` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
/// Serving-harness tolerance: |out - ref| <= 1e-9 + 1e-6 |ref| everywhere.
[[nodiscard]] bool matches(std::span<const double> out,
                           std::span<const double> ref);
/// CPUs this process may run on.
[[nodiscard]] unsigned online_cpus();
/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Host-wide steal-time sampler over /proc/stat.
class StealMeter {
 public:
  StealMeter();
  /// Steal time since construction, as a percentage of all CPU time.
  [[nodiscard]] double percent() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

// ---- traced run ------------------------------------------------------------

/// A per-layer metric for the traced run's output.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Reconciliation tolerance, in percent of the summed submit wall time.
inline constexpr double kReconcileTolPct = 1.0;

/// Signed gap between the clamped layer sum and the summed submit wall,
/// in percent of the latter.
[[nodiscard]] double reconcile_err_pct(const SpanTotals& s);

/// Decompose the traced spans, run the layer probes and the replay, and
/// append the per-layer metrics to `out`.
void trace_layers(Workload& w, const Args& args, const RunRecord& rec,
                  std::vector<LayerMetric>& out);

}  // namespace perfbench
