// The closed-loop workloads. Each hands the Runtime only inputs
// generated by `sapp::workloads` from the run's seed.
//
// Settings that made earlier measurements noisy are pinned here, once, for
// every workload (README.md lists the evidence):
//   * coefficients: every Runtime prices schemes with
//     MachineCoeffs::defaults(), so no per-run calibration can flip a
//     decision;
//   * timing feedback: the mispredict switch and the time-drift detector
//     are parked (patience 1<<30, as `sapp_repro serving` does); the
//     pattern-fingerprint drift detector, which is deterministic, stays on;
//   * one application thread and a one-worker pool (kPoolWidth);
//   * working sets: the Fig. 3 arrays are shrunk to fit a core's private
//     L2 cache (kFig3Shrink);
//   * persistence: serve_churn's store flushes once a second
//     (kFlushIntervalS), not every 50 ms.
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using sapp::ReductionInput;
using sapp::Runtime;
using sapp::RuntimeOptions;

/// Every Fig. 3 row's dimension and iteration count are divided by this,
/// which keeps the paper's contributions per element (its SP and CON
/// columns) while the largest array (Irreg's 2M elements) shrinks to
/// 125k doubles, 1 MB. Random scatters into arrays larger than a core's
/// private L2 follow the shared L3 and memory traffic of the host's other
/// tenants: one pass of a 16 MB scatter probe took 75-127 ms from one
/// second to the next.
constexpr std::size_t kFig3Shrink = 16;

const sapp::MachineCoeffs& pinned_coeffs() {
  static const sapp::MachineCoeffs c = sapp::MachineCoeffs::defaults();
  return c;
}

RuntimeOptions base_options() {
  RuntimeOptions o;
  o.threads = kPoolWidth;
  o.coeffs = &pinned_coeffs();
  o.adaptive.mispredict_patience = 1 << 30;
  o.adaptive.monitor.time_drift_patience = 1 << 30;
  return o;
}

std::size_t kind_index(sapp::SchemeKind k) { return static_cast<std::size_t>(k); }

/// The 21 rows of `workloads::fig3_rows` (same generators, parameters and
/// seeds, in the same order, under the same 6 loop ids), shrunk by
/// kFig3Shrink in dimension, distinct-target count and iterations.
std::vector<ReductionInput> fig3_inputs(std::uint64_t seed) {
  namespace wl = sapp::workloads;
  auto s = [](std::size_t n) { return std::max<std::size_t>(n / kFig3Shrink, 1); };
  std::vector<wl::Workload> rows;
  rows.push_back(wl::make_irreg(s(100000), s(25000), s(1250000), seed + 1));
  rows.push_back(wl::make_irreg(s(500000), s(25000), s(250000), seed + 2));
  rows.push_back(wl::make_irreg(s(1000000), s(12500), s(62500), seed + 3));
  rows.push_back(wl::make_irreg(s(2000000), s(5000), s(20000), seed + 4));
  rows.push_back(wl::make_nbf(s(25600), s(6400), s(1280000), seed + 5));
  rows.push_back(wl::make_nbf(s(128000), s(8000), s(400000), seed + 6));
  rows.push_back(wl::make_nbf(s(256000), s(1600), s(32000), seed + 7));
  rows.push_back(wl::make_nbf(s(1280000), s(3200), s(25600), seed + 8));
  rows.push_back(wl::make_moldyn(s(16384), s(3922), s(375000), seed + 9));
  rows.push_back(wl::make_moldyn(s(42592), s(3301), s(102000), seed + 10));
  rows.push_back(wl::make_moldyn(s(70304), s(1188), s(24000), seed + 11));
  rows.push_back(wl::make_moldyn(s(87808), s(329), s(8000), seed + 12));
  rows.push_back(wl::make_spark98(s(30169), s(18000), s(210000), seed + 13));
  rows.push_back(wl::make_spark98(s(7294), s(4400), s(51000), seed + 14));
  rows.push_back(wl::make_charmm(s(332288), s(119000), s(1000000), seed + 15));
  rows.push_back(wl::make_charmm(s(332288), s(59600), s(500000), seed + 16));
  rows.push_back(wl::make_charmm(s(664576), s(7443), s(33000), seed + 17));
  rows.push_back(wl::make_spice(s(186943), s(500), seed + 18));
  rows.push_back(wl::make_spice(s(99190), s(300), seed + 19));
  rows.push_back(wl::make_spice(s(89925), s(280), seed + 20));
  rows.push_back(wl::make_spice(s(33725), s(110), seed + 21));
  std::vector<ReductionInput> inputs;
  for (auto& r : rows) inputs.push_back(std::move(r.input));
  return inputs;
}

/// fig3_rotate: the 21 Fig. 3 rows invoked in row order under their native
/// loop ids; a step is one invocation of every row. The rows are tagged
/// with only 6 loop ids, so the rows of one code rotate through one site
/// and every call is a phase change that characterizes, decides and plans.
class Fig3Workload final : public Workload {
 public:
  std::size_t calls_per_step() const override { return inputs_.size(); }

  void teardown() override {
    rt_.reset();
    reducers_.clear();
    inputs_ = {};
    outs_ = {};
  }

  void setup(const Args& args) override {
    inputs_ = fig3_inputs(args.seed);
    for (const auto& in : inputs_) outs_.emplace_back(in.pattern.dim, 0.0);
    rt_ = std::make_unique<Runtime>(base_options());
    site_of_.clear();
    for (const auto& in : inputs_) {
      sapp::AdaptiveReducer* r = &rt_->site(in.pattern.loop_id);
      const auto it = std::find(reducers_.begin(), reducers_.end(), r);
      site_of_.push_back(static_cast<std::size_t>(it - reducers_.begin()));
      if (it == reducers_.end()) reducers_.push_back(r);
    }
    seen_rechar_.assign(reducers_.size(), 0);
    decisions_.fill(0);
    // Untimed warm-up step.
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      (void)rt_->submit(inputs_[i], outs_[i]);
      observe_decision(i);
    }
  }

  void begin_measure(std::uint64_t) override {
    std::size_t max_dim = 0;
    for (const auto& in : inputs_) max_dim = std::max(max_dim, in.pattern.dim);
    ref_.assign(max_dim, 0.0);
  }

  void prepare(std::uint64_t call) override {
    cur_ = static_cast<std::size_t>(call % inputs_.size());
    std::fill(outs_[cur_].begin(), outs_[cur_].end(), 0.0);
  }

  sapp::SchemeResult submit() override {
    return rt_->submit(inputs_[cur_], outs_[cur_]);
  }

  bool verify() override {
    observe_decision(cur_);
    // One reference buffer, recomputed for every call, so the harness
    // holds no per-row copy of the outputs.
    const ReductionInput& in = inputs_[cur_];
    const std::span<double> ref(ref_.data(), in.pattern.dim);
    std::fill(ref.begin(), ref.end(), 0.0);
    sapp::run_sequential(in, ref);
    return matches(outs_[cur_], ref);
  }

  void collect(RunRecord& rec) override {
    Counts& c = rec.counts;
    for (const auto* r : reducers_) {
      c.recharacterizations += r->recharacterizations();
      c.scheme_switches += r->scheme_switches();
      c.time_drift_demotions += r->time_drift_demotions();
    }
    c.decisions = decisions_;
    c.sites_live_max = std::max<std::uint64_t>(c.sites_live_max, rt_->site_count());
    c.evictions = rt_->evictions();
    c.warm_offers = rt_->warm_offers();
    c.checks_run = rt_->checks_run();
    c.check_failures = rt_->check_failures();
    c.flushes = rt_->decision_store().flushes();
    c.flush_failures = rt_->decision_store().flush_failures();
  }

  const std::vector<ReductionInput>& inputs() const override {
    return inputs_;
  }
  Runtime& runtime() override { return *rt_; }

 private:
  /// A call that re-characterized made a decision: count it under the
  /// scheme the site now runs.
  void observe_decision(std::size_t i) {
    const std::size_t s = site_of_[i];
    const unsigned n = reducers_[s]->recharacterizations();
    if (n != seen_rechar_[s]) {
      decisions_[kind_index(reducers_[s]->current())] += n - seen_rechar_[s];
      seen_rechar_[s] = n;
    }
  }

  std::vector<ReductionInput> inputs_;
  std::vector<std::vector<double>> outs_;
  std::vector<double> ref_;
  std::size_t cur_ = 0;
  std::unique_ptr<Runtime> rt_;
  std::vector<sapp::AdaptiveReducer*> reducers_;  ///< one per distinct site
  std::vector<std::size_t> site_of_;  ///< input index -> reducers_ index
  std::vector<unsigned> seen_rechar_;
  std::array<std::uint64_t, 8> decisions_{};
};

/// serve_churn: the `sapp_repro serving` population and sliding hot window,
/// with the in-flight checker on and a sharded store persisted to a fresh
/// directory per set-up; a step is 32 consecutive calls.
class ChurnWorkload final : public Workload {
 public:
  static constexpr std::size_t kSites = 2000;
  static constexpr std::size_t kCap = 400;          ///< max_sites
  static constexpr std::size_t kWindow = kCap / 2;  ///< hot working set
  static constexpr std::uint64_t kAdvanceEvery = 64;
  /// Window advance per kAdvanceEvery calls (the serving harness's value
  /// for 2000 sites): a full pass over the population every ~11.6k calls,
  /// so sites are evicted while cold and warm-start when they return.
  static constexpr std::size_t kAdvance = 11;
  /// Calls that make up a step.
  static constexpr std::size_t kBatch = 32;
  /// Sites whose every call is verified against a sequential reference.
  static constexpr std::size_t kVerifyEvery = 8;
  /// Store flush period. At the 50 ms default, each flush snapshots the
  /// dirty sites under their locks and serializes whole shards under the
  /// shard locks that submit's mark_dirty takes, so the calls it overlaps
  /// stall: in interleaved 25 s runs call_p99_us read 318-358 us against
  /// 98-112 us at 1 s, and calls_per_s was ~25% lower. A stall lasts as
  /// long as the maintenance thread is off its vCPU, so the p99 followed
  /// the host's steal time. Once a second still flushes ~50 times a run.
  static constexpr double kFlushIntervalS = 1.0;

  ~ChurnWorkload() override { teardown(); }

  std::size_t calls_per_step() const override { return kBatch; }

  void teardown() override {
    rt_.reset();  // drains into its directory before it is removed
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
    inputs_ = {};
  }

  void setup(const Args& args) override {
    for (std::size_t i = 0; i < kSites; ++i)
      inputs_.push_back(
          sapp::workloads::make_serving_site(i, 1.0, args.seed).input);
    std::size_t max_dim = 0;
    for (const auto& in : inputs_) max_dim = std::max(max_dim, in.pattern.dim);
    buf_.assign(max_dim, 0.0);
    dir_ = args.tmp / ("churn-" + std::to_string(::getpid()) + "-" +
                       std::to_string(setups_++));
    std::filesystem::remove_all(dir_);
    RuntimeOptions o = base_options();
    o.max_sites = kCap;
    o.decision_cache_dir = dir_.string();
    o.flush_interval_s = kFlushIntervalS;
    o.adaptive.check.enabled = true;
    o.adaptive.check.sample_rate = 0.05;
    rt_ = std::make_unique<Runtime>(o);
    // Warm-up: one call to every site of the first hot window.
    for (std::size_t i = 0; i < kWindow; ++i) {
      const std::span<double> out(buf_.data(), inputs_[i].pattern.dim);
      std::fill(out.begin(), out.end(), 0.0);
      (void)rt_->submit(inputs_[i], out);
    }
  }

  void begin_measure(std::uint64_t seed) override {
    refs_.clear();
    for (std::size_t i = 0; i < kSites; i += kVerifyEvery) {
      refs_.emplace_back(inputs_[i].pattern.dim, 0.0);
      sapp::run_sequential(inputs_[i], refs_.back());
    }
    rng_ = sapp::Rng(seed * 0x9E3779B97F4A7C15ull + 0xC0FFEEull);
  }

  void prepare(std::uint64_t call) override {
    // Sliding hot window, as in `sapp_repro serving`.
    const auto base =
        static_cast<std::size_t>((call / kAdvanceEvery) * kAdvance % kSites);
    cur_ = (base + rng_.below(kWindow)) % kSites;
    out_ = std::span<double>(buf_.data(), inputs_[cur_].pattern.dim);
    std::fill(out_.begin(), out_.end(), 0.0);
  }

  sapp::SchemeResult submit() override {
    return rt_->submit(inputs_[cur_], out_);
  }

  bool verify() override {
    return cur_ % kVerifyEvery != 0 ||
           matches(out_, refs_[cur_ / kVerifyEvery]);
  }

  void collect(RunRecord& rec) override {
    Counts& c = rec.counts;
    // Trim to the cap first so no maintenance sweep evicts a site between
    // listing the ids and reading them.
    (void)rt_->sweep();
    // Sites evicted during the run took their counters with them; these
    // three counts cover the sites live at the end.
    for (const auto& id : rt_->site_ids()) {
      const sapp::AdaptiveReducer& r = rt_->site(id);
      c.recharacterizations += r.recharacterizations();
      c.scheme_switches += r.scheme_switches();
      c.time_drift_demotions += r.time_drift_demotions();
    }
    c.sites_live_max =
        std::max<std::uint64_t>(c.sites_live_max, rt_->site_count());
    c.evictions = rt_->evictions();
    c.warm_offers = rt_->warm_offers();
    c.checks_run = rt_->checks_run();
    c.check_failures = rt_->check_failures();
    c.flushes = rt_->decision_store().flushes();
    c.flush_failures = rt_->decision_store().flush_failures();
    // Every site ever settled: evicted sites from the store, live sites
    // from their reducers on top (as Runtime::save_decisions merges them).
    // Runtime::flush_decisions is not called here: run beside the
    // maintenance thread's own drain, both write the same shard's temp
    // file and one of them fails its rename (README.md).
    sapp::DecisionCache settled = rt_->persisted_decisions();
    const sapp::DecisionCache live = rt_->snapshot_decisions();
    for (const auto& d : live.entries()) settled.put(d);
    for (const auto& d : settled.entries())
      ++c.decisions[kind_index(d.scheme)];
  }

  const std::vector<ReductionInput>& inputs() const override {
    return inputs_;
  }
  Runtime& runtime() override { return *rt_; }

 private:
  std::vector<ReductionInput> inputs_;
  std::vector<std::vector<double>> refs_;  ///< every kVerifyEvery-th site
  std::vector<double> buf_;                ///< the caller's output array
  sapp::Rng rng_{0};
  std::size_t cur_ = 0;
  std::span<double> out_;
  std::filesystem::path dir_;  ///< decision store of the current set-up
  unsigned setups_ = 0;
  std::unique_ptr<Runtime> rt_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig3_rotate") return std::make_unique<Fig3Workload>();
  if (name == "serve_churn") return std::make_unique<ChurnWorkload>();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fig3_rotate | serve_churn)");
}

void measure(Workload& w, const Args& args, HostReference& ref,
             RunRecord& rec) {
  w.begin_measure(args.seed);
  const std::size_t per_step = w.calls_per_step();
  std::vector<double> call_s(per_step);
  std::uint64_t call = 0;

  double last_ref_s = 0.0;
  const StealMeter steal;
  const double cpu0 = process_cpu_s();
  const sapp::Timer wall;
  for (std::uint64_t step = 0;; ++step) {
    if (args.steps > 0 ? step >= args.steps : wall.seconds() >= args.seconds)
      break;
    const bool traced = args.trace && step % 2 == 1;
    double step_s = 0.0;
    for (std::size_t k = 0; k < per_step; ++k, ++call) {
      w.prepare(call);
      ++rec.attempted;
      sapp::SchemeResult r;
      bool threw = false;
      const sapp::Timer t;
      try {
        r = w.submit();
      } catch (const std::exception&) {
        threw = true;
      }
      call_s[k] = t.seconds();
      step_s += call_s[k];
      // Everything below is outside the timed span.
      if (traced) {
        const sapp::Timer trace_t;
        rec.spans.add(call_s[k], r);
        rec.spans.record_s += trace_t.seconds();
      }
      if (threw)
        ++rec.exceptions;
      else if (!w.verify())
        ++rec.mismatches;
    }
    if (traced) {
      rec.counts.sites_live_max = std::max<std::uint64_t>(
          rec.counts.sites_live_max, w.runtime().site_count());
      continue;
    }
    Window& win = args.steps > 0
                      ? rec.windows[step * kWindows / args.steps]
                      : rec.window_at(wall.seconds(), args.seconds);
    win.steps.add(step_s);
    for (double x : call_s) win.calls.add(x);
    if (win.ref.count() == 0 || wall.seconds() - last_ref_s >= kRefPeriodS) {
      win.ref.add(ref.pass());
      last_ref_s = wall.seconds();
    }
  }
  rec.wall_s = wall.seconds();
  rec.cpu_s = process_cpu_s() - cpu0;
  rec.steal_pct = steal.percent();
  rec.peak_rss_mb = peak_rss_mb();
}

}  // namespace perfbench
