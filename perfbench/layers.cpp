// The traced run: per-layer split of the submit path, measured from
// outside the library.
//
// 1. Span decomposition. Every traced `submit` call is a span; the
//    SchemeResult it returns splits the span into adapt (inspect_s), the
//    scheme's Init/Loop/Merge phases and the checker (check_s). What is
//    left is the runtime's own overhead: site lookup, site and pool
//    arbitration locks, drift monitor and persist mark.
// 2. Replay. Each distinct input goes directly through characterize,
//    decide_model, Scheme::plan, Scheme::execute and execute_checked; each
//    call is timed as that layer's self time. Probes time an empty pool
//    region, the kernel table's fill and merge, calibration and a store
//    drain at the churn site count.
// 3. Tracing overhead: the time spent recording each span, against the
//    mean untraced call. The reconciliation of the layer times with the
//    summed submit wall time (kReconcileTolPct) is checked in main.cpp and
//    decides the run's "correct".
#include <unistd.h>

#include <algorithm>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/characterize.hpp"
#include "core/decision.hpp"
#include "reductions/kernels.hpp"
#include "reductions/registry.hpp"

namespace perfbench {

namespace {

using sapp::Timer;

/// Replay at most this many distinct inputs (spread evenly over them).
constexpr std::size_t kMaxReplay = 250;
/// Entries in the store-drain probe: the serve_churn site population.
constexpr std::size_t kDrainEntries = 2000;

/// Evenly spaced subset of [0, n), at most `cap` indices.
std::vector<std::size_t> spread(std::size_t n, std::size_t cap) {
  std::vector<std::size_t> idx;
  const std::size_t k = std::min(n, cap);
  for (std::size_t i = 0; i < k; ++i) idx.push_back(i * n / k);
  return idx;
}

/// Mean microseconds of an empty fork-join region on a fresh pool.
double pool_region_us(unsigned width) {
  sapp::ThreadPool pool(width);
  for (int i = 0; i < 200; ++i) pool.run([](unsigned) {});
  std::vector<double> batches;
  constexpr int kRegions = 2000;
  for (int b = 0; b < 5; ++b) {
    const Timer t;
    for (int i = 0; i < kRegions; ++i) pool.run([](unsigned) {});
    batches.push_back(t.micros() / kRegions);
  }
  return median(batches);
}

/// Fill and merge bandwidth of the active kernel backend over `dims`
/// (bytes moved: fill writes 8 B per element; merge reads the accumulator
/// and the source and writes the accumulator, 24 B per element).
std::pair<double, double> kernel_gbps(const std::vector<std::size_t>& dims) {
  const auto& k = sapp::kernels::active();
  double fill_bytes = 0, fill_s = 0, merge_bytes = 0, merge_s = 0;
  for (std::size_t dim : dims) {
    std::vector<double> acc(dim, 0.0), src(dim, 1.0);
    // About 8M elements per dimension, at least 3 passes.
    const std::size_t reps = std::max<std::size_t>(3, (8u << 20) / dim);
    k.fill(acc.data(), dim, 0.0);
    Timer t;
    for (std::size_t r = 0; r < reps; ++r) k.fill(acc.data(), dim, 0.0);
    fill_s += t.seconds();
    fill_bytes += 8.0 * static_cast<double>(dim * reps);
    t.restart();
    for (std::size_t r = 0; r < reps; ++r)
      k.merge_sum(acc.data(), src.data(), dim);
    merge_s += t.seconds();
    merge_bytes += 24.0 * static_cast<double>(dim * reps);
  }
  return {fill_bytes / fill_s / 1e9, merge_bytes / merge_s / 1e9};
}

/// Median milliseconds to drain kDrainEntries dirty decisions to shard
/// files, built from the decisions this run learned.
double store_drain_ms(sapp::Runtime& rt, const std::filesystem::path& dir) {
  std::vector<sapp::CachedDecision> base = rt.snapshot_decisions().entries();
  if (base.empty()) base = rt.persisted_decisions().entries();
  if (base.empty()) return 0.0;
  std::filesystem::remove_all(dir);
  std::vector<double> ms;
  {
    sapp::ShardedDecisionStore store({.dir = dir.string()});
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < kDrainEntries; ++i) {
        sapp::CachedDecision d = base[i % base.size()];
        d.site = "probe/" + std::to_string(i);
        store.put(std::move(d));
      }
      const Timer t;
      (void)store.drain();
      ms.push_back(t.millis());
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return median(ms);
}

}  // namespace

double reconcile_err_pct(const SpanTotals& s) {
  return s.wall_s > 0 ? 100.0 * (s.clamped_s - s.wall_s) / s.wall_s : 0.0;
}

void trace_layers(Workload& w, const Args& args, const RunRecord& rec,
                  std::vector<LayerMetric>& out) {
  auto emit = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // ---- 1. span decomposition ----------------------------------------------
  const SpanTotals& sp = rec.spans;
  const double n = std::max<double>(1.0, static_cast<double>(sp.calls));
  auto layer = [&](const std::string& name, double total_s) {
    emit(name + "_us", total_s / n * 1e6, "us");
    emit(name + "_total_ms", total_s * 1e3, "ms");
    emit(name + "_share", sp.wall_s > 0 ? 100.0 * total_s / sp.wall_s : 0.0,
         "%");
  };
  layer("runtime.overhead", sp.overhead_s);
  layer("core.adapt", sp.adapt_s);
  layer("reductions.init", sp.init_s);
  layer("reductions.loop", sp.loop_s);
  layer("reductions.merge", sp.merge_s);
  layer("check.verify", sp.check_s);
  emit("reductions.private_mb", sp.private_bytes / n / (1024.0 * 1024.0), "MB");

  // ---- counters ---------------------------------------------------------
  const Counts& c = rec.counts;
  auto count = [&](const std::string& name, std::uint64_t v) {
    emit(name, static_cast<double>(v), "count");
  };
  count("check.checks_run", c.checks_run);
  count("store.flushes", c.flushes);
  count("runtime.evictions", c.evictions);
  count("runtime.warm_offers", c.warm_offers);
  count("runtime.sites_live_max", c.sites_live_max);
  count("core.recharacterizations", c.recharacterizations);
  for (std::size_t k = 0; k < c.decisions.size(); ++k)
    count(std::string("core.decisions.") +
              std::string(sapp::to_string(static_cast<sapp::SchemeKind>(k))),
          c.decisions[k]);
  const double steps = static_cast<double>(rec.attempted) /
                       static_cast<double>(w.calls_per_step());
  emit("process.cpu_ms_per_step", steps > 0 ? rec.cpu_s * 1e3 / steps : 0.0,
       "ms");

  // ---- 2. replay: self time of each layer entry point --------------------
  sapp::Runtime& rt = w.runtime();
  sapp::ThreadPool& pool = rt.pool();
  const unsigned width = pool.size();
  const auto& inputs = w.inputs();
  double t_char = 0, t_decide = 0, t_plan = 0, t_exec = 0, t_checked = 0;
  const auto replay = spread(inputs.size(), kMaxReplay);
  std::vector<double> buf;
  for (std::size_t i : replay) {
    const sapp::ReductionInput& in = inputs[i];
    const sapp::AccessPattern& p = in.pattern;
    Timer t;
    const sapp::PatternStats stats = sapp::characterize(p, width);
    t_char += t.seconds();
    t.restart();
    const sapp::Decision d = sapp::decide_model(stats, p.body_flops, rt.coeffs());
    t_decide += t.seconds();
    sapp::SchemeKind kind = d.recommended;
    if (kind == sapp::SchemeKind::kLocalWrite && !p.iteration_replication_legal)
      kind = sapp::SchemeKind::kSelective;  // the reducer's own guard
    const auto scheme = sapp::make_scheme(kind);
    t.restart();
    const auto plan = scheme->plan(p, width);
    t_plan += t.seconds();
    buf.assign(p.dim, 0.0);
    t.restart();
    (void)scheme->execute(plan.get(), in, pool, buf);
    t_exec += t.seconds();
    std::fill(buf.begin(), buf.end(), 0.0);
    sapp::CheckReport report;
    t.restart();
    (void)scheme->execute_checked(plan.get(), in, pool, buf,
                                  {.enabled = true, .sample_rate = 0.05},
                                  &report);
    t_checked += t.seconds();
  }
  const double nr = std::max<double>(1.0, static_cast<double>(replay.size()));
  emit("core.characterize_self_us", t_char / nr * 1e6, "us");
  emit("core.decide_self_us", t_decide / nr * 1e6, "us");
  emit("reductions.plan_self_us", t_plan / nr * 1e6, "us");
  emit("reductions.execute_self_us", t_exec / nr * 1e6, "us");
  emit("check.execute_checked_self_us", t_checked / nr * 1e6, "us");

  // ---- probes -----------------------------------------------------------
  emit("pool.region_us_w1", pool_region_us(1), "us");
  emit("pool.region_us_wmax", pool_region_us(online_cpus()), "us");

  std::vector<std::size_t> dims;
  for (const auto& in : inputs) dims.push_back(in.pattern.dim);
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  std::vector<std::size_t> dim_sample;
  for (std::size_t i : spread(dims.size(), 32)) dim_sample.push_back(dims[i]);
  const auto [fill_gbps, merge_gbps] = kernel_gbps(dim_sample);
  emit("kernels.fill_gbps", fill_gbps, "GB/s");
  emit("kernels.merge_gbps", merge_gbps, "GB/s");

  std::vector<double> cal_ms;
  for (int k = 0; k < 3; ++k) {
    const Timer t;
    (void)sapp::MachineCoeffs::calibrate(pool);
    cal_ms.push_back(t.millis());
  }
  emit("core.calibrate_ms", median(cal_ms), "ms");
  emit("store.drain_ms",
       store_drain_ms(rt, args.tmp / ("drain-" + std::to_string(::getpid()))),
       "ms");

  // ---- 3. tracing overhead ------------------------------------------------
  // What a traced call costs beyond an untraced one: recording its span,
  // as a share of the mean untraced call.
  double untraced_s = 0;
  std::uint64_t untraced_calls = 0;
  for (const Window& win : rec.windows) {
    untraced_s += win.calls.sum();
    untraced_calls += win.calls.count();
  }
  const double untraced_mean =
      untraced_calls > 0 ? untraced_s / static_cast<double>(untraced_calls)
                         : 0.0;
  count("trace.calls", sp.calls);
  emit("trace.overhead_pct",
       untraced_mean > 0 ? 100.0 * sp.record_s / n / untraced_mean : 0.0, "%");
}

}  // namespace perfbench
