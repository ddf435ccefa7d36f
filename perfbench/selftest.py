#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and output contract.

Usage (from the repository root):

    python3 perfbench/selftest.py

For each workload and each of two seeds, two short runs of a fixed number
of steps must report identical program counts: decisions per scheme,
re-characterizations, warm offers and evictions. Both workloads run one
application thread, so no count depends on thread interleaving. Every run
must report no failed operation and hold the benchmark's settings (no
scheme switch, no time-drift demotion, no failed flush), fig3_rotate must
re-characterize on every call (plus once per row in the warm-up), and
serve_churn must evict and warm-start sites. Finally one traced run per
workload must print exactly the per-layer metrics BENCHMARK.json lists and
reconcile its layer times, and one untraced run exactly the end-to-end
metrics. Exits non-zero on failure.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# serve_churn: 400 steps of 32 calls pass the hot window over all 2000
# sites once, so evicted sites return and warm-start.
STEPS = {"fig3_rotate": 4, "serve_churn": 400}
SEEDS = (11, 12)
FIG3_ROWS = 21
COUNTS = ("decisions", "recharacterizations", "warm_offers", "evictions")


def run(workload, seed, trace=0, steps=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "60",
           "--trace", str(trace)]
    if steps:
        cmd += ["--steps", str(steps)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for wl, steps in STEPS.items():
        for seed in SEEDS:
            runs = [run(wl, seed, steps=steps) for _ in range(2)]
            for det, res in runs:
                check(res["correct"] and res["failed"] == 0,
                      f"{wl} seed {seed}: {res['attempted']} calls, none failed")
                check(det["scheme_switches"] == 0 and
                      det["time_drift_demotions"] == 0 and
                      det["flush_failures"] == 0,
                      f"{wl} seed {seed}: timing feedback parked, flushes ok")
                if wl == "fig3_rotate":
                    check(det["recharacterizations"] ==
                          res["attempted"] + FIG3_ROWS,
                          f"{wl} seed {seed}: every call re-characterizes")
                else:
                    check(det["evictions"] > 0 and det["warm_offers"] > 0,
                          f"{wl} seed {seed}: sites are evicted and "
                          f"warm-start")
            (a, _), (b, _) = runs
            check(all(a[k] == b[k] for k in COUNTS),
                  f"{wl} seed {seed}: counts repeat exactly "
                  f"({ {k: a[k] for k in COUNTS} })")

    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = [m["name"] for m in spec[group]]
        for wl in STEPS:
            _, res = run(wl, SEEDS[0], trace=trace, steps=STEPS[wl])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl} trace {trace}: result keys")
            check(list(res["metrics"]) == want,
                  f"{wl} trace {trace}: metrics are exactly {group}")
            units = {m["name"]: m["unit"] for m in spec[group]}
            check(all(v["unit"] == units.get(k)
                      for k, v in res["metrics"].items()),
                  f"{wl} trace {trace}: units match BENCHMARK.json")
            if trace:
                check(res["correct"], f"{wl} traced: layers reconcile")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
