#!/usr/bin/env python3
"""Same-host A/B verdict over perfbench result files.

Reads the `perfbench/run.py --out` files of a base revision and of a
change, run interleaved on one host (`./ci.sh bench <base-rev>` makes
them), and prints one line per compared metric: both medians, their
ratio and the base runs' interquartile range. Run from anywhere:

    python3 tools/bench_ab.py --base base-*.json --change change-*.json

Exit status: 0 pass, 1 fail, 2 refused (results from different hosts, or
a metric missing on one side). The change fails when

  * any run on either side reports `correct: false`;
  * its failed share (failed / attempted, over all its runs) is higher
    than the base's;
  * the median of an `end_to_end` metric of BENCHMARK.json, on any of its
    workloads, is worse than the base median by more than the metric's
    `bound` (untraced runs);
  * the median of a guarded per-layer metric rises more than
    GUARD_RATIO times the base median (traced runs).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The host block keys that must match for two runs to be comparable (the
# git revision and source digest differ between the sides by design).
HOST_KEYS = ("cpu_model", "nproc", "kernel", "compiler", "build_type")

# Per-layer medians that may rise at most GUARD_RATIO times: DFL-SSO select
# and the side-observation walk (the single-play hot paths), eps-greedy
# decide at K = 10^4 (the serve engine), the replay candidate score, and
# the two instruments every serve frame pays.
GUARDED_LAYERS = (
    "core.select_ns.dfl-sso",
    "core.observe_side_ns",
    "serve.engine.decide_ns.eps-greedy",
    "replay.score_ns_per_record",
    "obs.counter_inc_ns",
    "obs.scoped_timer_ns",
)
GUARD_RATIO = 1.5


class Refused(Exception):
    """The two sides cannot be compared."""


def load(paths):
    runs = []
    for path in paths:
        run = json.loads(Path(path).read_text())
        run["path"] = str(path)
        runs.append(run)
    return runs


def metric_values(runs, trace):
    """{metric name: [value per run]} over the runs of one trace mode; an
    untraced `--workload all` run names its metrics `<workload>.<metric>`."""
    values = {}
    for run in runs:
        if run["trace"] == trace:
            for name, entry in run["result"]["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
    return values


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def ratio(change, base):
    if base == 0:
        return 1.0 if change == 0 else float("inf")
    return change / base


def row(name, base, change, verdict):
    b, c = statistics.median(base), statistics.median(change)
    spread = iqr(base)
    rel = spread / b if b else 0.0
    return (f"  {name:<44} base {b:>12.6g}  change {c:>12.6g}  "
            f"ratio {ratio(c, b):6.3f}  base IQR {spread:.4g} "
            f"({rel:.1%})  {verdict}")


def compare(base_runs, change_runs, benchmark):
    """Returns (passed, report lines); raises Refused."""
    runs = base_runs + change_runs
    host = runs[0]["host"]
    for run in runs[1:]:
        differs = [k for k in HOST_KEYS if run["host"].get(k) != host.get(k)]
        if differs:
            raise Refused(f"{run['path']} ran on another host than "
                          f"{runs[0]['path']} ({', '.join(differs)} differ)")
    lines = [f"bench A/B on {host.get('cpu_model')} (nproc {host.get('nproc')}):"
             f" {len(base_runs)} base vs {len(change_runs)} change result "
             f"files, base {base_runs[0]['host'].get('git_rev', '?')[:12]}"]
    failures = []

    for run in runs:
        if not run["result"]["correct"]:
            failures.append(f"{run['path']}: correct = false")

    def share(side):
        failed = sum(r["result"]["failed"] for r in side)
        attempted = sum(r["result"]["attempted"] for r in side)
        return failed, attempted, failed / attempted if attempted else 0.0

    base_share, change_share = share(base_runs), share(change_runs)
    lines.append(f"failed share: base {base_share[0]}/{base_share[1]}, "
                 f"change {change_share[0]}/{change_share[1]}")
    if change_share[2] > base_share[2]:
        failures.append(f"failed share rose {base_share[2]:.3g} -> "
                        f"{change_share[2]:.3g}")

    values = {(side, trace): metric_values(side_runs, trace)
              for side, side_runs in (("base", base_runs),
                                      ("change", change_runs))
              for trace in (0, 1)}

    def sides(trace, name):
        base = values["base", trace].get(name)
        change = values["change", trace].get(name)
        if not base or not change:
            raise Refused(f"metric {name} missing on the "
                          f"{'base' if not base else 'change'} side")
        return base, change

    lines.append("end-to-end (fail when worse than base by more than the "
                 "bound):")
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = f"{workload}.{metric['name']}"
            base, change = sides(0, name)
            b, c = statistics.median(base), statistics.median(change)
            worse = (c - b) if metric["better"] == "lower" else (b - c)
            worse = worse / b if b else (float("inf") if worse > 0 else 0.0)
            bad = worse > metric["bound"]
            lines.append(row(name, base, change,
                             f"FAIL (bound {metric['bound']})" if bad else "ok"))
            if bad:
                failures.append(f"{name} worse by {worse:.1%} "
                                f"(bound {metric['bound']:.0%})")

    lines.append(f"per-layer guards (fail above {GUARD_RATIO}x):")
    for name in GUARDED_LAYERS:
        base, change = sides(1, name)
        r = ratio(statistics.median(change), statistics.median(base))
        bad = r > GUARD_RATIO
        lines.append(row(name, base, change, "FAIL" if bad else "ok"))
        if bad:
            failures.append(f"{name} rose {r:.2f}x (guard {GUARD_RATIO}x)")

    for failure in failures:
        lines.append(f"FAIL: {failure}")
    lines.append("bench A/B: " + ("FAIL" if failures else "PASS"))
    return not failures, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="perfbench --out files of the base revision")
    parser.add_argument("--change", nargs="+", required=True,
                        help="perfbench --out files of the change")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        passed, lines = compare(load(args.base), load(args.change), benchmark)
    except Refused as error:
        print(f"bench A/B: refused: {error}")
        return 2
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
