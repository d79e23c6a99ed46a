"""Compare two result files: ``python -m bench.compare A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of runs of one
commit), ``B`` the candidate.  Each file is what ``bench.run --json`` wrote and
may hold several runs of a workload.  Per workload and end-to-end metric the
table gives both medians, the ratio B/A with its base, and a verdict by the
bound in ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the runs of one side spread wider than the bound, and the two
                sides overlap, so the medians decide nothing.

``failed_share`` may not increase at all, and runs at one seed must decide
identically (action digest, decision count, parameter fingerprint).  The exit
code is 1 if any row is ``worse`` or an identity differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT


def _load(path: str) -> dict:
    """workload -> its untraced runs."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped: dict = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _spread(values: list) -> float:
    """Quartile distance over the median; the range when there are too few runs."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def verdict(base: list, candidate: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(candidate) - base_median) / abs(base_median)
    if max(_spread(base), _spread(candidate)) > bound:
        if all(sign * c < sign * b for c in candidate for b in base):
            return "ok"
        if all(sign * c > sign * b for c in candidate for b in base) and worse_by > bound:
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(base: dict, candidate: dict, end_to_end: list) -> tuple:
    """The table rows and whether anything is worse."""
    rows = []
    bad = False
    for workload in base:
        if workload not in candidate:
            continue
        a_runs, b_runs = base[workload], candidate[workload]
        for metric in end_to_end:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in a_runs]
            b = [run["end_to_end"][name] for run in b_runs]
            a_median, b_median = statistics.median(a), statistics.median(b)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad |= outcome == "worse"
            rows.append((workload, name, metric["unit"], a_median, len(a), b_median, len(b),
                         b_median / a_median, metric["bound"], outcome))
        a_failed = statistics.median(run["failed_share"] for run in a_runs)
        b_failed = statistics.median(run["failed_share"] for run in b_runs)
        outcome = "worse" if b_failed > a_failed else "ok"
        bad |= outcome == "worse"
        rows.append((workload, "failed_share", "ratio", a_failed, len(a_runs), b_failed,
                     len(b_runs), None, 0.0, outcome))
        a_identity = {(r["seed"], r["seconds"]): r.get("identity") for r in a_runs}
        for run in b_runs:
            key = (run["seed"], run["seconds"])
            if key in a_identity and a_identity[key] != run.get("identity"):
                bad = True
                rows.append((workload, f"identity@seed={run['seed']}", "", None, 1, None, 1,
                             None, 0.0, "DIFFERS"))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows, bad = compare(_load(argv[0]), _load(argv[1]), end_to_end)
    print(f"{'workload':<18} {'metric':<22} {'A median':>12} {'n':>3} {'B median':>12} {'n':>3} "
          f"{'B/A':>22} {'bound':>6}  verdict")
    for workload, name, unit, a, a_n, b, b_n, ratio, bound, outcome in rows:
        if a is None:
            print(f"{workload:<18} {name:<22} {'':>12} {a_n:>3} {'':>12} {b_n:>3} {'':>22} "
                  f"{'':>6}  {outcome}")
            continue
        shown = f"{ratio:.3f}x of {a:.4g} {unit}" if ratio is not None else "no increase allowed"
        print(f"{workload:<18} {name:<22} {a:>12.4f} {a_n:>3} {b:>12.4f} {b_n:>3} {shown:>22} "
              f"{bound:>6.0%}  {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
