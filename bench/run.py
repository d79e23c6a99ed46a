"""Run the benchmark: ``python -m bench.run --seed N`` (or ``python3 bench/run.py``).

Without ``--workload`` every workload runs, each as an untraced run (the
end-to-end metrics) followed by a traced run (the per-layer metrics and the
trace file).  With ``--workload NAME --trace 0|1`` exactly one run is made, the
form the benchmark driver uses.  Either way every metric is printed by name
with its unit, outputs are checked, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when a correctness gate fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a file: make the ``bench`` package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import argparse
import json
import time

from bench import ROOT, SRC

OUT_DIR = ROOT / "bench" / "out"
HISTORY = ROOT / "bench" / "history.jsonl"
QUICK_SECONDS = 2
ABSENT = -1.0  # on the driver's result line only; result files say null


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
                 out_dir: Path = OUT_DIR, fault=None) -> dict:
    """One run of one workload; writes its trace file when traced."""
    from bench import spec
    from bench.fleet import NUM_CLIENTS, run_fleet
    from bench.measure import environment_stamp
    from bench.offline import run_infer, run_train
    from bench.spans import write_spans

    kind, full, small, _ = spec.WORKLOADS[name]
    sizing = small if quick else full
    stamp = environment_stamp(seed, NUM_CLIENTS if kind == "fleet" else 1)
    if kind == "fleet":
        result = run_fleet(name, sizing, seed, seconds, trace, out_dir, fault=fault)
    elif kind == "infer":
        result = run_infer(name, sizing, seed, seconds, trace)
    else:
        result = run_train(name, sizing, seed, seconds, trace)
    result.update(stamp, seconds=seconds, quick=quick)
    recorders = result.pop("spans", None)
    if recorders is not None:
        path = out_dir / f"{name}.trace.jsonl"
        result["trace_file"] = str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)
        result["trace_spans"] = write_spans(path, recorders)
    if trace:
        promised = spec.LAYERS_OF_KIND[kind]
        for layer in promised:
            if result["per_layer"].get(layer) is None:
                result["per_layer"][layer] = None
                result["warnings"].append(f"absent: {layer} could not be measured")
        result["warnings"] = sorted(set(result["warnings"]))
    return result


def print_result(result: dict) -> None:
    from bench import spec

    method = ", ".join(f"{key}={value}" for key, value in result["method"].items())
    mode = "traced" if result["trace"] else "untraced"
    print(f"\n== {result['workload']} ({mode}) seed={result['seed']} commit={result['commit']} "
          f"cpus={result['cpus']} python={result['python']} numpy={result['numpy']} "
          f"load1={result['load_avg_1m']:.2f}{' NOISY' if result['noisy'] else ''}")
    print(f"   method: {method}")
    print(f"   measured window {result['window_s']:.1f} s in {result['blocks']} blocks")
    counts = {"peak_rss_mb": 1, "setup_s": len(result["setup_samples"])}
    if not result["trace"]:
        for name, unit, _, _ in spec.END_TO_END:
            print(f"   {name:<38} {result['end_to_end'][name]:>14.4f} {unit:<6} "
                  f"n={counts.get(name, result['samples'])}")
        print(f"   {'failed_share':<38} {result['failed_share']:>14.6f} {'ratio':<6} "
              f"n={result['attempted']}")
    else:
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        units.update({"bench.trace_overhead_pct": "%", "bench.oracle_model_ratio": "ratio"})
        for name, value in result["per_layer"].items():
            shown = "absent" if value is None else f"{value:.4f}"
            print(f"   {name:<38} {shown:>14} {units.get(name, ''):<6} n={result['samples']}")
        print(f"   trace: {result.get('trace_file')} ({result.get('trace_spans', 0)} spans)")
    for key, value in result.get("identity", {}).items():
        print(f"   {key}: {value}")
    for warning in result["warnings"]:
        print(f"   warning: {warning}")
    for failure in result["gate_failures"][:10]:
        print(f"   GATE FAILED: {failure}")
    sys.stdout.flush()


def contract_metrics(result: dict) -> dict:
    """The metrics object of the driver's result line for one run."""
    from bench import spec

    if not result["trace"]:
        return {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit, _, _ in spec.END_TO_END
        }
    # The driver wants every per-layer name, as a number, on every workload.
    # No layer metric can be negative (the budget closure enforces it), so a
    # layer this workload does not run, or that is absent, reads ABSENT on this
    # line: it cannot be taken for a measured 0 or for an improvement.
    layers = result["per_layer"]
    return {
        name: {"value": ABSENT if layers.get(name) is None else float(layers[name]), "unit": unit}
        for name, unit, _ in spec.PER_LAYER
    }


def record(result: dict) -> None:
    line = {key: result[key] for key in ("commit", "seed", "cpus", "workload", "seconds")}
    line["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    line["noisy"] = result["noisy"]
    line.update(result["end_to_end"], failed_share=result["failed_share"])
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    from bench import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window per run (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end run, 1: traced run; default: both")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes for the harness tests; numbers mean nothing")
    parser.add_argument("--record", action="store_true",
                        help="append each untraced run to bench/history.jsonl")
    parser.add_argument("--json", type=Path, default=None,
                        help="append every run of this invocation to this file (for compare.py)")
    args = parser.parse_args(argv)
    if args.quick and args.record:
        parser.error("--quick results are never recorded")
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else spec.RUN_SECONDS
    )
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    runs = []
    for name in names:
        by_mode = {}
        for trace in modes:
            result = run_workload(name, args.seed, seconds, trace, quick=args.quick)
            by_mode[trace] = result
            runs.append(result)
        if len(by_mode) == 2:
            _cross_check(by_mode[False], by_mode[True])
        for result in by_mode.values():
            print_result(result)
            if args.record and not result["trace"]:
                record(result)

    if args.json is not None:
        earlier = []
        if args.json.exists():  # several invocations build one set of runs
            with open(args.json) as handle:
                earlier = json.load(handle)["runs"]
        args.json.parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump({"runs": earlier + runs}, handle, indent=1, sort_keys=True)
    correct = all(result["correct"] for result in runs)
    if len(runs) == 1:
        metrics = contract_metrics(runs[0])
    else:
        metrics = {
            f"{result['workload']}/{name}": entry
            for result in runs for name, entry in contract_metrics(result).items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in runs),
        "failed": sum(result["failed"] for result in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _cross_check(untraced: dict, traced: dict) -> None:
    """What must agree between the two runs of a workload, and what tracing cost."""
    if untraced.get("identity") != traced.get("identity"):
        for result in (untraced, traced):
            result["gate_failures"].append(
                f"untraced and traced runs disagree: {untraced.get('identity')} "
                f"against {traced.get('identity')}"
            )
            result["correct"] = False
    plain = untraced["end_to_end"]["decisions_per_s"]
    traced["per_layer"]["bench.trace_overhead_pct"] = (
        (plain - traced["end_to_end"]["decisions_per_s"]) / plain * 100.0
    )


if __name__ == "__main__":
    sys.exit(main())
