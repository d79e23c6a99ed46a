"""Harness self-test: ``python -m pytest bench -q`` (outside tier-1 ``testpaths``).

Runs every workload at ``--quick`` size, so the numbers mean nothing; what is
checked is that each workload produces the metrics it promises, that the span
trees are well formed, that faults are counted instead of raised, and that the
catalogue and ``BENCHMARK.json`` agree.
"""

import json
import os
import re
import signal

import pytest

from bench import ROOT, spec
from bench.compare import verdict
from bench.run import QUICK_SECONDS, contract_metrics, main, run_workload
from bench.spans import check_span_tree, read_spans, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Each workload once untraced and once traced, at quick size."""
    out_dir = tmp_path_factory.mktemp("bench_out")
    return {
        (name, trace): run_workload(name, 0, QUICK_SECONDS, trace, quick=True, out_dir=out_dir)
        for name in spec.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_workload_produces_what_it_promises(quick_runs, name):
    untraced, traced = quick_runs[(name, False)], quick_runs[(name, True)]
    for result in (untraced, traced):
        assert result["correct"], result["gate_failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert result["quick"] and not result["warnings"]
    for metric, _, _, _ in spec.END_TO_END:
        assert untraced["end_to_end"][metric] > 0, metric
    kind = spec.WORKLOADS[name][0]
    for layer in spec.LAYERS_OF_KIND[kind]:
        assert traced["per_layer"][layer] is not None, layer
    # What both runs must agree on: the decisions taken, or the weights reached.
    assert untraced.get("identity") == traced.get("identity")
    for result in (untraced, traced):
        line = contract_metrics(result)
        catalogue = spec.PER_LAYER if result["trace"] else spec.END_TO_END
        assert list(line) == [entry[0] for entry in catalogue]
        assert all(NAME.fullmatch(metric) for metric in line)
        assert all(isinstance(entry["value"], float) for entry in line.values())


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_span_tree_is_well_formed(quick_runs, name):
    traced = quick_runs[(name, True)]
    spans = read_spans(ROOT / traced["trace_file"])
    assert len(spans) == traced["trace_spans"] > 0
    assert check_span_tree(spans) == []
    assert min(self_times(spans).values()) >= -1e-6
    if spec.WORKLOADS[name][0] == "fleet":
        layer = traced["per_layer"]
        parts = ["service.protocol.encode_ms", "service.protocol.decode_ms",
                 "service.session.reconcile_ms", "service.batcher.model_ms",
                 "service.protocol.reply_codec_ms", "service.aioserver.wait_io_ms"]
        assert sum(layer[part] for part in parts) == pytest.approx(
            layer["bench.direct_round_trip_ms"]
        )


def test_killed_shard_is_counted_not_raised(tmp_path):
    def kill_second_shard(info):
        os.kill(info["shard_pids"][1], signal.SIGKILL)

    result = run_workload("fleet_20j_spread", 0, QUICK_SECONDS, False, quick=True,
                          out_dir=tmp_path, fault=kill_second_shard)
    assert result["failed"] > 0 and result["failed_share"] > 0
    assert result["attempted"] > result["failed"]  # the session re-hello'd and carried on


def test_catalogue_matches_benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        assert json.load(handle) == spec.benchmark_json()
    names = [m["name"] for m in spec.benchmark_json()["end_to_end"]]
    names += [m["name"] for m in spec.benchmark_json()["per_layer"]]
    names += list(spec.WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(bound <= 0.25 for _, _, _, bound in spec.END_TO_END)


def test_quick_results_are_never_recorded(capsys):
    before = BENCHMARK_JSON.read_bytes()
    with pytest.raises(SystemExit):
        main(["--quick", "--record"])
    capsys.readouterr()
    assert BENCHMARK_JSON.read_bytes() == before


def test_verdicts():
    assert verdict([10.0], [10.9], "lower", 0.1) == "ok"
    assert verdict([10.0], [11.5], "lower", 0.1) == "worse"
    assert verdict([100.0], [85.0], "higher", 0.1) == "worse"
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert verdict(noisy, [9.5, 10.5, 11.5, 12.5, 13.0], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [5.0, 6.0, 7.0, 7.5, 7.9], "lower", 0.1) == "ok"
