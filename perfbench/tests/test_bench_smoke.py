"""Tiny-size runs of every workload through the benchmark's own entry point."""

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import run
from perfbench.workloads import P99_MIN_SAMPLES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Each replay needs P99_MIN_SAMPLES step latencies; a large gamma keeps the
# dictionary small.
TINY = {
    name: dataclasses.replace(w, n=P99_MIN_SAMPLES + 1, gamma=1.0, q_bar=20, verify_at=(50, 200))
    for name, w in WORKLOADS.items()
}


def test_benchmark_json_matches_metric_definitions():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == run.METRICS["workloads"]
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"]: {k: v for k, v in m.items() if k != "name"} for m in BENCHMARK[kind]}
        defined = {
            name: {k: v for k, v in spec.items() if k in ("unit", "better", "bound")}
            for name, spec in run.METRICS[kind].items()
        }
        assert listed == defined


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_and_passes_checks(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > TINY[workload].n
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
