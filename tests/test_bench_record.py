"""The committed performance record: each ``BENCH_*.json`` at the
repository root holds entries of ``perfbench/run.py`` runs, and every entry
names its commit, machine, BLAS thread count, workload and seeds, and gives
each metric as the median of its runs with their quartiles."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_stream_record_exists():
    assert ROOT / "BENCH_stream.json" in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_entry_names_its_context_and_gives_quartiles(path):
    entries = json.loads(path.read_text())["entries"]
    assert entries
    for entry in entries:
        where = f"{path.name}: {entry.get('workload')} at {entry.get('commit')}"
        assert isinstance(entry["commit"], str) and entry["commit"], where
        assert entry["machine"]["cpu_model"] and entry["machine"]["nproc"] >= 1, where
        assert isinstance(entry["blas_threads"], int) and entry["blas_threads"] >= 1, where
        assert isinstance(entry["workload"], str) and entry["workload"], where
        seeds = entry["seeds"]
        assert seeds and all(isinstance(seed, int) for seed in seeds), where
        assert entry["metrics"], where
        for name, figure in entry["metrics"].items():
            runs = figure["runs"]
            assert len(runs) == len(seeds), f"{where}: {name}"
            q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            assert figure["median"] == pytest.approx(median, rel=1e-9), f"{where}: {name}"
            assert (figure["q1"], figure["q3"]) == pytest.approx((q1, q3), rel=1e-9), f"{where}: {name}"
