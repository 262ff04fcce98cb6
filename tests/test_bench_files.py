"""The BENCH_*.json files beside BENCHMARK.json record benchmark runs, one
file per change: every run's value of each metric on the parent and on the
change.  Each must name only the workloads and metrics that BENCHMARK.json
declares, so that a renamed metric cannot leave a trajectory unreadable."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_file_names_declared_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        for run in json.loads(path.read_text())["runs"]:
            assert run["workloads"].keys() <= {w["name"] for w in spec["workloads"]}, path.name
            for workload, recorded in run["workloads"].items():
                assert recorded["metrics"].keys() <= declared, (path.name, workload)
                for metric, sides in recorded["metrics"].items():
                    assert len(sides["parent"]) == len(sides["change"]) == run["pairs"], (path.name, workload, metric)
