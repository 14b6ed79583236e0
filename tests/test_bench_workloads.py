"""One operation of each benchmark workload runs and passes its own checks.

The benchmark (``perfbench/run.py``) measures the workloads ``BENCHMARK.json``
names; a library change that stops one of them, or makes its checks fail,
fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_one_checked_operation(name, tmp_path):
    workload = WORKLOADS[name]()
    workload.prepare(1, tmp_path)
    workload.setup()
    output = workload.op(0)
    assert workload.check(0, 0, output) == []
    assert workload.final_failures() == {}
    workload.summary()
