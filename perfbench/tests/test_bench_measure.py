"""The measuring loop: when it stops, which rounds it keeps, what it counts.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import Window, measure  # noqa: E402


class Steps:
    """Three operations a round, each sleeping ``pause`` seconds; operation
    ``fail_at`` raises and ``bad_at`` returns an output its check rejects."""

    min_rounds = 1
    ops_per_round = 3

    def __init__(self, pause=0.0, fail_at=None, bad_at=None):
        self.pause, self.fail_at, self.bad_at = pause, fail_at, bad_at
        self.calls = []

    def op(self, index):
        request = len(self.calls)
        self.calls.append(index)
        time.sleep(self.pause)
        if request == self.fail_at:
            raise RuntimeError("boom")
        return request

    def check(self, request, index, output):
        return ["bad output"] if output == self.bad_at else []


def test_out_of_time_still_runs_the_minimum_whole_rounds():
    workload, window = Steps(), Window()
    measure(workload, 0.0, window)
    assert workload.calls == [0, 1, 2]
    assert len(window.latencies) == 3 and len(window.round_seconds) == 1


def test_stops_between_operations_and_keeps_only_whole_rounds():
    workload, window = Steps(pause=0.01), Window()
    measure(workload, 0.1, window)
    done = len(window.latencies)
    assert 3 <= done <= 12
    assert workload.calls == [i % 3 for i in range(done)]
    assert len(window.round_seconds) == done // 3
    assert window.round_seconds[0] == sum(window.latencies[:3])


def test_a_fixed_number_of_rounds_ignores_the_clock():
    workload, window = Steps(), Window()
    measure(workload, 0.0, window, rounds=2)
    assert workload.calls == [0, 1, 2, 0, 1, 2]
    assert len(window.round_seconds) == 2


def test_raised_and_rejected_operations_count_as_failures():
    workload, window = Steps(fail_at=1, bad_at=2), Window()
    measure(workload, 0.0, window)
    assert sorted(window.failures) == [1, 2]
    assert "RuntimeError: boom" in window.failures[1][0]
    assert window.failures[2] == ["bad output"]
    assert len(window.latencies) == 3
