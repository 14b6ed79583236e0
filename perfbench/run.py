"""Run one workload of the posehar benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-clips --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout and imports ``posehar`` from its
``src/`` directory. Inputs are made from ``--seed``. Operations repeat in
rounds, after an untimed warm-up; after the workload's minimum number of
rounds they stop when the next operation would end past ``--seconds``. Every
output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same window runs untraced,
then one round runs traced, and the object holds the per-layer metrics and
the tracing overhead. A results file with the environment, and for traced
runs a spans file, go to ``bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter importing posehar."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import posehar"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def _setup_seconds(workload) -> float:
    """Median interpreter-plus-import time plus median in-process set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = [_import_seconds(env) for _ in range(SETUP_REPEATS)]
    ready = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        ready.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(ready)


class Window:
    """Latencies, per-round wall times and failures of measured rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_seconds: list[float] = []
        self.failures: dict[int, list[str]] = {}


def measure(workload, seconds: float, window: Window, rounds: int | None = None,
            tracer=None) -> None:
    """Run operations in rounds, timing each one; stop after ``rounds``
    whole rounds, or, once the workload's minimum rounds are done, when
    another operation would end past ``seconds``. Only whole rounds enter
    ``window.round_seconds``."""
    started = time.perf_counter()
    done = 0
    round_time = 0.0
    while True:
        index = done % workload.ops_per_round
        request = len(window.latencies)
        if tracer is not None:
            tracer.run_id = request + 1
        start = time.perf_counter()
        try:
            output = workload.op(index)
        except Exception:
            output = None
            window.failures[request] = [traceback.format_exc()]
        latency = time.perf_counter() - start
        window.latencies.append(latency)
        round_time += latency
        if output is not None:
            problems = workload.check(request, index, output)
            if problems:
                window.failures[request] = problems
        done += 1
        if done % workload.ops_per_round == 0:
            window.round_seconds.append(round_time)
            round_time = 0.0
        whole = done // workload.ops_per_round
        if rounds is not None:
            if whole >= rounds:
                return
        elif whole >= workload.min_rounds and \
                (time.perf_counter() - started) * (done + 1) / done > seconds:
            return


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "posehar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "posehar" / "__init__.py").is_file():
        print(f"error: no posehar sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import posehar

    if Path(posehar.__file__).resolve().parent != SRC / "posehar":
        print(f"error: imported posehar from {posehar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import OBSERVERS, layer_metrics
    from spans import Tracer
    from stats import summary
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        inputs = workload.prepare(args.seed, Path(workdir))
        setup_s = _setup_seconds(workload)
        for index in range(workload.warmup_ops):
            try:
                workload.op(index)
            except Exception:
                pass    # the same operation fails again, and is counted, when timed
        window = Window()
        measure(workload, args.seconds, window)
        untraced_rounds = len(window.round_seconds)
        attempted_untraced = len(window.latencies)
        latency = summary(window.latencies, scale=1e3)
        if args.trace:
            tracer = Tracer(OBSERVERS)
            with tracer:
                tracer.run_id = 0
                workload.setup()
                measure(workload, args.seconds, window, rounds=1, tracer=tracer)
        for request, problems in workload.final_failures().items():
            window.failures.setdefault(request, []).extend(problems)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(window.latencies)
    failed = len(window.failures)
    if args.trace:
        overhead = window.round_seconds[-1] - statistics.median(
            window.round_seconds[:untraced_rounds])
        values = layer_metrics(tracer.spans, overhead)
    else:
        values = {"setup_s": setup_s, "latency_ms_p50": latency["p50"],
                  "peak_rss_mb": peak_rss_mb}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        "inputs": inputs,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "latency_ms": latency,
        "round_s": window.round_seconds[:untraced_rounds],
        "op_ms": [t * 1e3 for t in window.latencies[:attempted_untraced]],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": {str(k): v for k, v in sorted(window.failures.items())},
        "workload_summary": workload.summary(),
        "metrics": metrics,
    }
    if args.trace:
        record["traced_round_s"] = window.round_seconds[untraced_rounds:]
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'attempted':32s} {attempted}   failed {failed}   "
          f"latency samples {latency['n']}")
    if latency["p90_supported"]:
        print(f"{'latency_ms_p90 (results file)':32s} {latency['p90']:.6g} ms")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
