"""The htasim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is the source tree
in ``src``; nothing is installed.

``--trace 0`` measures end to end: one parent process runs the CLI
(``python -m htasim.cli``) as child processes, one at a time, with no
tracing.  It times set-up children (``setup_probe.py``) before and
after repeating the workload's pass of invocations until ``--seconds``
are used, and gates every invocation's outputs against the pinned
reference (``gate.py``).  Wall time comes from the parent's
clock, CPU time and peak RSS from ``os.wait4``.

``--trace 1`` runs ``tracer.py`` in one child and reports its per-layer
numbers instead.

The last line of standard output is the result object; the line before
it records the environment, the seed, the sample counts and tail
percentiles of every timing and the failed-beam ratio.  Workloads are
described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from workloads import BENCH_DIR, ROOT, WORKLOADS, invocations

#: set-up children timed before the passes, and as many again after them,
#: so that setup_s samples the whole run rather than one moment of it
SETUP_REPEATS = 7
#: every child is killed once the run has lasted this long, so the
#: benchmark ends within its 180 s limit even if the program hangs
DEADLINE_S = 165.0

E2E_UNITS = {
    "wall_s": "s",
    "beams_per_s": "1/s",
    "invocation_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
}
LAYER_UNITS = {
    "config.load_s": "s",
    "unitcell.library_s": "s",
    "unitcell.invert_calls": "count",
    "geometry.build_layout_s": "s",
    "geometry.elements": "count",
    "synthesis.busy_s": "s",
    "synthesis.calls": "count",
    "feed.illumination_s": "s",
    "feed.calls": "count",
    "polarization.route_calls": "count",
    "farfield.illuminate_s": "s",
    "farfield.illuminate_calls": "count",
    "farfield.radiate_s": "s",
    "farfield.radiate_calls": "count",
    "farfield.radiate_call_ms": "ms",
    "farfield.metrics_s": "s",
    "farfield.metrics_calls": "count",
    "farfield.scenario_s": "s",
    "farfield.directions": "count",
    "farfield.steering_exps": "count",
    "farfield.steering_mb": "MB",
    "farfield.contraction_gflop": "GFLOP",
    "farfield.steering_keys": "count",
    "farfield.steering_reuse": "ratio",
    "farfield.zero_cross_fields": "count",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "cli.files_identical": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Pass:
    children: list[Child] = field(default_factory=list)
    beams: int = 0

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def run_child(argv, env, log, deadline: float) -> Child:
    """Run one child to completion; wall time from the parent's clock,
    CPU time and peak RSS from the kernel's rusage of that child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode)


def timing(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (none below eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        k = n - 11  # ten samples lie above ordered[k]
        tail = {"percentile": 100.0 * (k + 1) / n, "value": ordered[k]}
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


def end_to_end(name: str, seed: int, seconds: float, work: Path, env, log, deadline):
    golden = gate.Golden.load()
    config = WORKLOADS[name].config
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py")]
    if config is not None:
        probe += ["--config", str(ROOT / config)]
    # The first child compiles the bytecode; without a working program
    # there is nothing to measure.
    if run_child(probe, env, log, deadline).code != 0:
        return None
    setups = [run_child(probe, env, log, deadline) for _ in range(SETUP_REPEATS)]

    passes: list[Pass] = []
    verdicts: list[gate.Verdict] = []
    start = time.perf_counter()
    while True:
        out_root = work / f"pass{len(passes)}"
        p = Pass()
        for inv in invocations(name, seed, out_root):
            child = run_child([sys.executable, "-m", "htasim.cli", *inv.argv], env, log, deadline)
            p.children.append(child)
            verdicts.append(gate.check(golden, name, inv, child.code))
            p.beams += gate.beams_written(inv)
        passes.append(p)
        shutil.rmtree(out_root, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    setups += [run_child(probe, env, log, deadline) for _ in range(SETUP_REPEATS)]
    children = [c for p in passes for c in p.children]
    samples = {
        "wall_s": [p.wall_s for p in passes],
        "beams_per_s": [p.beams / p.wall_s for p in passes],
        "invocation_s": [c.wall_s for c in children],
        "setup_s": [c.wall_s for c in setups],
        "cpu_s": [sum(c.cpu_s for c in p.children) for p in passes],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = max(c.rss_mb for c in children)
    details = {k: timing(v) for k, v in samples.items() if k != "beams_per_s"}
    return metrics, details, verdicts, []


def traced(name: str, seed: int, seconds: float, work: Path, env, deadline):
    cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--work", str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    verdict = gate.Verdict(out["attempted"], out["failed"])
    return out["metrics"], {"traced_passes": out["passes"]}, [verdict], out["problems"]


def _blas_threads(np):
    """Thread count OpenBLAS uses in this process (None if not found)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed: int) -> dict:
    import numpy as np  # the children's numpy; imported after the timed work

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "children_at_once": 1,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="htasim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "htasim" / "cli.py").is_file():
        print(f"no htasim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    if args.trace:
        measured = traced(args.workload, args.seed, args.seconds, work, env, deadline)
        units = LAYER_UNITS
    else:
        with open(work / "children.log", "w") as log:
            measured = end_to_end(args.workload, args.seed, args.seconds, work, env, log,
                                  deadline)
        units = E2E_UNITS
    if measured is None:
        print(f"the program did not run; see {work}", file=sys.stderr)
        return 1
    metrics, details, verdicts, problems = measured
    problems = problems + [p for v in verdicts for p in v.problems]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload,
        "environment": environment(args.seed),
        "failed_ratio": failed / attempted if attempted else None,
        **details,
    }))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
