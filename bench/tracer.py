"""Traced in-process run of one benchmark workload: the per-layer numbers.

The tracer wraps the public functions of htasim's modules from outside
(nothing under ``src`` changes) and runs the workload's CLI invocations
in this process through ``htasim.cli.main``.  Each wrapped call records a
span (name, start, end, parent span, run id); the spans stay in memory
and are written to ``spans.jsonl`` when the run ends.  A layer's time is
the self time of its spans: duration minus the time its child spans
cover, so the layer times of one command add up to the command span.

Callers bind some functions by name (``cli`` imports
``synthesize_cell_maps`` and ``run_scenario``, ``farfield`` imports
``illumination_grid`` and ``route``), so every ``htasim`` module that
holds the original function object gets the wrapper.  A named layer that
records zero calls fails the run.

Usage (from the repository root, with ``src`` on PYTHONPATH):
    python3 bench/tracer.py --workload sweep_default --seed 1 --seconds 30 --work DIR
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import htasim.cli
import htasim.config
import htasim.farfield
import htasim.feed
import htasim.geometry
import htasim.polarization
import htasim.unitcell

import gate
from workloads import invocations

#: untimed scenario run before the first timed pass
WARMUP_SCENARIO = ("--state", "slant45", "--feed", "A4", "--freq", "9.75")

#: (span name, defining module, function).  Spans are layers with time.
SPANNED = (
    ("config.load", htasim.config, "load_config"),
    ("config.load", htasim.config, "default_config"),
    ("unitcell.library", htasim.unitcell, "builtin_curve_library"),
    ("geometry.build_layout", htasim.geometry, "build_layout"),
    ("synthesis", htasim.farfield, "synthesize_cell_maps"),
    ("feed.illumination", htasim.feed, "illumination_grid"),
    ("farfield.illuminate", htasim.farfield, "illuminate"),
    ("farfield.radiate", htasim.farfield, "radiate"),
    ("farfield.metrics", htasim.farfield, "extract_metrics"),
    ("farfield.scenario", htasim.farfield, "run_scenario"),
)
#: (counter name, owner, attribute).  Cheap calls, counted but not timed.
COUNTED = (
    ("polarization.route", htasim.polarization, "route"),
    ("unitcell.invert", htasim.unitcell.PhaseCurve, "invert"),
)
COMMAND = "cli.command"

#: every layer runs on every workload, so each must record calls
REQUIRED = tuple(dict.fromkeys(n for n, _, _ in SPANNED + COUNTED)) + (COMMAND,)


class Tracer:
    """Records spans and counts at the wrapped call boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.radiated: list[dict] = []  # computed work of each radiate call
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_radiate(self, orig):
        signature = inspect.signature(orig)

        def observe(*args, **kwargs):
            a = signature.bind(*args, **kwargs).arguments
            field, k0 = a["field"], a["k0"]
            ap = field.aperture
            n_dir = (round(90.0 / a["theta_step_deg"]) + 1) * round(360.0 / a["phi_step_deg"])
            self.radiated.append({
                "run": self.run_id,
                "key": (ap, k0, a["theta_step_deg"], a["phi_step_deg"]),
                "nx": ap.nx,
                "ny": ap.ny,
                "n_dir": n_dir,
                "zero_cross": not field.ex.any(),
            })

        return observe

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, orig, wrapper) -> None:
        """Replace `orig` wherever a htasim module (or `owner`) binds it."""
        targets = [owner] + [
            m for n, m in sys.modules.items() if n == "htasim" or n.startswith("htasim.")
        ]
        for target in dict.fromkeys(targets):
            for name, value in list(vars(target).items()):
                if value is orig:
                    setattr(target, name, wrapper)
                    self._patched.append((target, name, orig))

    def install(self) -> None:
        for name, owner, attr in SPANNED:
            orig = getattr(owner, attr)
            observe = self._observe_radiate(orig) if name == "farfield.radiate" else None
            self._rebind(owner, attr, orig, self._spanned(name, orig, observe))
        for name, owner, attr in COUNTED:
            orig = vars(owner)[attr]
            self._rebind(owner, attr, orig, self._counted(name, orig))

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._patched):
            setattr(target, name, orig)
        self._patched.clear()

    def command(self, argv) -> int:
        """Run one CLI invocation in-process under a command span."""
        self.run_id += 1
        idx = self._open(COMMAND)
        try:
            return htasim.cli.main(list(argv))
        finally:
            self._close(idx)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s[3] is not None:
                children[s[3]].append((s[1], s[2]))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children[i]):
                lo, hi = max(c0, reach), min(c1, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def command_sums_hold(self) -> bool:
        """Each command span equals its self time plus its children's durations."""
        selfs = self.self_times()
        child_sum = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child_sum[s[3]] += s[2] - s[1]
        return all(
            abs(selfs[i] + child_sum[i] - (s[2] - s[1])) < 1e-6
            for i, s in enumerate(self.spans)
            if s[0] == COMMAND
        )

    def layer_metrics(self) -> tuple[dict[str, float], Counter]:
        """Per-layer metrics of the recorded spans, and the call count of
        every span and counter name."""
        selfs = self.self_times()
        busy, calls = defaultdict(float), Counter(self.counts)
        radiate_ms = []
        for s, t in zip(self.spans, selfs):
            busy[s[0]] += t
            calls[s[0]] += 1
            if s[0] == "farfield.radiate":
                radiate_ms.append((s[2] - s[1]) * 1e3)
        rad = self.radiated
        keys = {(r["run"], r["key"]) for r in rad}
        flop = sum(16 * r["n_dir"] * r["ny"] * (r["nx"] + 1) for r in rad)
        return {
            "config.load_s": busy["config.load"],
            "unitcell.library_s": busy["unitcell.library"],
            "unitcell.invert_calls": calls["unitcell.invert"],
            "geometry.build_layout_s": busy["geometry.build_layout"],
            # computed at the radiate boundary from the arguments
            "geometry.elements": sum(r["nx"] * r["ny"] for r in rad),
            "synthesis.busy_s": busy["synthesis"],
            "synthesis.calls": calls["synthesis"],
            "feed.illumination_s": busy["feed.illumination"],
            "feed.calls": calls["feed.illumination"],
            "polarization.route_calls": calls["polarization.route"],
            "farfield.illuminate_s": busy["farfield.illuminate"],
            "farfield.illuminate_calls": calls["farfield.illuminate"],
            "farfield.radiate_s": busy["farfield.radiate"],
            "farfield.radiate_calls": calls["farfield.radiate"],
            "farfield.radiate_call_ms": statistics.median(radiate_ms) if radiate_ms else 0.0,
            "farfield.metrics_s": busy["farfield.metrics"],
            "farfield.metrics_calls": calls["farfield.metrics"],
            "farfield.scenario_s": busy["farfield.scenario"],
            "farfield.directions": sum(r["n_dir"] for r in rad),
            "farfield.steering_exps": sum(r["n_dir"] * (r["nx"] + r["ny"]) for r in rad),
            "farfield.steering_mb": max(
                (16 * r["n_dir"] * (r["nx"] + r["ny"]) / 1e6 for r in rad), default=0.0
            ),
            # pu @ a is 8*n_dir*nx*ny real flops per component, the
            # weighted sum over y another 8*n_dir*ny; two components
            "farfield.contraction_gflop": flop / 1e9,
            "farfield.steering_keys": len(keys),
            "farfield.steering_reuse": len(rad) / len(keys) if keys else 0.0,
            "farfield.zero_cross_fields": sum(r["zero_cross"] for r in rad),
            "cli.self_s": busy[COMMAND],
        }, calls

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


COMPUTED = (
    "geometry.elements", "farfield.directions", "farfield.steering_exps",
    "farfield.steering_mb", "farfield.contraction_gflop", "farfield.steering_keys",
    "farfield.steering_reuse", "farfield.zero_cross_fields",
)


def _exit_code(run_command, argv) -> int:
    """What the invocation would exit with as its own process."""
    try:
        return run_command(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error: a traceback and exit code 1
        traceback.print_exc()
        return 1


def _pass(run_command, workload, seed, out_root, golden, verdicts):
    """Run one pass, return its wall time; gate it after the clock stops."""
    shutil.rmtree(out_root, ignore_errors=True)
    invs = invocations(workload, seed, out_root)
    codes = []
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for inv in invs:
            codes.append(_exit_code(run_command, inv.argv))
    wall = time.perf_counter() - start
    verdicts.extend(gate.check(golden, workload, inv, c) for inv, c in zip(invs, codes))
    return wall, invs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced run of one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    golden = gate.Golden.load()
    # One two-aperture scenario first, untimed, so that neither timed pass
    # pays the process's first BLAS call and first large allocations.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        htasim.cli.main(["simulate", *WARMUP_SCENARIO, "--out", str(args.work / "warmup")])
    verdicts: list[gate.Verdict] = []
    passes: list[dict[str, float]] = []
    problems: list[str] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        tracer = Tracer()

        def untraced_pass():
            return _pass(lambda a: htasim.cli.main(list(a)), args.workload, args.seed,
                         args.work / f"untraced{k}", golden, verdicts)

        def traced_pass():
            tracer.install()
            try:
                return _pass(tracer.command, args.workload, args.seed,
                             args.work / f"traced{k}", golden, verdicts)
            finally:
                tracer.uninstall()

        # alternate which side runs first, so neither always runs cold
        if k % 2 == 0:
            untraced_s, _ = untraced_pass()
            traced_s, invs = traced_pass()
        else:
            traced_s, invs = traced_pass()
            untraced_s, _ = untraced_pass()
        metrics, calls = tracer.layer_metrics()
        missing = [n for n in REQUIRED if calls[n] == 0]
        if missing:
            problems.append(f"layers with zero calls: {', '.join(missing)}")
        if not tracer.command_sums_hold():
            problems.append("a command span is not its self time plus its children")
        stats = [gate.file_stats(golden, args.workload, inv.out_dir) for inv in invs]
        metrics["cli.files_written"] = sum(s[0] for s in stats)
        metrics["cli.bytes_written"] = sum(s[1] for s in stats)
        metrics["cli.files_identical"] = sum(s[2] for s in stats)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        passes.append(metrics)
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed * (k + 2) / (k + 1) > args.seconds:
            break

    for k, tracer in enumerate(tracers):
        tracer.write_spans(args.work / f"spans{k}.jsonl")
    if any(p[n] != passes[0][n] for p in passes for n in COMPUTED):
        problems.append("computed work counts differ between traced passes")
    result = {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
    problems.extend(p for v in verdicts for p in v.problems)
    print(json.dumps({
        "metrics": result,
        "passes": len(passes),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
