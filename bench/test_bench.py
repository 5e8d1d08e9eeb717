"""Tests of the benchmark itself: seeded inputs, the correctness gate and
the traced run.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import run
from tracer import COMMAND, Tracer
from workloads import (
    BENCH_DIR, ROOT, SIMULATE_PER_STATE, STATES, invocations, legal_scenarios, simulate_list,
)

GOLDEN = gate.Golden.load()


def test_same_seed_reproduces_the_simulate_list(tmp_path):
    assert simulate_list(7) == simulate_list(7)
    assert invocations("simulate_cuts", 7, tmp_path) == invocations("simulate_cuts", 7, tmp_path)
    assert any(simulate_list(7) != simulate_list(s) for s in range(8, 12))


def test_simulate_list_is_legal_and_balanced():
    picks = simulate_list(3)
    assert len(set(picks)) == len(picks)
    assert set(picks) <= set(legal_scenarios())
    assert [sum(p[0] == s for p in picks) for s in STATES] == [SIMULATE_PER_STATE] * 3


def test_reference_covers_every_legal_scenario():
    assert len(legal_scenarios()) == 57
    stems = [gate.expected_stems(GOLDEN.beams, s) for s in legal_scenarios()]
    assert all(stems) and sum(map(len, stems)) == len(GOLDEN.beams) == 78


def _write_sweep_output(out: Path, rows):
    out.mkdir(parents=True)
    fields = list(rows[0])
    lines = [",".join(fields)] + [",".join(r[f] for f in fields) for r in rows]
    (out / "beam_table.csv").write_text("\n".join(lines) + "\n")


def _tamper_table(rows, index, column, value):
    rows = [dict(r) for r in rows]
    rows[index][column] = value
    return rows


def test_gate_passes_the_reference_sweep(tmp_path):
    expected = GOLDEN.tables["sweep_default"]
    _write_sweep_output(tmp_path / "out", expected)
    verdict = gate.check_sweep(expected, tmp_path / "out")
    assert (verdict.attempted, verdict.failed, verdict.problems) == (78, 0, [])


def test_gate_fails_a_tampered_directivity(tmp_path):
    expected = GOLDEN.tables["sweep_default"]
    _write_sweep_output(tmp_path / "out", expected)
    shifted = f"{float(expected[5]['directivity_dbi']) + 0.01:.4f}"
    verdict = gate.check_sweep(_tamper_table(expected, 5, "directivity_dbi", shifted),
                               tmp_path / "out")
    assert verdict.failed == 1 and "directivity_dbi" in verdict.problems[0]


def test_gate_keeps_blanks_blank_and_peaks_exact(tmp_path):
    expected = GOLDEN.tables["sweep_default"]
    blank = next(i for i, r in enumerate(expected) if r["sll_db"] == "")
    _write_sweep_output(tmp_path / "out", expected)
    for column, value, index in (("sll_db", "-20.0000", blank),
                                 ("peak_theta_deg", "0.5000", 0)):
        tampered = _tamper_table(expected, index, column, value)
        assert gate.check_sweep(tampered, tmp_path / "out").failed == 1


def test_gate_fails_every_beam_when_rows_move(tmp_path):
    expected = GOLDEN.tables["sweep_default"]
    _write_sweep_output(tmp_path / "out", expected[1:] + expected[:1])
    assert gate.check_sweep(expected, tmp_path / "out").failed == 78


def test_gate_fails_a_tampered_simulate_beam(tmp_path):
    scenario = ("slant45", "A7", 9.75)
    stems = gate.expected_stems(GOLDEN.beams, scenario)
    for stem in stems:
        (tmp_path / f"{stem}_metrics.json").write_text(json.dumps(GOLDEN.beams[stem]))
    assert gate.check_simulate(GOLDEN.beams, scenario, tmp_path).failed == 0
    beams = dict(GOLDEN.beams)
    first = beams[stems[0]]
    beams[stems[0]] = dict(first, directivity_dbi=first["directivity_dbi"] + 0.01)
    verdict = gate.check_simulate(beams, scenario, tmp_path)
    assert (verdict.attempted, verdict.failed) == (2, 1)


def test_nonzero_exit_fails_every_beam_of_the_invocation(tmp_path):
    inv = next(i for i in invocations("simulate_cuts", 1, tmp_path) if i.scenario[0] == "slant45")
    assert gate.check(GOLDEN, "simulate_cuts", inv, 1).failed == 2
    (sweep,) = invocations("sweep_leakage", 1, tmp_path)
    assert gate.check(GOLDEN, "sweep_leakage", sweep, 2).failed == 78


def test_timing_reports_the_tail_with_ten_samples_beyond():
    assert run.timing([3.0, 1.0, 2.0])["tail"] is None
    t = run.timing([float(i) for i in range(20)])
    assert t["n"] == 20 and t["median"] == 9.5
    assert t["tail"] == {"percentile": 50.0, "value": 9.0}


def test_self_times_add_up_to_the_command_span():
    tracer = Tracer()
    tracer.spans = [
        [COMMAND, 0.0, 10.0, None, 1],
        ["farfield.scenario", 1.0, 6.0, 0, 1],
        ["farfield.radiate", 2.0, 5.0, 1, 1],
        ["config.load", 7.0, 8.0, 0, 1],
    ]
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]
    assert tracer.command_sums_hold()


def test_traced_run_reports_layers_counts_and_overhead(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), "--workload", "simulate_cuts",
         "--seed", "5", "--seconds", "0", "--work", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["problems"] == [] and out["failed"] == 0
    m = out["metrics"]
    assert set(m) == set(run.LAYER_UNITS)
    assert isinstance(m["trace.overhead_s"], float)
    radiated = m["farfield.radiate_calls"]
    assert radiated == 8  # two scenarios per state; slant45 radiates both apertures
    assert m["farfield.steering_reuse"] == 1.0
    assert m["farfield.zero_cross_fields"] == radiated
    assert m["synthesis.calls"] == 6 and m["feed.calls"] == radiated
    assert m["cli.files_identical"] == m["cli.files_written"] == 16
    assert (tmp_path / "spans0.jsonl").is_file()


def test_benchmark_without_the_program_exits_nonzero_silently(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
