"""Correctness gate of the htasim benchmark.

Compares what one CLI invocation wrote against the reference outputs
pinned from the seed code in ``bench/golden``:

* sweeps: the beam table's row set and order must match exactly, and so
  must each row's status and peak angles; directivity, SLL, cross-pol,
  beamwidth and scan loss must agree within TOL; a blank cell (an
  undefined metric, such as the four blank ``sll_db`` rows of the default
  sweep) must stay blank;
* simulate: the same rules on each beam's metrics JSON, against the
  pinned metrics of all 57 legal scenarios at the cut grid, so that any
  seed's scenario list can be checked.

A beam that breaks any rule counts as failed.  Byte identity with the
pinned outputs is reported on its own (``file_stats``), never gated:
a change may alter the last printed digit and still be correct.

Re-pin after a deliberate, explained change of results with
``python3 bench/gate.py --pin`` from the repository root.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from workloads import ROOT, invocations, legal_scenarios

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Agreement required of the toleranced metrics, in dB or degrees.  The
#: outputs print 4 decimals, so this admits last-digit drift from a
#: reordered reduction but not a 0.01 dB change.
TOL = 1e-3

ROW_KEY = ("state", "feed_id", "frequency_ghz", "hemisphere")
TABLE_EXACT = ROW_KEY + ("status", "peak_theta_deg", "peak_phi_deg")
TABLE_CLOSE = {
    "directivity_dbi": TOL,
    "sll_db": TOL,
    "crosspol_db": TOL,
    "beamwidth_deg": TOL,
    "scan_loss_db": TOL,
}
BEAM_EXACT = ROW_KEY + ("peak_theta_deg", "peak_phi_deg")
BEAM_CLOSE = {
    "directivity_dbi": TOL,
    "peak_gain_dbi": TOL,
    "sll_db": TOL,
    "beamwidth_3db_deg": TOL,
    "crosspol_peak_db": TOL,
    "aperture_efficiency": 1e-5,  # a ratio; 1e-5 is ~1e-4 dB at 0.5
}

_SWEEPS = ("sweep_default", "sweep_leakage")


@dataclass
class Golden:
    """The pinned reference outputs."""

    tables: dict[str, list[dict[str, str]]]  # sweep workload -> beam table rows
    beams: dict[str, dict]  # simulate file stem -> metrics JSON payload
    sha256: dict[str, dict[str, str]]  # workload -> output path -> digest

    @classmethod
    def load(cls, directory: Path = GOLDEN_DIR) -> "Golden":
        tables = {name: read_table(directory / f"{name}.csv") for name in _SWEEPS}
        beams = json.loads((directory / "simulate_cuts.json").read_text())
        sha = json.loads((directory / "sha256.json").read_text())
        return cls(tables, beams, sha)


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _blank(value) -> bool:
    return value is None or value == ""


def _same(got, want) -> bool:
    if got == want:
        return True
    try:
        return float(got) == float(want)
    except (TypeError, ValueError):
        return False


def mismatches(got: dict, want: dict, exact, close: dict) -> list[str]:
    """Fields of `got` that break the gate against `want`."""
    bad = [f for f in exact if not _same(got.get(f), want[f])]
    for f, tol in close.items():
        a, b = got.get(f), want[f]
        if _blank(a) or _blank(b):
            if not (_blank(a) and _blank(b)):
                bad.append(f)
        elif not abs(float(a) - float(b)) <= tol:
            bad.append(f)
    return bad


def check_sweep(expected: list[dict], out_dir: Path) -> Verdict:
    n = len(expected)
    try:
        rows = read_table(out_dir / "beam_table.csv")
    except OSError as exc:
        return Verdict(n, n, [f"beam table unreadable: {exc}"])
    if [[r.get(k) for k in ROW_KEY] for r in rows] != [
        [r[k] for k in ROW_KEY] for r in expected
    ]:
        return Verdict(n, n, ["beam row set or order differs from the reference"])
    verdict = Verdict(n)
    for got, want in zip(rows, expected):
        bad = mismatches(got, want, TABLE_EXACT, TABLE_CLOSE)
        if bad:
            verdict.failed += 1
            verdict.problems.append(f"{[want[k] for k in ROW_KEY]}: {', '.join(bad)}")
    return verdict


def expected_stems(beams: dict[str, dict], scenario) -> list[str]:
    state, feed_id, freq = scenario
    return sorted(
        stem
        for stem, b in beams.items()
        if (b["state"], b["feed_id"], b["frequency_ghz"]) == (state, feed_id, freq)
    )


def check_simulate(beams: dict[str, dict], scenario, out_dir: Path) -> Verdict:
    stems = expected_stems(beams, scenario)
    verdict = Verdict(len(stems))
    written = sorted(p.name for p in out_dir.glob("*_metrics.json"))
    if written != [f"{s}_metrics.json" for s in stems]:
        verdict.failed = len(stems)
        verdict.problems.append(f"{scenario}: wrote {written}, expected beams {stems}")
        return verdict
    for stem in stems:
        try:
            got = json.loads((out_dir / f"{stem}_metrics.json").read_text())
        except (OSError, ValueError) as exc:
            bad = [f"unreadable ({exc})"]
        else:
            bad = mismatches(got, beams[stem], BEAM_EXACT, BEAM_CLOSE)
        if bad:
            verdict.failed += 1
            verdict.problems.append(f"{stem}: {', '.join(bad)}")
    return verdict


def check(golden: Golden, workload: str, inv, exit_code: int) -> Verdict:
    """Gate one finished invocation `inv` of `workload`.  A non-zero exit
    fails every beam the invocation should have produced."""
    if inv.scenario is None:
        expected = golden.tables[workload]
        attempted = len(expected)
    else:
        attempted = len(expected_stems(golden.beams, inv.scenario))
    if exit_code != 0:
        return Verdict(attempted, attempted, [f"{inv.scenario or inv.argv[0]} exited {exit_code}"])
    if inv.scenario is None:
        return check_sweep(expected, inv.out_dir)
    return check_simulate(golden.beams, inv.scenario, inv.out_dir)


def beams_written(inv) -> int:
    if inv.scenario is None:
        try:
            return len(read_table(inv.out_dir / "beam_table.csv"))
        except OSError:
            return 0
    return len(list(inv.out_dir.glob("*_metrics.json")))


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_files(out_dir: Path) -> dict[str, Path]:
    """Every file below `out_dir`, by its '/'-separated relative path."""
    return {
        p.relative_to(out_dir).as_posix(): p
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def file_stats(golden: Golden, workload: str, out_dir: Path) -> tuple[int, int, int]:
    """(files written, bytes written, files byte-identical to the pinned copy)."""
    pinned = golden.sha256[workload]
    files = output_files(out_dir)
    identical = sum(1 for rel, p in files.items() if pinned.get(rel) == sha256_of(p))
    return len(files), sum(p.stat().st_size for p in files.values()), identical


def _run_cli(argv, env) -> None:
    cmd = [sys.executable, "-m", "htasim.cli", *argv]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


def pin(work: Path) -> None:
    """Regenerate bench/golden from the code in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shutil.rmtree(work, ignore_errors=True)
    sha: dict[str, dict[str, str]] = {}
    for name in _SWEEPS:
        (inv,) = invocations(name, 0, work / name)
        _run_cli(inv.argv, env)
        shutil.copyfile(inv.out_dir / "beam_table.csv", GOLDEN_DIR / f"{name}.csv")
        sha[name] = {rel: sha256_of(p) for rel, p in output_files(inv.out_dir).items()}
    beams, sha["simulate_cuts"] = {}, {}
    for k, (state, feed_id, freq) in enumerate(legal_scenarios()):
        out = work / "simulate_cuts" / f"{k:02d}"
        _run_cli(("simulate", "--state", state, "--feed", feed_id,
                  "--freq", f"{freq}", "--out", str(out)), env)
        for rel, p in output_files(out).items():
            sha["simulate_cuts"][rel] = sha256_of(p)
            if rel.endswith("_metrics.json"):
                beams[rel[: -len("_metrics.json")]] = json.loads(p.read_text())
    (GOLDEN_DIR / "simulate_cuts.json").write_text(
        json.dumps(beams, indent=1, sort_keys=True) + "\n"
    )
    (GOLDEN_DIR / "sha256.json").write_text(json.dumps(sha, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true", required=True,
                        help="regenerate the pinned reference outputs")
    parser.parse_args()
    pin(ROOT / ".bench_work" / "pin")
