"""Byte identity of CLI outputs against digests pinned from earlier code.

The sweep and simulate files are checked against the benchmark's golden
digest list (``bench/golden/sha256.json``, read only).  The default
sweep and the leakage sweep, whose cross-polar patterns are the leakage
times the co-polar ones, are checked whole, all 157 files each, in the
child runs that also bound their peak RSS.  Nine `simulate` runs, one
feed per state at each frequency, and one child run pin the 0.25 x 1
degree cut grid, the grid with the most conjugated steering rows.
`synthesize` runs in process against digests of its own.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import htasim
from htasim.cli import main

GOLDEN_SHA256 = Path(__file__).resolve().parents[1] / "bench" / "golden" / "sha256.json"

SYNTHESIZE_SHA256 = {
    "ta_phase.csv": "864c99bd44f24630185c602961a17fd97f1785cfdec096d9fe1e1966d1306e34",
    "ta_cells.csv": "209bc60bd3c1ec7da71127e55ccfe08183c194cda6bbf00c44ea076a21dd3204",
    "fta_phase.csv": "314b674edac69df34efd94a98c6c1f1e277b613895380b810febd208412ecf15",
    "fta_cells.csv": "aca58411d76eac7796ef8753b053d49cfc6cef29b1dff49d1b5283c08ae1893a",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_pinned(out: Path, workload: str) -> None:
    """Every file below `out` has the digest pinned for it under
    `workload`, and every pinned file is there."""
    pinned = json.loads(GOLDEN_SHA256.read_text())[workload]
    written = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    assert sorted(written) == sorted(pinned)
    for name, path in written.items():
        assert _sha256(path) == pinned[name], name


def test_synthesize_outputs_are_byte_identical(tmp_path):
    syn = tmp_path / "synthesize"
    assert main(["synthesize", "--out", str(syn)]) == 0
    assert {p.name: _sha256(p) for p in syn.iterdir()} == SYNTHESIZE_SHA256


#: Runs its arguments as a child and prints the child's exit code and
#: ru_maxrss (KiB) from os.wait4.  On Linux a child's ru_maxrss starts at
#: the high-water mark of the address space it was spawned from, so the
#: CLI is spawned from this small process rather than from the test run.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _launched(argv) -> tuple[int, int]:
    """The exit code and ru_maxrss (KiB) of `htasim <argv>` in a child."""
    src = str(Path(htasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "htasim.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, maxrss_kib = map(int, launched.stdout.split())
    return code, maxrss_kib


def test_cut_grid_simulate_is_pinned_in_every_state_and_band(tmp_path):
    # one feed per state at each frequency: the transmit-only, folded and
    # hybrid scenarios on the cut grid's 360 phi samples
    pinned = json.loads(GOLDEN_SHA256.read_text())["simulate_cuts"]
    for state, feed_id in (("x", "A3"), ("y", "A1"), ("slant45", "A5")):
        for freq in ("9.0", "9.75", "10.5"):
            out = tmp_path / f"{state}_{feed_id}_{freq}"
            argv = ["--state", state, "--feed", feed_id, "--freq", freq, "--out", str(out)]
            assert main(["simulate", *argv]) == 0
            files = sorted(out.iterdir())
            assert len(files) == (4 if state == "slant45" else 2)
            for path in files:
                assert _sha256(path) == pinned[path.name], path.name


def test_simulate_on_the_cut_grid_is_pinned_and_small(tmp_path):
    # a two-hemisphere scenario on the 0.25 x 1 deg cut grid: the steering
    # factors are built and contracted one block of BLOCK_DIRECTIONS
    # directions at a time, never whole (the whole pair took 373 MiB of
    # peak RSS; blocks of 8 theta rows, twice the directions, 45.7 MiB),
    # and the transmit-side hemisphere goes before the folded side
    # radiates (keeping it, with metrics that held three grids, 41.7 MiB)
    out = tmp_path / "sim"
    argv = ["simulate", "--state", "slant45", "--feed", "A7", "--freq", "9.75", "--out", str(out)]
    code, maxrss_kib = _launched(argv)
    assert code == 0
    pinned = json.loads(GOLDEN_SHA256.read_text())["simulate_cuts"]
    files = sorted(out.iterdir())
    assert len(files) == 4
    for path in files:
        assert _sha256(path) == pinned[path.name], path.name
    assert maxrss_kib < 40 * 1024


def test_sweep_holds_no_steering_key(tmp_path):
    # each side's beams radiate in one pass that fills the steering factors
    # a theta block at a time; a whole prebuilt key, about 40 MB a side,
    # took the sweep to 76 MiB of peak RSS
    cfg = tmp_path / "two_feeds.cfg"
    cfg.write_text("feed.active_ids = A1, A4\n")
    code, maxrss_kib = _launched(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
    assert code == 0
    assert maxrss_kib < 60 * 1024


def test_default_sweep_contracts_one_beam_at_a_time(tmp_path):
    # each filled steering block is contracted with one beam at a time; a
    # product buffer over a side's whole stack of beams took the default
    # sweep to 57.6 MiB of peak RSS
    out = tmp_path / "sweep"
    code, maxrss_kib = _launched(["sweep", "--out", str(out)])
    assert code == 0
    _assert_pinned(out, "sweep_default")
    assert maxrss_kib < 52 * 1024


def test_two_component_sweep_is_pinned(tmp_path):
    # a cross-polar residue and the feed-board shadow: every beam has a
    # nonzero cross-polar field, the leakage times its co-polar one, with
    # the peak's theta row contracted from the field itself.  The sweep
    # reads about 50 MiB of peak RSS; a product buffer over a side's
    # whole stack of beams took it to 64.0 MiB
    cfg = tmp_path / "leakage.cfg"
    cfg.write_text("crosspol.leakage = 0.05\nblockage.enabled = true\n")
    out = tmp_path / "sweep"
    code, maxrss_kib = _launched(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    _assert_pinned(out, "sweep_leakage")
    assert maxrss_kib < 56 * 1024
