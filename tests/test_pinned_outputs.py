"""Byte identity of CLI outputs against digests pinned from earlier code.

The per-beam sweep and simulate files are checked against the
benchmark's golden digest list (``bench/golden/sha256.json``, read only);
a two-feed subset of the default sweep keeps the test to a few seconds
while still covering every state, both hemispheres and all three
frequencies.  The same subset of the leakage sweep covers the path where
both polarization components are contracted.
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


def test_sweep_and_synthesize_outputs_are_byte_identical(tmp_path):
    cfg = tmp_path / "two_feeds.cfg"
    cfg.write_text("feed.active_ids = A1, A4\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    pinned = json.loads(GOLDEN_SHA256.read_text())["sweep_default"]
    beams = sorted((out / "beams").iterdir())
    # x drives A4 only, y and slant45 both feeds: 21 beams, cut and metrics each
    assert len(beams) == 42
    for path in beams:
        assert _sha256(path) == pinned[f"beams/{path.name}"], path.name

    syn = tmp_path / "synthesize"
    assert main(["synthesize", "--out", str(syn)]) == 0
    assert {p.name: _sha256(p) for p in syn.iterdir()} == SYNTHESIZE_SHA256


def test_two_component_sweep_is_pinned(tmp_path):
    # a cross-polar residue and the feed-board shadow: every beam has a
    # nonzero cross-polar field, so both components are contracted
    cfg = tmp_path / "two_feeds_leakage.cfg"
    cfg.write_text("feed.active_ids = A1, A4\ncrosspol.leakage = 0.05\nblockage.enabled = true\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    pinned = json.loads(GOLDEN_SHA256.read_text())["sweep_leakage"]
    beams = sorted((out / "beams").iterdir())
    assert len(beams) == 42
    for path in beams:
        assert _sha256(path) == pinned[f"beams/{path.name}"], path.name


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


def test_simulate_on_the_cut_grid_is_pinned_and_small(tmp_path):
    # a two-hemisphere scenario on the 0.25 x 1 deg cut grid: the steering
    # factors are built and contracted one theta block at a time, never
    # whole (the whole pair took 373 MiB of peak RSS)
    out = tmp_path / "sim"
    src = str(Path(htasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["simulate", "--state", "slant45", "--feed", "A7", "--freq", "9.75", "--out", str(out)]
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "htasim.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, maxrss_kib = map(int, launched.stdout.split())
    assert code == 0
    pinned = json.loads(GOLDEN_SHA256.read_text())["simulate_cuts"]
    files = sorted(out.iterdir())
    assert len(files) == 4
    for path in files:
        assert _sha256(path) == pinned[path.name], path.name
    assert maxrss_kib < 100 * 1024
