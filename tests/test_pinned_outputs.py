"""Byte identity of CLI outputs against digests pinned from earlier code.

The sweep and simulate files are checked against the benchmark's golden
digest list (``bench/golden/sha256.json``, read only), with `REPINNED`
laid over it.  The default sweep and the leakage sweep, whose
cross-polar patterns are the leakage times the co-polar ones on every
row, are checked whole, all 157 files each, in the child runs that also
bound their peak RSS.  Nine `simulate` runs, one feed per state at each
frequency, and one child run pin the 0.25 x 1 degree cut grid, the grid
with the most conjugated steering rows.  `synthesize` runs in process
against digests of its own.
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

#: workload -> {relative path: sha256} for the files whose digests differ
#: from the golden list's on purpose.  The golden list pins the leakage
#: sweep's cross-polar peak as contracted from the cross-polar field on
#: the co-polar peak's row; it is the leakage times the co-polar pattern,
#: so these 30 metrics JSONs print a `crosspol_peak_db` that differs by at
#: most 1.4e-16 relative, and every other field and file is unchanged.
#: This mapping goes when a benchmark change re-pins ``bench/golden`` with
#: ``python3 bench/gate.py --pin``.
REPINNED = {
    "sweep_leakage": {
        "beams/slant45_A1_10.5GHz_fwd_metrics.json":
            "362d6077abc4e25c6f30bb843b688600d83cc880581367fec2a0cb1a4bb4ca06",
        "beams/slant45_A1_9GHz_back_metrics.json":
            "259c5b6fb3b52471a355d3b5596e3bb4f998a3b154300f078e01ccd1ea902b67",
        "beams/slant45_A1_9GHz_fwd_metrics.json":
            "f0ce8051482c11cec579888accbb31f654dd5db3189496717e9e3cfc9e86fd23",
        "beams/slant45_A2_9.75GHz_fwd_metrics.json":
            "8af6f2b64b77dab91ab7df7731391d168378b923783a85ca3b6a3d9a4d9da355",
        "beams/slant45_A3_10.5GHz_back_metrics.json":
            "afe8c6f4d47cc3bde315f5e6b15d4f3ac13906dc12d9fd2d611b32d15d148a29",
        "beams/slant45_A3_10.5GHz_fwd_metrics.json":
            "bb53e8fdfbdd2e549b82d38bec3f8aa0cfda026f3267f8f8ec31c834f99d207b",
        "beams/slant45_A3_9.75GHz_back_metrics.json":
            "5a069d8b21f908da3e51da194ac9e2cc16d90fba0c53cf804e14e9ac15030b1d",
        "beams/slant45_A3_9.75GHz_fwd_metrics.json":
            "cb4337dcbd16aaea7efbb6ffe49a2a2bfe2d499d462be2a57dc20272373ab73e",
        "beams/slant45_A3_9GHz_back_metrics.json":
            "6f64c5c8af296e793b9d72951ddcd3ceb27be6fa9cf66d00bb8b7b96664ba16c",
        "beams/slant45_A3_9GHz_fwd_metrics.json":
            "94f2b55fecd8fd9e4da76e8deaea45abfbd63ed7cbcd3e19821f1f49cfa82e57",
        "beams/slant45_A4_10.5GHz_fwd_metrics.json":
            "9c179856ab216c9a06dd2c7a2c97f436c6c2595dfc0696e916d83ef51a51558c",
        "beams/slant45_A5_10.5GHz_fwd_metrics.json":
            "09481cf89dea73f71c3d41afa51386ea519dfe5b1ae06f86cc6f5b9c8d796fd8",
        "beams/slant45_A5_9.75GHz_back_metrics.json":
            "0e5abe07d8facd9b3ceff0c47835a3b7920b477381be24bebedf00974d1c76c0",
        "beams/slant45_A5_9.75GHz_fwd_metrics.json":
            "3c0887a46d1db215157fc8c83073b62b2cb5d0a0441f90e2e2c5a68bdf2d51cb",
        "beams/slant45_A5_9GHz_back_metrics.json":
            "896fefd1cf5e1f3ef6d28b85df55a187149de598aeca2ab9ce9a9879b87be21a",
        "beams/slant45_A5_9GHz_fwd_metrics.json":
            "f2919d9f49bfb239cdae559dc0264bdd96c47e31fcdbdc750cd633ced36190ab",
        "beams/slant45_A6_9.75GHz_fwd_metrics.json":
            "bd602c30e2fe93fecf043fe1d13fd99b0f15c2cec3adbf91efde62238533f164",
        "beams/slant45_A7_10.5GHz_fwd_metrics.json":
            "bec6f9de349b75984e0c7a6b2cf50c231e3a0af1db500d2a3aeb948e94634a07",
        "beams/slant45_A7_9.75GHz_fwd_metrics.json":
            "4afeeca7ce570ada402e2ac300d61a311f821ccbaf20d759456bfd37818df29e",
        "beams/slant45_A7_9GHz_fwd_metrics.json":
            "f73007482f1d95e057117dd368e3b21b2e7f939202a67cada3c39e8391dcd9a3",
        "beams/x_A2_9GHz_fwd_metrics.json":
            "b4ca9d4b60c3c2e1fdce6adefda3b51104b8b720c6a13b23db93fe93ddfea9ad",
        "beams/x_A5_9.75GHz_fwd_metrics.json":
            "80e56901db225e404bb19680506ddf88c27d703f28e97f5b29c348d3fa0bd3b6",
        "beams/x_A6_9GHz_fwd_metrics.json":
            "8522a246692d22d43afbf0942d4b37e89801a87031e447f0b626e1932c8dbc8c",
        "beams/y_A1_9.75GHz_back_metrics.json":
            "b4f3a40256412e4f84c7ca6df430ae4353ef51e5cdef64911aa7254f3e62948c",
        "beams/y_A3_10.5GHz_back_metrics.json":
            "97bf7be3e673f36e303f2af5d0d2ba40ab8feccc537e681b2ce831c146fc9266",
        "beams/y_A5_10.5GHz_back_metrics.json":
            "9073ae9add0234d6db6337a57c23cbaffacaed2f3a005e6bdb6e1c8366ae50b9",
        "beams/y_A5_9GHz_back_metrics.json":
            "455b4273a0d42b0cde8a737a92e4c8d2788a723ed106697ba25f9349fa1a3b96",
        "beams/y_A6_9.75GHz_back_metrics.json":
            "a27e252c70fca66739a7d85d02a71432feef5b23789b6980a3889678a3af7910",
        "beams/y_A6_9GHz_back_metrics.json":
            "bbca502377a0bb16de6c2382bb02540f917ff5682c42c618682e0b457bc31202",
        "beams/y_A7_9.75GHz_back_metrics.json":
            "dee8cf0e68c275cd8a3a34ec8ff1e3db1306aad2e2b865cf650b0868b06fb2a0",
    },
}


def _pinned(workload: str) -> dict[str, str]:
    """The digests pinned for `workload`: the golden list, `REPINNED` over it."""
    return {**json.loads(GOLDEN_SHA256.read_text())[workload], **REPINNED.get(workload, {})}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_pinned(out: Path, workload: str) -> None:
    """Every file below `out` has the digest pinned for it under
    `workload`, and every pinned file is there."""
    pinned = _pinned(workload)
    written = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    assert sorted(written) == sorted(pinned)
    for name, path in written.items():
        assert _sha256(path) == pinned[name], name


def test_every_repinned_file_moved_from_its_golden_digest():
    # a stale or redundant entry would hide a file the golden list pins
    golden = json.loads(GOLDEN_SHA256.read_text())
    for workload, digests in REPINNED.items():
        for name, digest in digests.items():
            assert name in golden[workload], (workload, name)
            assert digest != golden[workload][name], (workload, name)


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
    pinned = _pinned("simulate_cuts")
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
    pinned = _pinned("simulate_cuts")
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
    # nonzero cross-polar pattern, the leakage times its co-polar one on
    # every row.  The sweep reads about 50 MiB of peak RSS; a product
    # buffer over a side's whole stack of beams took it to 64.0 MiB
    cfg = tmp_path / "leakage.cfg"
    cfg.write_text("crosspol.leakage = 0.05\nblockage.enabled = true\n")
    out = tmp_path / "sweep"
    code, maxrss_kib = _launched(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    _assert_pinned(out, "sweep_leakage")
    assert maxrss_kib < 56 * 1024
