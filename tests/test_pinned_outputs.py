"""Byte identity of CLI outputs against digests pinned from earlier code.

The per-beam sweep files are checked against the benchmark's golden
digest list (``bench/golden/sha256.json``, read only); a two-feed subset of
the default sweep keeps the test to a few seconds while still covering
every state, both hemispheres and all three frequencies.
"""

import hashlib
import json
from pathlib import Path

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
