"""Workload table of the htasim benchmark.

Each workload is a list of CLI invocations (a *pass*).  The benchmark
repeats the pass until its measuring time is used up; the program only
ever sees the generated command-line arguments.

* ``sweep_default`` -- ``htasim sweep`` at the shipped default config:
  78 beams from 6 distinct (aperture, frequency) steering keys, every
  cross-polar field identically zero.  Exercises cross-beam reuse.
* ``sweep_leakage`` -- the same sweep with ``crosspol.leakage = 0.05``
  and the feed-board blockage on: same cost and keys, but no zero
  cross-polar field.  A zero-component skip must show no gain here.
* ``simulate_cuts`` -- seeded ``htasim simulate`` invocations on the
  0.25 x 1 degree cut grid, each a fresh process with one steering key
  per radiate call.  Bypasses cross-beam caching; shows start-up cost and
  the largest steering matrices (peak memory).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

STATES = ("x", "y", "slant45")
FEED_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7")
TA_FEED_IDS = ("A2", "A3", "A4", "A5", "A6")  # transmit-only state
FREQUENCIES_GHZ = (9.0, 9.75, 10.5)

#: simulate invocations drawn per state into one simulate_cuts pass, so
#: every seed gets the same mix of one- and two-aperture scenarios.
SIMULATE_PER_STATE = 2


@dataclass(frozen=True)
class Workload:
    command: str  # htasim subcommand
    config: str | None  # config file relative to ROOT; None = built-in default


WORKLOADS = {
    "sweep_default": Workload("sweep", None),
    "sweep_leakage": Workload("sweep", "bench/configs/leakage.cfg"),
    "simulate_cuts": Workload("simulate", None),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments (after ``htasim``), its output directory
    and, for ``simulate``, the (state, feed_id, frequency_ghz) scenario."""

    argv: tuple[str, ...]
    out_dir: Path
    scenario: tuple[str, str, float] | None = None


def legal_scenarios() -> list[tuple[str, str, float]]:
    """The 57 legal (state, feed_id, frequency_ghz) scenarios at the
    default config: 5 transmit-only feeds, 7 folded, 7 hybrid, 3 bands."""
    return [
        (state, feed_id, freq)
        for state in STATES
        for feed_id in (TA_FEED_IDS if state == "x" else FEED_IDS)
        for freq in FREQUENCIES_GHZ
    ]


def simulate_list(seed: int) -> list[tuple[str, str, float]]:
    """The seed's simulate_cuts scenarios: SIMULATE_PER_STATE per state,
    drawn without replacement, in seeded order."""
    rng = random.Random(seed)
    picks = []
    for state in STATES:
        pool = [s for s in legal_scenarios() if s[0] == state]
        picks.extend(rng.sample(pool, SIMULATE_PER_STATE))
    rng.shuffle(picks)
    return picks


def invocations(name: str, seed: int, out_root: Path) -> list[Invocation]:
    """One pass of workload `name`, writing below `out_root`."""
    workload = WORKLOADS[name]
    common = ()
    if workload.config is not None:
        common = ("--config", str(ROOT / workload.config))
    if workload.command == "sweep":
        return [Invocation(("sweep", *common, "--out", str(out_root)), out_root)]
    runs = []
    for k, (state, feed_id, freq) in enumerate(simulate_list(seed)):
        out = out_root / f"{k:02d}"
        argv = ("simulate", *common, "--state", state, "--feed", feed_id,
                "--freq", f"{freq}", "--out", str(out))
        runs.append(Invocation(argv, out, (state, feed_id, freq)))
    return runs
