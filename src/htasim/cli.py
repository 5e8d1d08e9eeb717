"""Command-line front end.

Subcommands:

* ``validate``   — check that the configured curves realize the configured
                   phase maps (lookup round trips, quantization residual);
                   exit 0 iff all pass.  A layout that does not build is
                   a layout error, as in every command.
* ``synthesize`` — write the compensation phase maps and quantized cell
                   maps for both apertures at the design frequency.
* ``simulate``   — one state/feed/frequency scenario: pattern cut CSV plus
                   metrics JSON for each active hemisphere.
* ``sweep``      — every legal state/feed/frequency combination: beam
                   table CSV plus per-beam artifacts, with scan loss per
                   state/frequency/hemisphere.
* ``report``     — compare a beam table against geometric pointing
                   predictions and the measured reference targets.

Exit codes: 0 success, 1 domain failure (failed check, illegal scenario,
failed sweep rows), 2 usage or configuration failure.  All outputs are
deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import KEYS, ConfigError, RunConfig, default_config, load_config, with_overrides
from .farfield import (
    Side,
    active_sides,
    allowed_feed_ids,
    run_scenario,
    synthesize_cell_maps,
)
from .geometry import DEFAULT_FEEDS, build_layout
from .metrics import BeamMetrics
from .polarization import PolarizationState
from .synthesis import wrap_deg, write_cell_map_csv, write_phase_map_csv
from .unitcell import (
    RESIDUAL_WARN_DEG,
    CurveLibrary,
    builtin_curve_library,
    library_with_csv_overrides,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class CommandError(Exception):
    """Ends a command: `main` prints the message to stderr and exits with
    the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _curves(cfg: RunConfig) -> CurveLibrary:
    if cfg.uc1_curve_csv is None and cfg.uc2_curve_csv is None:
        return builtin_curve_library()
    try:
        return library_with_csv_overrides(uc1_csv=cfg.uc1_curve_csv, uc2_csv=cfg.uc2_curve_csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"curve file unusable: {exc}") from exc


def _prepare(args):
    """The set-up every command shares: the config with the command's flag
    overrides (argparse dests named after config keys, their text as
    given) converted and checked by the same key table, the curve library
    and the layout."""
    overrides = {k: v for k, v in vars(args).items() if k in KEYS and v is not None}
    try:
        cfg = default_config() if args.config is None else load_config(args.config)
        cfg = with_overrides(cfg, overrides)
        curves = _curves(cfg)
    except ConfigError as exc:
        raise CommandError(EXIT_USAGE, f"config error: {exc}") from exc
    try:
        return cfg, curves, build_layout(cfg.layout)
    except ValueError as exc:
        raise CommandError(EXIT_DOMAIN, f"layout error: {exc}") from exc


def _out_dir(path: Path) -> Path:
    """`path`, made if it is missing; called only once a file is written
    into it, so a failed run leaves no empty directory behind."""
    path.mkdir(parents=True, exist_ok=True)
    return path


def _design_frequency(cfg: RunConfig) -> float:
    ordered = sorted(cfg.frequencies_ghz)
    return ordered[len(ordered) // 2]


def _fmt(value: float, nd: int = 4) -> str:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return ""
    return f"{value:.{nd}f}"


def _metrics_dict(state, feed_id, frequency, hemisphere, m: BeamMetrics) -> dict:
    metrics = {
        name: None if isinstance(v, float) and not math.isfinite(v) else v
        for name, v in m.figures().items()
    }
    return {
        "state": state.value,
        "feed_id": feed_id,
        "frequency_ghz": frequency,
        "hemisphere": hemisphere,
        **metrics,
    }


# --- validate ---------------------------------------------------------------


def _run_checks(cfg: RunConfig, curves: CurveLibrary, layout):
    """Yield (name, passed, detail) for every check that the configured
    curves realize the configured phase maps."""
    for side in Side:
        worst = 0.0
        for f in cfg.frequencies_ghz:
            curve = curves.curve(side.cell_kind, f)
            targets = np.arange(64) * (360.0 / 64)
            params, rot = curve.invert(targets)
            realized = curve.phase_at(params, rot)
            err = np.abs(wrap_deg(realized - targets + 180.0) - 180.0)
            worst = max(worst, float(err.max()))
        yield f"curve_roundtrip_{side.value}", worst <= 1e-6, f"max round-trip error {worst:.2e} deg"

    worst = 0.0
    for f in cfg.frequencies_ghz:
        maps = synthesize_cell_maps(layout, curves, f)
        for cm, _, _ in maps.values():
            worst = max(worst, cm.max_residual_deg)
    yield "quantization_residual", worst <= RESIDUAL_WARN_DEG, f"max realized-phase residual {worst:.2e} deg"


def cmd_validate(args) -> int:
    cfg, curves, layout = _prepare(args)
    failed = 0
    try:
        for name, passed, detail in _run_checks(cfg, curves, layout):
            tag = "PASS" if passed else "FAIL"
            print(f"{tag} {name}: {detail}")
            failed += 0 if passed else 1
    except (ValueError, ArithmeticError) as exc:
        # a configuration whose numbers the checks cannot evaluate fails them
        raise CommandError(EXIT_DOMAIN, f"validation failed: {exc}") from exc
    print(f"{'all checks passed' if failed == 0 else f'{failed} check(s) failed'}")
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


# --- synthesize -------------------------------------------------------------


def _cell_maps(layout, curves: CurveLibrary, freq: float):
    """`synthesize_cell_maps`, ending the command when a phase map cannot
    be formed (a non-finite phase)."""
    try:
        return synthesize_cell_maps(layout, curves, freq)
    except ValueError as exc:
        raise CommandError(EXIT_DOMAIN, f"synthesis failed at {freq:g} GHz: {exc}") from exc


def cmd_synthesize(args) -> int:
    cfg, curves, layout = _prepare(args)
    freq = _design_frequency(cfg)
    maps = _cell_maps(layout, curves, freq)
    out = _out_dir(Path(cfg.output_dir))
    for side, (cm, _, pm) in maps.items():
        name = side.value
        write_phase_map_csv(pm, out / f"{name}_phase.csv")
        write_cell_map_csv(pm, cm, out / f"{name}_cells.csv")
        print(
            f"{name}: {pm.aperture.nx}x{pm.aperture.ny} cells at {freq} GHz, "
            f"max residual {cm.max_residual_deg:.2e} deg -> "
            f"{name}_phase.csv, {name}_cells.csv"
        )
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def _emit_beam(out_dir: Path, state, feed_id, freq, aperture, metrics):
    _out_dir(out_dir)
    stem = f"{state.value}_{feed_id}_{freq:g}GHz_{'fwd' if aperture.normal_sign > 0 else 'back'}"
    _write_cut_csv(metrics, out_dir / f"{stem}_cut.csv")
    payload = _metrics_dict(state, feed_id, freq, aperture.hemisphere, metrics)
    (out_dir / f"{stem}_metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    return stem


def _write_cut_csv(metrics: BeamMetrics, path):
    """The beam-plane cut the metrics were read on, signed theta, in dB
    of the co-polar peak."""
    cut, reference = metrics.cut, metrics.e_co_max
    with np.errstate(divide="ignore"):
        co_db = 20.0 * np.log10(np.abs(cut.e_co) / reference)
        cx_db = 20.0 * np.log10(np.abs(cut.e_cross) / reference)
    columns = (cut.theta_deg, cut.phi_deg, co_db, cx_db)
    row = "{:.4f},{:.4f},{:.4f},{:.4f}\n".format
    with open(path, "w", newline="") as fh:
        fh.write("theta_deg,phi_deg,e_co_db,e_cross_db\n")
        fh.writelines([row(*r) for r in zip(*(c.tolist() for c in columns))])


def _simulate_side(layout, beam, settings, cell_maps, side):
    """The aperture and metrics of one side of a `simulate` scenario: what
    it writes, without the hemisphere, which goes when this returns."""
    outcome = run_scenario(layout, [beam], settings, cell_maps, side)[0]
    if isinstance(outcome, ValueError):
        raise outcome
    pattern, metrics = outcome
    return pattern.aperture, metrics


def cmd_simulate(args) -> int:
    cfg, curves, layout = _prepare(args)
    state = PolarizationState(args.state)
    (freq,) = cfg.frequencies_ghz
    settings = cfg.settings(freq, for_cuts=True)
    try:
        cell_maps = synthesize_cell_maps(layout, curves, freq)
        result = [
            _simulate_side(layout, (state, args.feed), settings, cell_maps, side)
            for side in active_sides(state)
        ]
    except ValueError as exc:
        raise CommandError(EXIT_DOMAIN, f"scenario error: {exc}") from exc
    for aperture, metrics in result:
        stem = _emit_beam(Path(cfg.output_dir), state, args.feed, freq, aperture, metrics)
        print(
            f"{stem}: peak ({metrics.peak_theta_deg:.2f}, {metrics.peak_phi_deg:.1f}) deg, "
            f"D {metrics.directivity_dbi:.2f} dBi, SLL {_fmt(metrics.sll_db, 2) or 'n/a'} dB"
        )
    return EXIT_OK


# --- sweep ------------------------------------------------------------------

#: the beam table's metric columns, each with the BeamMetrics figure it shows
_METRIC_COLUMNS = (
    ("peak_theta_deg", "peak_theta_deg"),
    ("peak_phi_deg", "peak_phi_deg"),
    ("directivity_dbi", "directivity_dbi"),
    ("sll_db", "sll_db"),
    ("crosspol_db", "crosspol_peak_db"),
    ("beamwidth_deg", "beamwidth_3db_deg"),
)
BEAM_TABLE_COLUMNS = (
    "state",
    "feed_id",
    "frequency_ghz",
    "hemisphere",
    *(column for column, _ in _METRIC_COLUMNS),
    "scan_loss_db",
    "status",
)


def sweep_rows(cfg: RunConfig, curves: CurveLibrary, layout, out_dir: Path):
    """All legal (state, feed, frequency) beams, scan loss filled in.

    Each frequency's sides run one after the other, and a side's beams
    radiate together in one pass.  Rows come out in deterministic
    (state, feed, frequency, +z before -z) order; a hemisphere that fails
    yields a row with empty metrics and status=failed, and the
    scenario's other hemisphere and the side's other beams still run.
    """
    rows = []
    feed_ids = cfg.feed_active_ids or layout.feed_ids
    for freq in sorted(cfg.frequencies_ghz):
        settings = cfg.settings(freq)
        cell_maps = _cell_maps(layout, curves, freq)
        for side in Side:
            beams = [
                (state, feed_id)
                for state in PolarizationState
                if side in active_sides(state)
                for feed_id in feed_ids
                if feed_id in allowed_feed_ids(layout, state, settings)
            ]
            rows.extend(_sweep_side(layout, settings, cell_maps, side, beams, out_dir))
    states = [state.value for state in PolarizationState]
    # stable: a scenario's +z row was appended before its -z row
    rows.sort(key=lambda r: (states.index(r["state"]), feed_ids.index(r["feed_id"]), r["frequency_ghz"]))
    _fill_scan_loss(rows, layout)
    return rows


def _sweep_side(layout, settings, cell_maps, side, beams, out_dir):
    """Rows of the (state, feed) beams on one side at one frequency, all
    radiated in one `run_scenario` pass: a beam that fails yields a
    failed row with its reason, and every other beam its metrics."""
    results = run_scenario(layout, beams, settings, cell_maps, side)
    freq = settings.frequency_ghz
    hemisphere = side.aperture(layout).hemisphere
    rows = []
    for (state, feed_id), result in zip(beams, results):
        row = {"state": state.value, "feed_id": feed_id, "frequency_ghz": freq, "hemisphere": hemisphere}
        if isinstance(result, ValueError):
            row["status"] = f"failed: {result}"
        else:
            pattern, metrics = result
            _emit_beam(out_dir, state, feed_id, freq, pattern.aperture, metrics)
            # the figures alone: the rows outlive every beam's cut
            row.update(metrics=metrics.figures(), status="ok")
        rows.append(row)
    return rows


def _fill_scan_loss(rows, layout):
    """scan_loss = boresight-feed directivity minus the row's directivity,
    per (state, frequency, hemisphere)."""
    boresight = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        feed = layout.feed(row["feed_id"])
        if feed.position.x == 0.0 and feed.position.y == 0.0:
            key = (row["state"], row["frequency_ghz"], row["hemisphere"])
            boresight[key] = row["metrics"]["directivity_dbi"]
    for row in rows:
        if row["status"] != "ok":
            row["scan_loss_db"] = None
            continue
        key = (row["state"], row["frequency_ghz"], row["hemisphere"])
        ref = boresight.get(key)
        row["scan_loss_db"] = (
            None if ref is None else ref - row["metrics"]["directivity_dbi"]
        )


def write_beam_table(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BEAM_TABLE_COLUMNS)
        for row in rows:
            m = row.get("metrics")
            writer.writerow(
                [
                    row["state"],
                    row["feed_id"],
                    f"{row['frequency_ghz']:g}",
                    row["hemisphere"],
                    *(_fmt(m[name]) if m else "" for _, name in _METRIC_COLUMNS),
                    _fmt(row.get("scan_loss_db")),
                    row["status"],
                ]
            )


def cmd_sweep(args) -> int:
    cfg, curves, layout = _prepare(args)
    out = Path(cfg.output_dir)
    rows = sweep_rows(cfg, curves, layout, out / "beams")
    table_path = _out_dir(out) / "beam_table.csv"
    write_beam_table(rows, table_path)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} beams -> {table_path} ({failed} failed)")
    for state in PolarizationState:
        for hemi in (side.aperture(layout).hemisphere for side in Side):
            losses = [
                r["scan_loss_db"]
                for r in rows
                if r["status"] == "ok"
                and r["state"] == state.value
                and r["hemisphere"] == hemi
                and r["scan_loss_db"] is not None
            ]
            if losses:
                print(f"  {state.value:8s} {hemi}: max scan loss {max(losses):.2f} dB")
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


# --- report -----------------------------------------------------------------


def load_reference_targets() -> dict:
    """Measured beam angles of the reference prototype, by
    (state, feed_id, hemisphere).  Comparison values only, not oracles."""
    targets = {}
    path = resources.files("htasim.data").joinpath("reference_targets.csv")
    with path.open() as fh:
        for row in csv.DictReader(fh):
            key = (row["state"], row["feed_id"], row["hemisphere"])
            targets[key] = float(row["target_theta_deg"])
    return targets


def cmd_report(args) -> int:
    cfg, _, layout = _prepare(args)
    table_path = Path(args.beam_table or Path(cfg.output_dir) / "beam_table.csv")
    try:
        with open(table_path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            rows, header = list(reader), reader.fieldnames or ()
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CommandError(EXIT_USAGE, f"beam table {table_path}: {exc}") from exc
    used = ("state", "feed_id", "frequency_ghz", "hemisphere", "peak_theta_deg", "status")
    missing = [column for column in used if column not in header]
    if missing:
        raise CommandError(EXIT_USAGE, f"beam table lacks columns {missing}: {table_path}")
    targets = load_reference_targets()
    focal_mm = {side.aperture(layout).hemisphere: side.focal_mm(layout) for side in Side}
    tol = max(2.0, cfg.sim.theta_step_deg)
    print(
        f"{'state':8s} {'feed':5s} {'freq':6s} {'hemi':4s} "
        f"{'achieved':>8s} {'geom':>6s} {'d_geo':>6s} {'meas':>6s} {'d_meas':>6s}  note"
    )
    for row in rows:
        if row["status"] != "ok":
            print(f"{row['state']:8s} {row['feed_id']:5s} {row['frequency_ghz']:6s} "
                  f"{row['hemisphere']:4s} {'':>8s} {'':>6s} {'':>6s} {'':>6s} {'':>6s}  {row['status']}")
            continue
        try:
            feed = layout.feed(row["feed_id"])
            ach = float(row["peak_theta_deg"])
            if not math.isfinite(ach):
                raise ValueError(f"peak_theta_deg {row['peak_theta_deg']!r} is not finite")
            if row["hemisphere"] not in focal_mm:
                raise ValueError(f"unknown hemisphere {row['hemisphere']!r}")
        except ValueError as exc:
            raise CommandError(EXIT_USAGE, f"beam table row unusable: {exc}") from exc
        geo = math.degrees(math.atan(abs(feed.position.x) / focal_mm[row["hemisphere"]]))
        d_geo = abs(ach - geo)
        # the prototype measured its feeds where DEFAULT_FEEDS puts them;
        # a feed moved away from its id's position has no measured target
        key = (row["state"], row["feed_id"], row["hemisphere"])
        meas = targets.get(key) if feed in DEFAULT_FEEDS else None
        d_meas = None if meas is None else abs(ach - meas)
        notes = []
        if d_geo > tol:
            notes.append(f"beyond geometric tolerance {tol:g} deg")
        if meas is not None and abs(geo - meas) > 1e-6:
            notes.append("measured reference offset")
        print(
            f"{row['state']:8s} {row['feed_id']:5s} {row['frequency_ghz']:6s} "
            f"{row['hemisphere']:4s} {ach:8.2f} {geo:6.2f} {d_geo:6.2f} "
            f"{meas if meas is not None else float('nan'):6.1f} "
            f"{d_meas if d_meas is not None else float('nan'):6.2f}  {'; '.join(notes)}"
        )
    return EXIT_OK


# --- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htasim",
        description="Bidirectional multibeam hybrid-transmitarray design and analysis",
    )
    parser.add_argument("--version", action="version", version=f"htasim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p, with_out=True):
        p.add_argument("--config", help="path to a key = value config file")
        if with_out:
            p.add_argument("--out", dest="output_dir", help="overrides output_dir")

    p = sub.add_parser("validate", help="run self-consistency checks")
    _common(p, with_out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synthesize", help="write phase and cell maps")
    _common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="run one scenario")
    _common(p)
    p.add_argument("--state", required=True, choices=[s.value for s in PolarizationState])
    p.add_argument("--feed", required=True, help="feed id, e.g. A4")
    p.add_argument("--freq", required=True, dest="frequencies", metavar="GHZ",
                   help="overrides frequencies with one frequency")
    for flag, key in (
        ("--theta-step", "sampling.cut_theta_step_deg"),
        ("--phi-step", "sampling.cut_phi_step_deg"),
        ("--gain-offset-db", "gain_offset_db"),
    ):
        p.add_argument(flag, dest=key, metavar="VALUE", help=f"overrides {key}")
    p.add_argument(
        "--blockage", action="store_const", const=True, dest="blockage.enabled",
        help="overrides blockage.enabled with true",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run every legal state/feed/frequency beam")
    _common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="compare a beam table against predictions")
    _common(p)
    p.add_argument("--beam-table", help="beam table CSV (default <out>/beam_table.csv)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
