"""Command-line front end.

Subcommands:

* ``validate``   — run the self-consistency checks on the configured system
                   (focal relations, phase-law identities, lookup round
                   trips, routing, quantization); exit 0 iff all pass.
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
    BeamMetrics,
    HEMISPHERE_BACKWARD,
    HEMISPHERE_FORWARD,
    HEMISPHERES,
    SIDE_FTA,
    SIDE_TA,
    active_sides,
    allowed_feed_ids,
    principal_cut,
    run_scenario,
    steering,
    synthesize_cell_maps,
)
from .geometry import Point3, build_layout, mirror_point, path_length
from .polarization import PolarizationState, route
from .synthesis import (
    bifocal_phase_unwrapped,
    single_focus_phase_unwrapped,
    ScanTarget,
    wavenumber,
    wrap_deg,
    write_cell_map_csv,
    write_phase_map_csv,
)
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


def _prepare(args, with_layout: bool = True):
    """The set-up every command shares: the config with the command's flag
    overrides (argparse dests named after config keys) checked by the same
    key table, the curve library and the layout."""
    overrides = {k: v for k, v in vars(args).items() if k in KEYS and v is not None}
    try:
        cfg = default_config() if args.config is None else load_config(args.config)
        cfg = with_overrides(cfg, overrides)
        curves = _curves(cfg)
    except ConfigError as exc:
        raise CommandError(EXIT_USAGE, f"config error: {exc}") from exc
    if not with_layout:
        return cfg, curves, None
    try:
        return cfg, curves, build_layout(cfg.layout)
    except ValueError as exc:
        raise CommandError(EXIT_DOMAIN, f"layout error: {exc}") from exc


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _design_frequency(cfg: RunConfig) -> float:
    ordered = sorted(cfg.frequencies_ghz)
    return ordered[len(ordered) // 2]


def _fmt(value: float, nd: int = 4) -> str:
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return ""
    return f"{value:.{nd}f}"


def _metrics_dict(state, feed_id, frequency, hemisphere, m: BeamMetrics) -> dict:
    def _num(v):
        return None if (isinstance(v, float) and not math.isfinite(v)) else v

    return {
        "state": state.value,
        "feed_id": feed_id,
        "frequency_ghz": frequency,
        "hemisphere": hemisphere,
        "peak_theta_deg": m.peak_theta_deg,
        "peak_phi_deg": m.peak_phi_deg,
        "directivity_dbi": m.directivity_dbi,
        "peak_gain_dbi": m.peak_gain_dbi,
        "sll_db": _num(m.sll_db),
        "beamwidth_3db_deg": m.beamwidth_3db_deg,
        "crosspol_peak_db": _num(m.crosspol_peak_db),
        "aperture_efficiency": m.aperture_efficiency,
    }


# --- validate ---------------------------------------------------------------


def _run_checks(cfg: RunConfig, curves: CurveLibrary):
    """Yield (name, passed, detail) for every self-consistency check."""
    rng = np.random.default_rng(20240901)

    # layout construction doubles as the focal-relation check
    try:
        layout = build_layout(cfg.layout)
    except ValueError as exc:
        name = "focal_relation" if "focal" in str(exc) else "layout_valid"
        yield name, False, str(exc)
        return
    yield "focal_relation", abs(layout.F - 2 * layout.f - layout.h) == 0.0, (
        f"F = {layout.F}, 2f + h = {2 * layout.f + layout.h}"
    )

    worst = 0.0
    for _ in range(64):
        fx, fy = rng.uniform(-180, 180, 2)
        ex, ey = rng.uniform(-170, 170, 2)
        feed_p = Point3(fx, fy, 0.0)
        elem = Point3(ex, ey, -layout.h)
        m = mirror_point(feed_p, layout.f)
        t = (layout.f - m.z) / (elem.z - m.z)
        spec_pt = Point3(m.x + t * (elem.x - m.x), m.y + t * (elem.y - m.y), layout.f)
        folded = path_length(feed_p, spec_pt) + path_length(spec_pt, elem)
        direct = path_length(m, elem)
        worst = max(worst, abs(folded - direct) / direct)
    yield "folded_path_image", worst < 1e-12, f"max rel dev {worst:.2e}"

    k0 = wavenumber(_design_frequency(cfg))
    vf1, vf2 = layout.virtual_feeds
    closed = bifocal_phase_unwrapped(layout.ta, vf1, vf2, k0)
    theta = 17.0
    m1 = single_focus_phase_unwrapped(layout.ta, vf1, ScanTarget(theta, 180.0), k0)
    m2 = single_focus_phase_unwrapped(layout.ta, vf2, ScanTarget(theta, 0.0), k0)
    rel = np.max(np.abs((m1 + m2) / 2.0 - closed) / np.abs(closed))
    yield "bifocal_mean_equivalence", rel < 1e-9, f"max rel dev {rel:.2e}"

    for kind, label in (("uc1", "curve_roundtrip_ta"), ("uc2", "curve_roundtrip_fta")):
        worst = 0.0
        for f in cfg.frequencies_ghz:
            curve = curves.curve(kind, f)
            targets = np.arange(64) * (360.0 / 64)
            params, rot = curve.invert(targets)
            realized = curve.phase_at(params, rot)
            err = np.abs(wrap_deg(realized - targets + 180.0) - 180.0)
            worst = max(worst, float(err.max()))
        yield label, worst <= 1e-6, f"max round-trip error {worst:.2e} deg"

    ok = True
    detail = []
    for state, fwd, back in (
        (PolarizationState.X, 1.0, 0.0),
        (PolarizationState.Y, 0.0, 1.0),
        (PolarizationState.SLANT45, math.sqrt(0.5), math.sqrt(0.5)),
    ):
        plan = route(state)
        amplitudes = (plan.forward.norm, plan.backward.norm)
        if not all(math.isclose(a, b, abs_tol=1e-12) for a, b in zip(amplitudes, (fwd, back))):
            ok = False
        # every lit path leaves the stack y-polarized
        if plan.forward.ex != 0 or plan.backward.ex != 0:
            ok = False
        detail.append(f"{state.value}:{amplitudes[0]:.3f}/{amplitudes[1]:.3f}")
    yield "routing_table", ok, " ".join(detail)

    worst = 0.0
    for f in cfg.frequencies_ghz:
        maps = synthesize_cell_maps(layout, curves, f)
        for side in ("ta", "fta"):
            worst = max(worst, maps[side][0].max_residual_deg)
    yield "quantization_residual", worst <= RESIDUAL_WARN_DEG, f"max realized-phase residual {worst:.2e} deg"


def cmd_validate(args) -> int:
    # the layout is built by the checks, whose first one reports it
    cfg, curves, _ = _prepare(args, with_layout=False)
    failed = 0
    for name, passed, detail in _run_checks(cfg, curves):
        tag = "PASS" if passed else "FAIL"
        print(f"{tag} {name}: {detail}")
        failed += 0 if passed else 1
    print(f"{'all checks passed' if failed == 0 else f'{failed} check(s) failed'}")
    return EXIT_OK if failed == 0 else EXIT_DOMAIN


# --- synthesize -------------------------------------------------------------


def cmd_synthesize(args) -> int:
    cfg, curves, layout = _prepare(args)
    freq = _design_frequency(cfg)
    out = _out_dir(cfg)
    maps = synthesize_cell_maps(layout, curves, freq)
    try:
        for side, (cm, _, pm) in maps.items():
            write_phase_map_csv(pm, out / f"{side}_phase.csv")
            write_cell_map_csv(pm, cm, out / f"{side}_cells.csv")
            print(
                f"{side}: {pm.aperture.nx}x{pm.aperture.ny} cells at {freq} GHz, "
                f"max residual {cm.max_residual_deg:.2e} deg -> "
                f"{side}_phase.csv, {side}_cells.csv"
            )
    except OSError as exc:
        raise CommandError(EXIT_DOMAIN, f"write failed: {exc.filename}: {exc.strerror}") from exc
    return EXIT_OK


# --- simulate ---------------------------------------------------------------


def _emit_beam(out_dir: Path, state, feed_id, freq, pattern, metrics):
    hemisphere = pattern.hemisphere
    stem = f"{state.value}_{feed_id}_{freq:g}GHz_{'fwd' if hemisphere == HEMISPHERE_FORWARD else 'back'}"
    _write_cut_csv(pattern, metrics.peak_phi_deg, out_dir / f"{stem}_cut.csv")
    payload = _metrics_dict(state, feed_id, freq, hemisphere, metrics)
    (out_dir / f"{stem}_metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    return stem


def _write_cut_csv(pattern, peak_phi_deg, path):
    """Beam-plane cut through the co-polar peak, signed theta, in dB of
    the co-polar peak."""
    theta, phi, co, cross = principal_cut(pattern, peak_phi_deg)
    peak = np.abs(pattern.e_co).max()
    with np.errstate(divide="ignore"):
        co_db = 20.0 * np.log10(np.abs(co) / peak)
        cx_db = 20.0 * np.log10(np.abs(cross) / peak)
    with open(path, "w", newline="") as fh:
        fh.write("theta_deg,phi_deg,e_co_db,e_cross_db\n")
        for row in zip(theta, phi, co_db, cx_db):
            fh.write("{:.4f},{:.4f},{:.4f},{:.4f}\n".format(*row))


def cmd_simulate(args) -> int:
    cfg, curves, layout = _prepare(args)
    state = PolarizationState(args.state)
    freq = args.freq
    if freq not in cfg.frequencies_ghz:
        raise CommandError(
            EXIT_USAGE,
            f"frequency {freq} GHz is not in the configured list {cfg.frequencies_ghz}",
        )
    try:
        result = run_scenario(
            layout, state, args.feed, cfg.settings(freq, for_cuts=True), curves
        )
    except (KeyError, ValueError) as exc:
        raise CommandError(EXIT_DOMAIN, f"scenario error: {exc}") from exc
    out = _out_dir(cfg)
    for item in (result.forward, result.backward):
        if item is None:
            continue
        pattern, metrics = item
        stem = _emit_beam(out, state, args.feed, freq, pattern, metrics)
        print(
            f"{stem}: peak ({metrics.peak_theta_deg:.2f}, {metrics.peak_phi_deg:.1f}) deg, "
            f"D {metrics.directivity_dbi:.2f} dBi, SLL {_fmt(metrics.sll_db, 2) or 'n/a'} dB"
        )
    return EXIT_OK


# --- sweep ------------------------------------------------------------------

BEAM_TABLE_COLUMNS = (
    "state",
    "feed_id",
    "frequency_ghz",
    "hemisphere",
    "peak_theta_deg",
    "peak_phi_deg",
    "directivity_dbi",
    "sll_db",
    "crosspol_db",
    "beamwidth_deg",
    "scan_loss_db",
    "status",
)


def sweep_rows(cfg: RunConfig, curves: CurveLibrary, layout, out_dir: Path | None):
    """All legal (state, feed, frequency) beams, scan loss filled in.

    Each frequency's sides run one after the other, every beam of a side
    on one steering operator, so one operator is live at a time.  Rows
    come out in deterministic (state, feed, frequency, +z before -z)
    order; a hemisphere that fails yields a row with empty metrics and
    status=failed, and the scenario's other hemisphere still runs.
    """
    rows = []
    feed_ids = cfg.feed_active_ids or layout.feed_ids
    for freq in sorted(cfg.frequencies_ghz):
        settings = cfg.settings(freq)
        cell_maps = synthesize_cell_maps(layout, curves, freq)
        for side in (SIDE_TA, SIDE_FTA):
            beams = [
                (state, feed_id)
                for state in PolarizationState
                if side in active_sides(state)
                for feed_id in feed_ids
                if feed_id in allowed_feed_ids(layout, state, settings)
            ]
            rows.extend(_sweep_side(layout, curves, settings, cell_maps, side, beams, out_dir))
    states = [state.value for state in PolarizationState]
    # stable: a scenario's +z row was appended before its -z row
    rows.sort(key=lambda r: (states.index(r["state"]), feed_ids.index(r["feed_id"]), r["frequency_ghz"]))
    _fill_scan_loss(rows, layout)
    return rows


def _sweep_side(layout, curves, settings, cell_maps, side, beams, out_dir):
    """Rows of the (state, feed) beams on one side at one frequency, all
    radiated through one steering operator."""
    if not beams:
        return []
    freq = settings.frequency_ghz
    aperture = layout.ta if side == SIDE_TA else layout.fta
    operator = steering(
        aperture, wavenumber(freq), settings.theta_step_deg, settings.phi_step_deg
    )
    rows = []
    for state, feed_id in beams:
        beam = {
            "state": state.value,
            "feed_id": feed_id,
            "frequency_ghz": freq,
            "hemisphere": HEMISPHERES[side],
        }
        try:
            result = run_scenario(
                layout, state, feed_id, settings, curves, cell_maps, side=side, steering=operator
            )
        except (KeyError, ValueError) as exc:  # partial-failure policy: keep going
            rows.append({**beam, "status": f"failed: {exc}"})
            continue
        pattern, metrics = result.forward if side == SIDE_TA else result.backward
        rows.append({**beam, "metrics": metrics, "status": "ok"})
        if out_dir is not None:
            _emit_beam(out_dir, state, feed_id, freq, pattern, metrics)
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
            boresight[key] = row["metrics"].directivity_dbi
    for row in rows:
        if row["status"] != "ok":
            row["scan_loss_db"] = None
            continue
        key = (row["state"], row["frequency_ghz"], row["hemisphere"])
        ref = boresight.get(key)
        row["scan_loss_db"] = (
            None if ref is None else ref - row["metrics"].directivity_dbi
        )


def write_beam_table(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BEAM_TABLE_COLUMNS)
        for row in rows:
            m = row.get("metrics")
            cells = [
                row["state"],
                row["feed_id"],
                f"{row['frequency_ghz']:g}",
                row["hemisphere"],
                _fmt(m.peak_theta_deg) if m else "",
                _fmt(m.peak_phi_deg) if m else "",
                _fmt(m.directivity_dbi) if m else "",
                _fmt(m.sll_db) if m else "",
                _fmt(m.crosspol_peak_db) if m else "",
                _fmt(m.beamwidth_3db_deg) if m else "",
                _fmt(row.get("scan_loss_db")) if row.get("scan_loss_db") is not None else "",
                row["status"],
            ]
            writer.writerow(cells)


def cmd_sweep(args) -> int:
    cfg, curves, layout = _prepare(args)
    out = Path(cfg.output_dir)
    beams_dir = out / "beams"
    beams_dir.mkdir(parents=True, exist_ok=True)
    rows = sweep_rows(cfg, curves, layout, beams_dir)
    table_path = out / "beam_table.csv"
    write_beam_table(rows, table_path)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} beams -> {table_path} ({failed} failed)")
    for state in PolarizationState:
        for hemi in (HEMISPHERE_FORWARD, HEMISPHERE_BACKWARD):
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
    if not table_path.is_file():
        raise CommandError(EXIT_USAGE, f"beam table not found: {table_path}")
    targets = load_reference_targets()
    tol = max(2.0, cfg.sim.theta_step_deg)
    print(
        f"{'state':8s} {'feed':5s} {'freq':6s} {'hemi':4s} "
        f"{'achieved':>8s} {'geom':>6s} {'d_geo':>6s} {'meas':>6s} {'d_meas':>6s}  note"
    )
    with open(table_path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["status"] != "ok":
                print(f"{row['state']:8s} {row['feed_id']:5s} {row['frequency_ghz']:6s} "
                      f"{row['hemisphere']:4s} {'':>8s} {'':>6s} {'':>6s} {'':>6s} {'':>6s}  {row['status']}")
                continue
            feed = layout.feed(row["feed_id"])
            focal = layout.f if row["hemisphere"] == HEMISPHERE_FORWARD else layout.F
            geo = math.degrees(math.atan(abs(feed.position.x) / focal))
            ach = float(row["peak_theta_deg"])
            d_geo = abs(ach - geo)
            key = (row["state"], row["feed_id"], row["hemisphere"])
            meas = targets.get(key)
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
    p.add_argument("--freq", required=True, type=float, help="frequency in GHz")
    for flag, key in (
        ("--theta-step", "sampling.cut_theta_step_deg"),
        ("--phi-step", "sampling.cut_phi_step_deg"),
        ("--gain-offset-db", "gain_offset_db"),
    ):
        p.add_argument(flag, type=float, dest=key, metavar="VALUE", help=f"overrides {key}")
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


if __name__ == "__main__":
    sys.exit(main())
