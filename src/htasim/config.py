"""Run configuration: flat `key = value` file format and its parser.

The grammar is dependency-free on purpose:

* one `key = value` assignment per line,
* `#` starts a comment (full line or trailing),
* dotted keys group settings (`ta.size_mm`, `sampling.theta_step_deg`),
* list entries are indexed from 0 without gaps (`feeds[0].id`,
  `feeds[0].x_mm`),
* comma-separated values make a list (`frequencies = 9.0, 9.75, 10.5`),
* booleans are `true` / `false`.

The parser yields the dotted keys as they are written, with the entries
of an indexed key gathered into one list under its name (`feeds`).
Every accepted key is one row of `KEYS`: the `RunConfig` attribute it
sets (dotted into `layout`, `sim` and `blockage`), its parser and, where
one applies, the rule its value must satisfy.  Defaults live only in the
dataclasses those attributes belong to.  Unknown keys are rejected so
typos fail loudly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .farfield import BlockageMask, SimulationSettings
from .geometry import FeedConfig, LayoutConfig
from .unitcell import CURVE_FREQUENCIES_GHZ, builtin_covered

_ASSIGN_RE = re.compile(r"^([A-Za-z0-9_.\[\]]+)\s*=\s*(.*)$")
_INDEX_RE = re.compile(r"^([A-Za-z0-9_]+)\[(\d+)\]\.(.+)$")


class ConfigError(Exception):
    """Unparseable or invalid configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs."""

    layout: LayoutConfig = LayoutConfig()
    sim: SimulationSettings = SimulationSettings()  # metrics-grid engine knobs
    frequencies_ghz: tuple[float, ...] = CURVE_FREQUENCIES_GHZ
    feed_active_ids: tuple[str, ...] | None = None  # None -> every feed
    cut_theta_step_deg: float = 0.25
    cut_phi_step_deg: float = 1.0
    blockage_enabled: bool = False
    blockage: BlockageMask = BlockageMask()
    uc1_curve_csv: str | None = None  # None -> builtin curves
    uc2_curve_csv: str | None = None
    output_dir: str = "out"

    def settings(self, frequency_ghz: float, for_cuts: bool = False) -> SimulationSettings:
        """Engine settings at one frequency, on the metrics or the cut grid."""
        steps = (
            (self.cut_theta_step_deg, self.cut_phi_step_deg)
            if for_cuts
            else (self.sim.theta_step_deg, self.sim.phi_step_deg)
        )
        return replace(
            self.sim,
            frequency_ghz=frequency_ghz,
            theta_step_deg=steps[0],
            phi_step_deg=steps[1],
            blockage=self.blockage if self.blockage_enabled else None,
        )


def _real(value) -> float:
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _tuple_of(cast):
    """Parser of a one-or-more value list into a tuple."""
    return lambda value: tuple(cast(v) for v in (value if isinstance(value, list) else [value]))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


_FEED_FIELDS = {"id": str, "x_mm": _real, "y_mm": _real}


def _feeds(entries) -> tuple[FeedConfig, ...]:
    feeds = []
    for k, entry in enumerate(entries):
        unknown = sorted(set(entry) - set(_FEED_FIELDS))
        if unknown:
            raise ValueError(f"unknown feeds[{k}].* keys: {unknown}")
        if "id" not in entry or "x_mm" not in entry:
            raise ValueError(f"feeds[{k}] needs `id` and `x_mm`")
        feeds.append(FeedConfig(**{n: _FEED_FIELDS[n](v) for n, v in entry.items()}))
    return tuple(feeds)


def _divides(full: float, least: int = 1):
    """Rule: the step cuts `full` degrees into `least` or more equal steps."""

    def ok(step: float) -> bool:
        n = full / step if step > 0 else 0.0
        return math.isfinite(n) and round(n) >= least and abs(n - round(n)) <= 1e-9

    return ok


class Key(NamedTuple):
    """One config key: the dotted RunConfig attribute it sets, the parser of
    its raw value and the rule the parsed value must satisfy."""

    attr: str
    parse: Callable
    ok: Callable = lambda value: True
    rule: str = ""


_POSITIVE = (lambda v: v > 0.0, "must be > 0")
_THETA_STEP = (_divides(90.0), "must divide 90 evenly")
_PHI_STEP = (_divides(360.0, 2), "must divide 360 evenly and be at most 180")

KEYS = {
    "f_mm": Key("layout.f_mm", _real),
    "h_mm": Key("layout.h_mm", _real),
    "F_mm": Key("layout.F_mm", _real),
    "d_mm": Key("layout.d_mm", _real),
    "ta.size_mm": Key("layout.ta.size_mm", _real),
    "ta.period_mm": Key("layout.ta.period_mm", _real, *_POSITIVE),
    "fta.size_mm": Key("layout.fta.size_mm", _real),
    "fta.period_mm": Key("layout.fta.period_mm", _real, *_POSITIVE),
    "feeds": Key("layout.feeds", _feeds),
    "frequencies": Key(
        "frequencies_ghz", _tuple_of(_real), lambda fs: all(f > 0 for f in fs), "must be positive"
    ),
    "ta_feed_ids": Key("sim.ta_feed_ids", _tuple_of(str)),
    "feed.q": Key("sim.feed_q", _real, *_POSITIVE),
    "feed.active_ids": Key("feed_active_ids", _tuple_of(str)),
    "sampling.theta_step_deg": Key("sim.theta_step_deg", _real, *_THETA_STEP),
    "sampling.phi_step_deg": Key("sim.phi_step_deg", _real, *_PHI_STEP),
    "sampling.cut_theta_step_deg": Key("cut_theta_step_deg", _real, *_THETA_STEP),
    "sampling.cut_phi_step_deg": Key("cut_phi_step_deg", _real, *_PHI_STEP),
    "crosspol.leakage": Key(
        "sim.crosspol_leakage", _real, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"
    ),
    "blockage.enabled": Key("blockage_enabled", _flag),
    "blockage.width_mm": Key("blockage.width_x_mm", _real),
    "blockage.depth_mm": Key("blockage.width_y_mm", _real),
    "oblique.phase_deg_per_deg": Key("sim.oblique_phase_deg_per_deg", _real),
    "gain_offset_db": Key(
        "sim.gain_offset_db", _real, lambda v: v <= 0.0, "is a loss budget and must be <= 0"
    ),
    "reference_aperture_mm2": Key("sim.reference_aperture_mm2", _real, *_POSITIVE),
    "curves.uc1_csv": Key("uc1_curve_csv", str),
    "curves.uc2_csv": Key("uc2_curve_csv", str),
    "output_dir": Key("output_dir", str),
}


def _parse_scalar(raw: str):
    text = raw.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse the flat grammar into {dotted key: value}; the `name[k].field`
    lines of an indexed key gather into a list of dicts under `name`."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _ASSIGN_RE.match(stripped)
        if m is None:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw_value = m.group(1), m.group(2).strip()
        if "," in raw_value:
            value = [_parse_scalar(v) for v in raw_value.split(",") if v.strip()]
        else:
            value = _parse_scalar(raw_value)
        idx_match = _INDEX_RE.match(key)
        if idx_match is None:
            values[key] = value
            continue
        name, idx, field = idx_match.group(1), int(idx_match.group(2)), idx_match.group(3)
        entries = values.setdefault(name, {})
        if not isinstance(entries, dict):
            raise ConfigError(f"line {lineno}: {name} used both ways")
        entries.setdefault(idx, {})[field] = value
    for name, entries in values.items():
        if isinstance(entries, dict):
            missing = min(set(range(len(entries) + 1)) - set(entries))
            if missing < len(entries):
                raise ConfigError(f"{name}[{missing}] is missing: indices must run from 0")
            values[name] = [entries[k] for k in range(len(entries))]
    return values


def _set(obj, attr: str, value):
    """Copy of the frozen dataclass `obj` with dotted attribute `attr` set."""
    head, _, rest = attr.partition(".")
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def with_overrides(cfg: RunConfig, values: dict) -> RunConfig:
    """`cfg` with the dotted config keys in `values` set, each parsed and
    checked by its row of KEYS, then validated as a whole."""
    unknown = sorted(set(values) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown keys: {unknown}")
    for key, raw in values.items():
        spec = KEYS[key]
        try:
            value = spec.parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if not spec.ok(value):
            raise ConfigError(f"{key} = {raw} {spec.rule}")
        cfg = _set(cfg, spec.attr, value)
    if "h_mm" in values and "F_mm" not in values:
        cfg = _set(cfg, "layout.F_mm", None)  # F derives from h
    _validate(cfg)
    return cfg


#: most directions a sampling grid may hold; the default cut grid has 129,960
MAX_DIRECTIONS = 10**6
#: most cells an aperture may hold a side: 720 (fta.period_mm = 0.5) fits,
#: while the 24,000 of ta.period_mm = 0.01 would allocate gigabytes
MAX_CELLS_PER_SIDE = 1000


def _validate(cfg: RunConfig):
    """Rules that tie several keys together."""
    for prefix, theta, phi in (
        ("sampling.", cfg.sim.theta_step_deg, cfg.sim.phi_step_deg),
        ("sampling.cut_", cfg.cut_theta_step_deg, cfg.cut_phi_step_deg),
    ):
        if (round(90.0 / theta) + 1) * round(360.0 / phi) > MAX_DIRECTIONS:
            raise ConfigError(
                f"{prefix}theta_step_deg = {theta:g} and {prefix}phi_step_deg = {phi:g} "
                f"make more than {MAX_DIRECTIONS:,} directions"
            )
    for name, aperture in (("ta", cfg.layout.ta), ("fta", cfg.layout.fta)):
        # the layout rounds size / period to the cells a side
        if aperture.size_mm / aperture.period_mm + 0.5 >= MAX_CELLS_PER_SIDE + 1:
            raise ConfigError(
                f"{name}.size_mm = {aperture.size_mm:g} and {name}.period_mm = "
                f"{aperture.period_mm:g} make more than {MAX_CELLS_PER_SIDE} cells a side"
            )
    configured = {fc.id for fc in cfg.layout.feeds}
    for key, ids in (
        ("feed.active_ids", cfg.feed_active_ids or ()),
        ("ta_feed_ids", cfg.sim.ta_feed_ids),
    ):
        unknown = [i for i in ids if i not in configured]
        if unknown:
            raise ConfigError(f"{key} names feeds that are not configured: {unknown}")
    # a CSV curve serves every frequency; a builtin family only its own
    uncovered = [f for f in cfg.frequencies_ghz if builtin_covered(f) is None]
    for kind, csv_path in (("uc1", cfg.uc1_curve_csv), ("uc2", cfg.uc2_curve_csv)):
        if uncovered and csv_path is None:
            raise ConfigError(
                f"frequencies {uncovered} GHz have no builtin {kind} curve "
                f"(library carries {list(CURVE_FREQUENCIES_GHZ)}); set curves.{kind}_csv"
            )


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc
    return with_overrides(RunConfig(), parse_config_text(text))


def default_config() -> RunConfig:
    return RunConfig()
