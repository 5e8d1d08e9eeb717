"""Run configuration: flat `key = value` file format and its parser.

The grammar is dependency-free on purpose:

* one `key = value` assignment per line,
* `#` starts a comment (full line or trailing),
* dotted keys group settings (`ta.size_mm`, `sampling.theta_step_deg`),
* list entries are indexed from 0 without gaps (`feeds[0].id`,
  `feeds[0].x_mm`),
* comma-separated values make a list (`frequencies = 9.0, 9.75, 10.5`),
* booleans are `true` / `false` in any case.

The parser yields each dotted key with its value as written (a list for
a comma list), the entries of an indexed key gathered into one list
under its name (`feeds`).  Every accepted key is one row of `KEYS`: the
`RunConfig` attribute it sets (dotted into `layout`, `sim` and
`blockage`), the parser that converts its text and, where one applies,
the rule the value must satisfy.  A one-value key rejects a list or an
empty value; a feed id names files, so it may not hold `/` or NUL.
Defaults live only in the dataclasses those attributes belong to.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .farfield import BlockageMask, SimulationSettings, whole_steps
from .geometry import FeedPlacement, LayoutConfig, Point3
from .synthesis import C_MM_PER_NS

_ASSIGN_RE = re.compile(r"^([A-Za-z0-9_.\[\]]+)\s*=\s*(.*)$")
_INDEX_RE = re.compile(r"^([A-Za-z0-9_]+)\[(\d+)\]\.(.+)$")


class ConfigError(Exception):
    """Unparseable or invalid configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs."""

    layout: LayoutConfig = LayoutConfig()
    sim: SimulationSettings = SimulationSettings()  # metrics-grid engine knobs
    # the design frequency and 0.75 GHz either side
    frequencies_ghz: tuple[float, ...] = (9.0, SimulationSettings.frequency_ghz, 10.5)
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
        blockage = self.blockage if self.blockage_enabled else None
        sim = replace(self.sim, frequency_ghz=frequency_ghz, blockage=blockage)
        if for_cuts:
            sim = replace(sim, theta_step_deg=self.cut_theta_step_deg, phi_step_deg=self.cut_phi_step_deg)
        return sim


def _real(value) -> float:
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _tuple_of(cast):
    """Parser of a one-or-more value list into a tuple."""

    def parse(value) -> tuple:
        values = tuple(cast(v) for v in (value if isinstance(value, list) else [value]))
        if not values:
            raise ValueError("expected one or more values, got none")
        return values

    return parse


def _flag(value) -> bool:
    # the text of a config line, or the bool `--blockage` passes
    if str(value).lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return str(value).lower() == "true"


def _text(value) -> str:
    if not isinstance(value, str) or not value or "\x00" in value:
        raise ValueError(f"expected one non-empty value without a NUL byte, got {value!r}")
    return value


def _feed_id(value) -> str:
    if "/" in _text(value):
        raise ValueError(f"a feed id names files and may not hold '/', got {value!r}")
    return value


_FEED_FIELDS = {"id": _feed_id, "x_mm": _real, "y_mm": _real}


def _feeds(entries) -> tuple[FeedPlacement, ...]:
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f"expected feeds[k].id and feeds[k].x_mm lines, got {entries!r}")
    feeds = []
    for k, entry in enumerate(entries):
        unknown = sorted(set(entry) - set(_FEED_FIELDS))
        if unknown:
            raise ValueError(f"unknown feeds[{k}].* keys: {unknown}")
        if "id" not in entry or "x_mm" not in entry:
            raise ValueError(f"feeds[{k}] needs `id` and `x_mm`")
        fields = {n: _FEED_FIELDS[n](v) for n, v in entry.items()}
        position = Point3(fields["x_mm"], fields.get("y_mm", 0.0), 0.0)
        feeds.append(FeedPlacement(fields["id"], position))
    return tuple(feeds)


class Key(NamedTuple):
    """One config key: the dotted RunConfig attribute it sets, the parser of
    its raw value and the rule the parsed value must satisfy."""

    attr: str
    parse: Callable
    ok: Callable = lambda value: True
    rule: str = ""


_POSITIVE = (lambda v: v > 0.0, "must be > 0")


def _wavelength_squares(frequency_ghz: float) -> bool:
    # the aperture efficiency divides by this square
    try:
        return frequency_ghz > 0.0 and 0.0 < (C_MM_PER_NS / frequency_ghz) ** 2 < math.inf
    except OverflowError:
        return False


_THETA_STEP = (lambda v: whole_steps(90.0, v) is not None, "must divide 90 evenly")
_PHI_STEP = (
    lambda v: whole_steps(360.0, v, 2) is not None, "must divide 360 evenly and be at most 180"
)

KEYS = {
    "f_mm": Key("layout.f_mm", _real),
    "h_mm": Key("layout.h_mm", _real),
    "d_mm": Key("layout.d_mm", _real),
    "ta.size_mm": Key("layout.ta.size_mm", _real),
    "ta.period_mm": Key("layout.ta.period_mm", _real, *_POSITIVE),
    "fta.size_mm": Key("layout.fta.size_mm", _real),
    "fta.period_mm": Key("layout.fta.period_mm", _real, *_POSITIVE),
    "feeds": Key("layout.feeds", _feeds),
    "frequencies": Key(
        "frequencies_ghz", _tuple_of(_real), lambda fs: all(map(_wavelength_squares, fs)),
        "must be positive with a wavelength whose square is a finite, nonzero float",
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
    "gain_offset_db": Key(
        "sim.gain_offset_db", _real, lambda v: v <= 0.0, "is a loss budget and must be <= 0"
    ),
    "curves.uc1_csv": Key("uc1_curve_csv", _text),
    "curves.uc2_csv": Key("uc2_curve_csv", _text),
    "output_dir": Key("output_dir", _text),
}


def parse_config_text(text: str) -> dict:
    """Parse the flat grammar into {dotted key: text as written}: a comma
    list is a list of its non-empty items, and the `name[k].field` lines
    of an indexed key gather into a list of dicts under `name`."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _ASSIGN_RE.match(stripped)
        if m is None:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw_value = m.group(1), m.group(2).strip()
        items = [v.strip() for v in raw_value.split(",") if v.strip()]
        value = items if "," in raw_value else raw_value
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
    """`cfg` with the dotted config keys in `values` (text as written, or
    Python values) set, each converted and checked by its row of KEYS,
    then validated as a whole."""
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
            written = ", ".join(map(str, raw)) if isinstance(raw, list) else raw
            raise ConfigError(f"{key} = {written} {spec.rule}")
        cfg = _set(cfg, spec.attr, value)
    _validate(cfg)
    return cfg


#: most directions a sampling grid may hold; the default cut grid has 129,960
MAX_DIRECTIONS = 10**6
#: most cells an aperture may hold a side: 720 (fta.period_mm = 0.5) fits,
#: while the 24,000 of ta.period_mm = 0.01 would allocate gigabytes
MAX_CELLS_PER_SIDE = 1000


def _validate(cfg: RunConfig):
    """Rules that tie several keys together."""
    # file names and the beam table print a frequency as f"{f:g}"
    labels = [f"{f:g}" for f in cfg.frequencies_ghz]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        listed = ", ".join(str(f) for f in cfg.frequencies_ghz)
        raise ConfigError(f"frequencies = {listed} print alike as {', '.join(clashes)} GHz")
    for prefix, theta, phi in (
        ("sampling.", cfg.sim.theta_step_deg, cfg.sim.phi_step_deg),
        ("sampling.cut_", cfg.cut_theta_step_deg, cfg.cut_phi_step_deg),
    ):
        # the key rules made both steps whole
        directions = (whole_steps(90.0, theta) + 1) * whole_steps(360.0, phi)
        if directions > MAX_DIRECTIONS:
            raise ConfigError(
                f"{prefix}theta_step_deg = {theta:g} and {prefix}phi_step_deg = {phi:g} "
                f"make more than {MAX_DIRECTIONS:,} directions"
            )
    for name, aperture in (("ta", cfg.layout.ta), ("fta", cfg.layout.fta)):
        # the layout rounds size / period to the cells a side
        rounded = aperture.size_mm / aperture.period_mm + 0.5
        sizes = f"{name}.size_mm = {aperture.size_mm:g} and {name}.period_mm = {aperture.period_mm:g}"
        if rounded >= MAX_CELLS_PER_SIDE + 1:
            raise ConfigError(f"{sizes} make more than {MAX_CELLS_PER_SIDE} cells a side")
    configured = {fc.id for fc in cfg.layout.feeds}
    for key, ids in (
        ("feed.active_ids", cfg.feed_active_ids or ()),
        ("ta_feed_ids", cfg.sim.ta_feed_ids),
    ):
        unknown = [i for i in ids if i not in configured]
        if unknown:
            raise ConfigError(f"{key} names feeds that are not configured: {unknown}")
    twice = [i for i in cfg.feed_active_ids or () if cfg.feed_active_ids.count(i) > 1]
    if twice:
        raise ConfigError(f"feed.active_ids names feed {twice[0]} more than once")


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
