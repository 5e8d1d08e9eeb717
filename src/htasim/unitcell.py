"""Parametric scattering models of the two phase-shifting cell families.

The transmit-side cell (UC1) is tuned by a strip length L in
[0.5, 4.6] mm, the folded-side cell (UC2) by a width W in [1.5, 4.0] mm.
Either sweep spans 180 degrees of transmission phase; rotating the
conversion layer of a cell by 90 degrees adds another 180 degrees, so the
pair (parameter, rotated) reaches the full circle.

Curve shapes between the published endpoints are piecewise-linear through
synthetic knots; only the endpoints, the 180-degree span, monotonicity and
the inverse-lookup round trip are load-bearing.  Digitized curves can be
loaded from CSV (`param_mm,phase_deg,mag_db`, strictly increasing
parameter).  Phases are stored unwrapped with the convention that the
design-frequency curve starts at 0 degrees at the minimum parameter; only
phase differences across an aperture matter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

#: Full phase span a single (unrotated) cell sweep must provide.
BASE_SPAN_DEG = 180.0
#: Acceptable deviation of a loaded curve's span from 180 degrees.
SPAN_TOLERANCE_DEG = 10.0
#: Realized-phase residual above which quantization is reported as coarse.
RESIDUAL_WARN_DEG = 5.0
#: Most power a cell may scatter per unit drive: 1 % slack, since digitized
#: magnitude sets routinely overshoot unity.
PASSIVE_POWER = 1.01


@dataclass(frozen=True)
class ScatterCoeffs:
    """Complex scattering coefficients of one cell under plane-wave drive.

    t_co is the co-routed transmission (the polarization-converted wave the
    cell is designed to produce), t_xx the unconverted transmission leak,
    r_yx and r_xx the converted and unconverted reflections.
    """

    t_co: complex
    t_xx: complex
    r_yx: complex
    r_xx: complex

    def __post_init__(self):
        total = (
            abs(self.t_co) ** 2
            + abs(self.t_xx) ** 2
            + abs(self.r_yx) ** 2
            + abs(self.r_xx) ** 2
        )
        if total > PASSIVE_POWER:
            raise ValueError(f"scattering coefficients not passive: power {total}")


def pcr(s: ScatterCoeffs) -> float:
    """Polarization conversion rate: converted transmitted power over all
    scattered power."""
    num = abs(s.t_co) ** 2
    den = num + abs(s.t_xx) ** 2 + abs(s.r_yx) ** 2 + abs(s.r_xx) ** 2
    if den == 0.0:
        raise ValueError("all-zero scattering coefficients")
    return num / den


def uc1_scatter_model(frequency_ghz: float) -> ScatterCoeffs:
    """Default transmit-cell scattering versus frequency.

    Calibrated to the reported band behavior: conversion rate above 0.928
    everywhere in 7..13 GHz, peaking near the 10 GHz band center.  The
    residual power is split evenly over the three parasitic channels.
    """
    p = 0.995 - 0.0072 * (frequency_ghz - 10.0) ** 2
    p = min(max(p, 0.0), 1.0)
    rest = math.sqrt((1.0 - p) / 3.0)
    return ScatterCoeffs(t_co=math.sqrt(p), t_xx=rest, r_yx=rest, r_xx=rest)


class PhaseCurve:
    """Monotone parameter -> (phase, magnitude) model of one cell family."""

    def __init__(self, param_name: str, params_mm, phases_deg, mags_db):
        params = np.asarray(params_mm, dtype=float)
        phases = np.asarray(phases_deg, dtype=float)
        mags = np.asarray(mags_db, dtype=float)
        if params.ndim != 1 or params.size < 2:
            raise ValueError("phase curve needs at least two samples")
        if phases.shape != params.shape or mags.shape != params.shape:
            raise ValueError("phase curve arrays must have matching lengths")
        if not all(np.all(np.isfinite(a)) for a in (params, phases, mags)):
            raise ValueError("curve values must be finite")
        passive_db = 10.0 * math.log10(PASSIVE_POWER)
        if np.any(mags > passive_db):
            raise ValueError(
                f"curve magnitude {mags.max():g} dB is not passive: above {passive_db:.4f} dB"
            )
        if not np.all(np.diff(params) > 0):
            raise ValueError("curve parameter values must be strictly increasing")
        steps = np.diff(phases)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("curve phase must be strictly monotone")
        span = abs(phases[-1] - phases[0])
        if abs(span - BASE_SPAN_DEG) > SPAN_TOLERANCE_DEG:
            raise ValueError(
                f"curve phase span {span:.3f} deg is not {BASE_SPAN_DEG} deg "
                f"within {SPAN_TOLERANCE_DEG} deg"
            )
        self.param_name = param_name
        self.params = params
        self.phases = phases
        self.mags = mags
        # ascending-phase view for inverse interpolation
        if phases[0] <= phases[-1]:
            self._phase_lo = float(phases[0])
            self._asc_phases = phases
            self._asc_params = params
        else:
            self._phase_lo = float(phases[-1])
            self._asc_phases = phases[::-1]
            self._asc_params = params[::-1]

    @property
    def param_range(self) -> tuple[float, float]:
        return float(self.params[0]), float(self.params[-1])

    def _check_param(self, parameter) -> np.ndarray:
        p = np.asarray(parameter, dtype=float)
        lo, hi = self.param_range
        if np.any(p < lo - 1e-12) or np.any(p > hi + 1e-12):
            raise ValueError(
                f"parameter outside the {self.param_name} range [{lo}, {hi}] mm"
            )
        return p

    def phase_at(self, parameter, rotated=False) -> np.ndarray:
        """Interpolated phase in [0, 360); the rotation flag adds 180."""
        p = self._check_param(parameter)
        base = np.interp(p, self.params, self.phases)
        out = np.where(np.asarray(rotated, dtype=bool), base + 180.0, base)
        return np.mod(out, 360.0)

    def magnitude_at(self, parameter) -> np.ndarray:
        """Interpolated transmission magnitude in dB (rotation has no effect)."""
        p = self._check_param(parameter)
        return np.interp(p, self.params, self.mags)

    def invert(self, desired_phase_deg) -> tuple[np.ndarray, np.ndarray]:
        """Parameters and rotation flags realizing the desired phases.

        Total over [0, 360): the base sweep serves the half circle starting
        at the curve's low endpoint, the rotated branch the other half.  A
        curve whose span falls slightly short of 180 degrees clamps inside
        the uncovered gap (residual at most the span deficit).
        """
        d = np.asarray(desired_phase_deg, dtype=float)
        rel = np.mod(d - self._phase_lo, 360.0)  # offset above the low endpoint
        rotated = rel >= BASE_SPAN_DEG
        base_target = self._phase_lo + np.where(rotated, rel - BASE_SPAN_DEG, rel)
        params = np.interp(base_target, self._asc_phases, self._asc_params)
        return params, rotated


# --- built-in curve library -------------------------------------------------

#: Synthetic knots for the transmit cell: L sweep 0.5..4.6 mm, 180 deg span,
#: transmission pinned at 0 dB.
_UC1_KNOTS = (
    (0.5, 0.0, 0.0),
    (1.5, 34.0, 0.0),
    (2.4, 82.0, 0.0),
    (3.5, 139.0, 0.0),
    (4.6, 180.0, 0.0),
)

#: Synthetic knots for the folded cell: W sweep 1.5..4.0 mm, 180 deg span,
#: transmission between -1.1 dB (worst case) and -0.3 dB.
_UC2_KNOTS = (
    (1.5, 0.0, -1.1),
    (2.2, 48.0, -0.6),
    (3.0, 96.0, -0.3),
    (3.6, 143.0, -0.6),
    (4.0, 180.0, -1.1),
)

#: The builtin curves at any frequency share the design-frequency shape,
#: shifted by a constant 40 deg/GHz away from it (the sweeps stay parallel
#: across the band).
_PARALLEL_SHIFT_DEG_PER_GHZ = 40.0
DESIGN_FREQUENCY_GHZ = 9.75


def _build_curve(cell_kind: str, frequency_ghz: float) -> PhaseCurve:
    param_name, knots = _BUILTIN_FAMILIES[cell_kind]
    params, phases, mags = np.array(knots).T
    shift = _PARALLEL_SHIFT_DEG_PER_GHZ * (frequency_ghz - DESIGN_FREQUENCY_GHZ)
    try:
        return PhaseCurve(param_name, params, phases + shift, mags)
    except ValueError as exc:  # from about 1e16 GHz the shift rounds the knots together
        shifted = f"{frequency_ghz:g} GHz, shifted {shift:g} deg from {DESIGN_FREQUENCY_GHZ:g} GHz"
        raise ValueError(f"builtin {cell_kind} curve at {shifted}: {exc}") from exc


_BUILTIN_FAMILIES = {"uc1": ("L", _UC1_KNOTS), "uc2": ("W", _UC2_KNOTS)}


class CurveLibrary:
    """Phase curves of both cell families, looked up by frequency.

    Either source serves every frequency.  A loaded CSV curve is the same
    at each: the sweeps are parallel across the band, so the
    per-frequency constant offset is a global phase the synthesis
    ignores.  A builtin family is built on demand, its design shape
    shifted 40 deg/GHz from DESIGN_FREQUENCY_GHZ.
    """

    def __init__(self, loaded: dict[str, PhaseCurve] | None = None):
        self.loaded = dict(loaded or {})

    def curve(self, cell_kind: str, frequency_ghz: float) -> PhaseCurve:
        if cell_kind in self.loaded:
            return self.loaded[cell_kind]
        return _build_curve(cell_kind, frequency_ghz)


def builtin_curve_library() -> CurveLibrary:
    """Default library: both builtin cell families, at any frequency."""
    return CurveLibrary()


def load_curve_csv(path, param_name: str) -> PhaseCurve:
    """Load a digitized curve from `param_mm,phase_deg,mag_db` CSV."""
    params, phases, mags = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"param_mm", "phase_deg", "mag_db"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: curve CSV must have columns param_mm,phase_deg,mag_db"
            )
        for row in reader:
            params.append(float(row["param_mm"]))
            phases.append(float(row["phase_deg"]))
            mags.append(float(row["mag_db"]))
    return PhaseCurve(param_name, params, phases, mags)


def library_with_csv_overrides(uc1_csv=None, uc2_csv=None) -> CurveLibrary:
    """Built-in library with one or both families replaced by CSV curves,
    each serving every frequency."""
    paths = {"uc1": uc1_csv, "uc2": uc2_csv}
    return CurveLibrary(
        {kind: load_curve_csv(path, _BUILTIN_FAMILIES[kind][0])
         for kind, path in paths.items() if path is not None}
    )
