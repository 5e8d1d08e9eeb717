"""Beam metrics: a beam's figures of merit, read off its pattern once.

`_peak`, `cut` (the great circle through an azimuth and its antipode)
and `_power` (the trapezoid integral) read the hemisphere; `beam_metrics`
computes the figures from theirs, the sidelobe level and beamwidth from
the cut alone.  `extract_metrics` composes them over one intensity pass,
|E_co|^2 and |E_x|^2 squared in place; its `BeamMetrics` keep the cut and
the 0 dB reference, so a cut file needs no hemisphere.  `farfield`'s
`directivity` and `radiated_power_integral` are the oracles they equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import ApertureSpec
from .synthesis import C_MM_PER_NS

#: the metrics use a pattern whose peak |E| lies within 2**(+-this) as it
#: is: its intensities and their hemisphere sums stay normal floats, and a
#: scaled copy would add to the cut grid's peak RSS
MAX_PEAK_EXPONENT = 256


@dataclass(frozen=True)
class PatternGrid:
    """Far-field samples over the hemisphere of the radiating aperture.

    theta is measured from the aperture's normal (+z or -z), so theta in
    [0, 90] on either side; phi covers [0, 360) uniformly.  A stacked
    field's pattern has the field's leading (beams,) shape before the
    grid's; the metrics take one beam's pattern.
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    e_co: np.ndarray  # ([beams,] n_theta, n_phi) complex
    e_cross: np.ndarray
    aperture: ApertureSpec
    frequency_ghz: float


@dataclass(frozen=True)
class Peak:
    """A pattern's co-polar peak: the first sample in flat grid order
    (np.argmax's rule) of the largest |E_co|^2, that intensity, and the
    largest |E_co|, which is its cut file's 0 dB."""

    theta_deg: float
    phi_deg: float
    intensity: float
    e_co_max: float


@dataclass(frozen=True)
class Cut:
    """Signed-theta great-circle cut through an azimuth and its antipode:
    the negative branch runs along phi + 180 from the horizon inward, the
    positive branch along phi from the axis outward."""

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    e_co: np.ndarray
    e_cross: np.ndarray


@dataclass(frozen=True)
class BeamMetrics:
    """A beam's figures of merit, and what its cut file is written from:
    the cut they were read on and the pattern's largest |E_co| (its 0 dB),
    so the file needs no hemisphere."""

    peak_theta_deg: float
    peak_phi_deg: float
    directivity_dbi: float
    peak_gain_dbi: float
    sll_db: float
    beamwidth_3db_deg: float
    crosspol_peak_db: float
    aperture_efficiency: float
    cut: Cut = field(repr=False, compare=False)
    e_co_max: float = field(repr=False, compare=False)

    def figures(self) -> dict[str, float]:
        """The figures of merit by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def _ring_integral(pattern: PatternGrid, rings: np.ndarray) -> float:
    """The trapezoid-on-sphere rule over the per-theta sums of an
    intensity grid: trapezoid in theta with sin(theta) weight, periodic
    rectangle rule in phi."""
    theta_rad = np.radians(pattern.theta_deg)
    d_theta = theta_rad[1] - theta_rad[0]
    weights = np.full(theta_rad.size, d_theta)
    weights[0] = weights[-1] = d_theta / 2.0
    d_phi = math.radians(pattern.phi_deg[1] - pattern.phi_deg[0])
    return float(np.sum(rings * d_phi * np.sin(theta_rad) * weights))


def _directivity_dbi(u_co, total: float):
    return 10.0 * np.log10(4.0 * math.pi * u_co / total)


def _peak(pattern: PatternGrid, co: np.ndarray, e_co_max: float) -> Peak:
    """The peak of the |E_co|^2 grid `co`."""
    it, ip = np.unravel_index(int(np.argmax(co)), co.shape)
    return Peak(
        theta_deg=float(pattern.theta_deg[it]),
        phi_deg=float(pattern.phi_deg[ip]),
        intensity=float(co[it, ip]),
        e_co_max=e_co_max,
    )


def _nearest_phi_index(phi_deg: np.ndarray, target_deg: float) -> int:
    circ = np.abs((phi_deg - target_deg + 180.0) % 360.0 - 180.0)
    return int(np.argmin(circ))


def cut(pattern: PatternGrid, phi_deg: float) -> Cut:
    """The pattern along the great circle through phi_deg and its
    antipode, each read at the circularly nearest phi sample."""
    phi = pattern.phi_deg
    i_pos = _nearest_phi_index(phi, phi_deg)
    i_neg = _nearest_phi_index(phi, phi_deg + 180.0)
    n = pattern.theta_deg.size
    rows = np.concatenate([np.arange(n - 1, 0, -1), np.arange(n)])
    cols = np.concatenate([np.full(n - 1, i_neg), np.full(n, i_pos)])
    return Cut(
        theta_deg=np.concatenate([-pattern.theta_deg[:0:-1], pattern.theta_deg]),
        phi_deg=phi[cols],
        e_co=pattern.e_co[rows, cols],
        e_cross=pattern.e_cross[rows, cols],
    )


def _power(pattern: PatternGrid, co: np.ndarray, cross: np.ndarray) -> float:
    """`radiated_power_integral` from the intensity grids; adds `cross`
    into `co`."""
    co += cross
    return _ring_integral(pattern, np.sum(co, axis=1))


def _main_lobe_bounds(power: np.ndarray, peak_idx: int, peak_power: float):
    """Indices bounding the main lobe on a cut: walk outward from the peak
    to the first local minimum at least 3 dB below the peak."""
    floor = peak_power * 10.0 ** (-3.0 / 10.0)
    lo = peak_idx
    while lo > 0 and not (power[lo - 1] > power[lo] and power[lo] <= floor):
        lo -= 1
    hi = peak_idx
    last = power.size - 1
    while hi < last and not (power[hi + 1] > power[hi] and power[hi] <= floor):
        hi += 1
    return lo, hi


def _sidelobe_level_db(power, peak_idx) -> float:
    lo, hi = _main_lobe_bounds(power, peak_idx, power[peak_idx])
    outside = np.concatenate([power[:lo], power[hi + 1 :]])
    if outside.size == 0 or outside.max() <= 0.0:
        return -math.inf
    return 10.0 * math.log10(outside.max() / power[peak_idx])


def _beamwidth_3db_deg(theta, power, peak_idx) -> float:
    """3 dB width around the peak on the cut, linearly interpolated."""
    half = power[peak_idx] / 2.0

    def _cross(idx_range):
        prev = peak_idx
        for i in idx_range:
            if power[i] < half:
                # linear crossing between prev and i
                t0, t1 = theta[prev], theta[i]
                p0, p1 = power[prev], power[i]
                return t0 + (half - p0) * (t1 - t0) / (p1 - p0)
            prev = i
        return theta[idx_range[-1]] if len(idx_range) else theta[peak_idx]

    left = _cross(range(peak_idx - 1, -1, -1))
    right = _cross(range(peak_idx + 1, power.size))
    return float(abs(right - left))


def beam_metrics(
    top: Peak,
    beam_cut: Cut,
    total_power: float,
    cross_peak: float,
    aperture: ApertureSpec,
    frequency_ghz: float,
    gain_offset_db: float = 0.0,
) -> BeamMetrics:
    """Scalar beam metrics from a pattern's peak, its cut through the
    peak's azimuth, its power and its largest cross-polar intensity.

    The sidelobe level and 3 dB beamwidth are read on the cut alone; the
    main lobe is excluded down to the first local minimum at least 3 dB
    below the cut's peak.  Aperture efficiency references the aperture's
    area.
    """
    if total_power <= 0.0:
        raise ValueError("pattern carries no power")
    power_cut = np.abs(beam_cut.e_co) ** 2
    peak_idx = int(np.argmax(power_cut))
    if power_cut[peak_idx] <= 0.0:
        raise ValueError("pattern has no resolvable main lobe")
    sll = _sidelobe_level_db(power_cut, peak_idx)
    bw = _beamwidth_3db_deg(beam_cut.theta_deg, power_cut, peak_idx)
    # directivity's own expression at the peak intensity alone
    peak_dbi = float(_directivity_dbi(top.intensity, total_power))
    crosspol_db = (
        10.0 * math.log10(cross_peak / top.intensity) if cross_peak > 0.0 else -math.inf
    )
    lam = C_MM_PER_NS / frequency_ghz
    d_max = 4.0 * math.pi * aperture.area_mm2 / lam**2
    return BeamMetrics(
        peak_theta_deg=top.theta_deg,
        peak_phi_deg=top.phi_deg,
        directivity_dbi=peak_dbi,
        peak_gain_dbi=peak_dbi + gain_offset_db,
        sll_db=sll,
        beamwidth_3db_deg=bw,
        crosspol_peak_db=crosspol_db,
        aperture_efficiency=10.0 ** (peak_dbi / 10.0) / d_max,
        cut=beam_cut,
        e_co_max=top.e_co_max,
    )


def extract_metrics(pattern: PatternGrid, gain_offset_db: float = 0.0) -> BeamMetrics:
    """`beam_metrics` of the pattern's peak, its cut through the peak's
    azimuth, its power and its largest cross-polar intensity, read in
    one pass: |E_co| and |E_x| are taken once and squared in place.

    Every metric is a ratio, so a pattern whose peak |E| lies beyond
    2**(+-MAX_PEAK_EXPONENT) is first scaled by a power of two, exactly,
    to a peak in [0.5, 1), and read again: a beam whose intensity would
    underflow or overflow still gets metrics.  The metrics' cut and
    0 dB reference come from the scaled pattern, like the rest.
    """
    co, cross = np.abs(pattern.e_co), np.abs(pattern.e_cross)
    e_co_max = float(co.max())
    e = math.frexp(max(e_co_max, float(cross.max())))[1]
    if abs(e) > MAX_PEAK_EXPONENT:
        del co, cross
        # in two steps: 2.0 ** 1030 alone, for a subnormal peak, overflows
        first, second = 2.0 ** -(e // 2), 2.0 ** -(e - e // 2)
        scaled = [a * first for a in (pattern.e_co, pattern.e_cross)]
        for a in scaled:
            a *= second
        pattern = replace(pattern, e_co=scaled[0], e_cross=scaled[1])
        co, cross = np.abs(pattern.e_co), np.abs(pattern.e_cross)
        e_co_max = float(co.max())
    np.square(co, out=co)
    np.square(cross, out=cross)
    top = _peak(pattern, co, e_co_max)
    cross_peak = float(cross.max())
    return beam_metrics(
        top,
        cut(pattern, top.phi_deg),
        _power(pattern, co, cross),
        cross_peak,
        pattern.aperture,
        pattern.frequency_ghz,
        gain_offset_db,
    )
