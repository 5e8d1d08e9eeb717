"""Beam metrics: a beam's figures of merit, read off its pattern once.

`extract_metrics` reads the peak, the power and the cut in one function,
over one intensity pass: |E_co|^2 and |E_x|^2 squared in place (E_x, the
leakage times E_co, is formed a block of theta rows at a time).  The
peak is read on the hemisphere, the power with the trapezoid rule of
`_ring_integral`, and the sidelobe level and beamwidth on the `cut` (the
great circle through the peak's azimuth and its antipode) alone.  Its
`BeamMetrics` keep the cut and the 0 dB reference, so a cut file needs
no hemisphere.  `farfield`'s `directivity` and `radiated_power_integral`
are the oracles it equals.
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
#: theta rows of E_x formed at once: a block's complex temporary stays a
#: small part of an intensity grid
CROSS_ROWS = 16


@dataclass(frozen=True)
class PatternGrid:
    """Far-field samples over the hemisphere of the radiating aperture.

    theta is measured from the aperture's normal (+z or -z), so theta in
    [0, 90] on either side; phi covers [0, 360) uniformly.  A stacked
    field's pattern has the field's leading (beams,) shape before the
    grid's; the metrics take one beam's pattern.  Its cross-polarized
    pattern is the rotator's leakage times E_co, formed on each read.
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    e_co: np.ndarray  # ([beams,] n_theta, n_phi) complex
    aperture: ApertureSpec
    frequency_ghz: float
    crosspol_leakage: float = 0.0

    @property
    def e_cross(self) -> np.ndarray:
        return self.crosspol_leakage * self.e_co


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
        e_cross=pattern.crosspol_leakage * pattern.e_co[rows, cols],
    )


def _cross_magnitudes(pattern: PatternGrid) -> np.ndarray:
    """|E_x| over the hemisphere, formed CROSS_ROWS theta rows at a time;
    a zero scalar at zero leakage."""
    if pattern.crosspol_leakage == 0.0:
        return np.zeros(())
    out = np.empty(pattern.e_co.shape)
    for start in range(0, out.shape[0], CROSS_ROWS):
        rows = slice(start, start + CROSS_ROWS)
        np.abs(pattern.crosspol_leakage * pattern.e_co[rows], out=out[rows])
    return out


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


def extract_metrics(pattern: PatternGrid, gain_offset_db: float = 0.0) -> BeamMetrics:
    """A beam's figures of merit, read in one pass: |E_co| and |E_x| are
    taken once and squared in place.

    The peak is the first largest |E_co|^2 in flat grid order (np.argmax's
    rule); the power integral adds |E_x|^2 into that grid.  The sidelobe
    level and 3 dB beamwidth are read on the cut through the peak's
    azimuth alone, the main lobe excluded down to the first local minimum
    at least 3 dB below the cut's peak.  Aperture efficiency references
    the aperture's area.

    Every metric is a ratio, so a pattern whose peak |E| lies beyond
    2**(+-MAX_PEAK_EXPONENT) is first scaled by a power of two, exactly,
    to a peak in [0.5, 1), and read again: a beam whose intensity would
    underflow or overflow still gets metrics.  The metrics' cut and
    0 dB reference come from the scaled pattern, like the rest.
    """
    co, cross = np.abs(pattern.e_co), _cross_magnitudes(pattern)
    e_co_max = float(co.max())
    e = math.frexp(max(e_co_max, float(cross.max())))[1]
    if abs(e) > MAX_PEAK_EXPONENT:
        del co, cross
        # in two steps: 2.0 ** 1030 alone, for a subnormal peak, overflows
        first, second = 2.0 ** -(e // 2), 2.0 ** -(e - e // 2)
        scaled = pattern.e_co * first
        scaled *= second
        pattern = replace(pattern, e_co=scaled)
        co, cross = np.abs(pattern.e_co), _cross_magnitudes(pattern)
        e_co_max = float(co.max())
    np.square(co, out=co)
    np.square(cross, out=cross)
    it, ip = np.unravel_index(int(np.argmax(co)), co.shape)
    intensity, cross_peak = float(co[it, ip]), float(cross.max())
    co += cross
    total_power = _ring_integral(pattern, np.sum(co, axis=1))
    if total_power <= 0.0:
        raise ValueError("pattern carries no power")
    peak_phi_deg = float(pattern.phi_deg[ip])
    # the cut holds the peak sample, so its own peak is positive
    beam_cut = cut(pattern, peak_phi_deg)
    power_cut = np.abs(beam_cut.e_co) ** 2
    peak_idx = int(np.argmax(power_cut))
    # directivity's own expression at the peak intensity alone
    peak_dbi = float(_directivity_dbi(intensity, total_power))
    crosspol_db = 10.0 * math.log10(cross_peak / intensity) if cross_peak > 0.0 else -math.inf
    lam = C_MM_PER_NS / pattern.frequency_ghz
    d_max = 4.0 * math.pi * pattern.aperture.area_mm2 / lam**2
    return BeamMetrics(
        peak_theta_deg=float(pattern.theta_deg[it]),
        peak_phi_deg=peak_phi_deg,
        directivity_dbi=peak_dbi,
        peak_gain_dbi=peak_dbi + gain_offset_db,
        sll_db=_sidelobe_level_db(power_cut, peak_idx),
        beamwidth_3db_deg=_beamwidth_3db_deg(beam_cut.theta_deg, power_cut, peak_idx),
        crosspol_peak_db=crosspol_db,
        aperture_efficiency=10.0 ** (peak_dbi / 10.0) / d_max,
        cut=beam_cut,
        e_co_max=e_co_max,
    )
