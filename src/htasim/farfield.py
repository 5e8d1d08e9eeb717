"""Discrete-aperture far-field engine and beam metrics.

`Side` makes every per-side choice: the aperture, the feed image (the
feed itself for the transmit side, its mirror image about the TA plane
for the folded side), the routing output, the cell family and the
compensation law.  The engine illuminates a side's aperture from that
feed image, applies each cell's transmission magnitude and realized
compensation phase, pushes the polarization through the routing stack,
and superposes the element contributions onto a hemisphere grid:

    E(theta, phi) = sum_ij A_ij exp(+j k0 sin(theta) (x_i cos(phi)
                    + y_j sin(phi))) * cos(theta)

accumulated separately for the co-polarized (y) and cross-polarized (x)
components.  The sum separates into two steering factors,
exp(+j k0 x_i u) and exp(+j k0 y_j v), one row per direction.  They
depend only on the key (aperture, k0, theta step, phi step), so a
`Steering` value built once per key serves every beam that radiates from
that aperture at that frequency on that grid.  The factors are held and
contracted in blocks of theta rows.  `steering` and `radiate` split the
blocks into one contiguous theta range per worker; each range runs in a
thread of its own (the calling thread takes the first), runs numpy work
only and writes only its own rows, so the ranges come back together in
theta order.  There is one worker per CPU the process may use, at most
`MAX_WORKERS`, and one only unless the BLAS pool is one thread
(`htasim.SERIAL_BLAS`); n workers hold blocks of `BLOCK_ROWS` // n
rows.  Without a prebuilt value, each range of `radiate` builds its
blocks when it needs them and drops them after, so the live steering
memory is one key, or `BLOCK_ROWS` theta rows over all ranges.  Each
block evaluates one exp table, a row per
(theta, distinct |cos(phi)| or |sin(phi)|), shared by both factors when
the x and y element coordinates are equal, and gathers each direction's
row from it, conjugated where the cosine is negative; within a row exp
runs on the first half of the element columns and the other half holds
the mirrored conjugates.  sin(theta) >= 0 and the element grid is
antisymmetric bit for bit (x_{n-1-i} == -x_i), so this is exact, not an
approximation.
Each direction's element reduction has a fixed shape whatever its block
or thread, so results are bit-identical run to run, whatever the split
or the BLAS thread count, and with or without a prebuilt value.  A
component that is zero over the whole aperture is not contracted; its
pattern is exactly zero.

A field and its pattern carry their aperture; the hemisphere a pattern
covers is its aperture's (`ApertureSpec.hemisphere`, read off the
normal).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import SERIAL_BLAS
from .feed import (
    FeedExcitation,
    FeedPattern,
    default_taper_exponent,
    illumination_grid,
)
from .geometry import ApertureSpec, Point3, SystemLayout, mirror_point
from .polarization import JonesVector, PolarizationState, RoutingPlan, route
from .synthesis import (
    C_MM_PER_NS,
    CellMap,
    PhaseMap,
    bifocal_phase,
    quantize,
    wavenumber,
)
from .unitcell import CurveLibrary, PhaseCurve

#: theta rows of steering factors live at once over all workers: n
#: workers each hold blocks of BLOCK_ROWS // n rows
BLOCK_ROWS = 8
#: the most far-field workers: the count the split was measured at
MAX_WORKERS = 2


class Side(str, Enum):
    """One aperture side of the stack, and the choices that differ by side.

    The value names the side in file names; format it as `.value`, since
    on Python 3.11 an f-string renders a str-valued member as `Side.TA`.
    """

    TA = "ta"
    FTA = "fta"

    def aperture(self, layout: SystemLayout) -> ApertureSpec:
        return layout.ta if self is Side.TA else layout.fta

    def feed_image(self, layout: SystemLayout, feed: Point3) -> Point3:
        """Where the aperture sees the feed: the folded path is unfolded
        by mirroring the feed about the TA plane, which reproduces the
        reflected path length exactly."""
        return feed if self is Side.TA else mirror_point(feed, layout.f)

    def focal_mm(self, layout: SystemLayout) -> float:
        """Distance from the feed plane (or its image) to the aperture."""
        return layout.f if self is Side.TA else layout.F

    def routed(self, plan: RoutingPlan) -> JonesVector:
        """The field the routing stack delivers to this side."""
        return plan.forward if self is Side.TA else plan.backward

    @property
    def cell_kind(self) -> str:
        return "uc1" if self is Side.TA else "uc2"

    def phase_map(self, layout: SystemLayout, k0: float) -> PhaseMap:
        """The side's bifocal compensation law at wavenumber k0: focused
        on the side's images of the virtual feeds, which for the folded
        side lie at the effective focal distance F = 2f + h."""
        images = (self.feed_image(layout, vf) for vf in layout.virtual_feeds)
        return bifocal_phase(self.aperture(layout), *images, 0.0, k0)


@dataclass(frozen=True)
class BlockageMask:
    """Rectangular shadow of the feed board on the folded aperture."""

    width_x_mm: float = 360.0
    width_y_mm: float = 40.0


@dataclass(frozen=True)
class ApertureField:
    """Outgoing (post-cell) field over one aperture: per-element Jones
    components ex, ey as complex (nx, ny) grids."""

    aperture: ApertureSpec
    ex: np.ndarray
    ey: np.ndarray

    def __post_init__(self):
        shape = (self.aperture.nx, self.aperture.ny)
        if self.ex.shape != shape or self.ey.shape != shape:
            raise ValueError("aperture field grids do not match the aperture")
        if not (np.all(np.isfinite(self.ex)) and np.all(np.isfinite(self.ey))):
            raise ValueError("aperture field contains non-finite entries")


@dataclass(frozen=True)
class PatternGrid:
    """Far-field samples over the hemisphere of the radiating aperture.

    theta is measured from the aperture's normal (+z or -z), so theta in
    [0, 90] on either side; phi covers [0, 360) uniformly.
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    e_co: np.ndarray  # (n_theta, n_phi) complex
    e_cross: np.ndarray
    aperture: ApertureSpec
    frequency_ghz: float


@dataclass(frozen=True)
class BeamMetrics:
    peak_theta_deg: float
    peak_phi_deg: float
    directivity_dbi: float
    peak_gain_dbi: float
    sll_db: float
    beamwidth_3db_deg: float
    crosspol_peak_db: float
    aperture_efficiency: float


def illuminate(
    layout: SystemLayout,
    excitation: FeedExcitation,
    side: Side | str,
    cell_map: CellMap,
    curve: PhaseCurve,
    k0: float,
    crosspol_leakage: float = 0.0,
    blockage: BlockageMask | None = None,
    oblique_phase_deg_per_deg: float = 0.0,
) -> ApertureField:
    """Outgoing aperture field on one side of the stack.

    The side's aperture sees the side's feed image (`Side.feed_image`);
    an unknown side name is a ValueError.  Each element multiplies the
    incident field by the routed Jones operator, the cell's transmission
    magnitude and its realized compensation phase.  `crosspol_leakage`
    adds that fraction of the co-polarized output into the orthogonal
    component (an unconverted transmission residue); `blockage` zeroes
    folded-side elements shadowed by the feed board;
    `oblique_phase_deg_per_deg` is a sensitivity hook adding a linear
    cell-phase deviation per degree of incidence (zero by default: the
    cells are insensitive to oblique illumination).
    """
    side = Side(side)
    path_jones = side.routed(route(excitation.state))
    if path_jones.norm_sq == 0.0:
        raise ValueError(f"state {excitation.state.value} does not drive the {side.name} side")
    aperture = side.aperture(layout)
    feed_pos = side.feed_image(layout, excitation.placement.position)

    if cell_map.aperture != aperture:
        raise ValueError("cell map does not belong to the requested side")

    x = aperture.x_centers()
    y = aperture.y_centers()
    # The mirrored feed radiates along -z (its boresight flips with the
    # fold): each side's feed looks along that aperture's normal.
    incident = illumination_grid(
        excitation.pattern, feed_pos, aperture.normal_sign, x, y, aperture.plane_z, k0
    )

    comp_phase = curve.phase_at(cell_map.params_mm, cell_map.rotated)
    if oblique_phase_deg_per_deg != 0.0:
        dx = x[:, None] - feed_pos.x
        dy = y[None, :] - feed_pos.y
        dz = aperture.plane_z - feed_pos.z
        r = np.sqrt(dx * dx + dy * dy + dz * dz)
        incidence_deg = np.degrees(np.arccos(np.clip(abs(dz) / r, -1.0, 1.0)))
        comp_phase = comp_phase + oblique_phase_deg_per_deg * incidence_deg
    mag = 10.0 ** (curve.magnitude_at(cell_map.params_mm) / 20.0)
    cell_factor = mag * np.exp(1j * np.radians(comp_phase))
    amplitude = incident * cell_factor

    if blockage is not None and side is Side.FTA:
        shadow = (np.abs(x)[:, None] <= blockage.width_x_mm / 2.0) & (
            np.abs(y)[None, :] <= blockage.width_y_mm / 2.0
        )
        amplitude = np.where(shadow, 0.0, amplitude)

    ex = amplitude * (path_jones.ex + crosspol_leakage * path_jones.ey)
    ey = amplitude * path_jones.ey
    return ApertureField(aperture=aperture, ex=ex, ey=ey)


def _grid(theta_step_deg: float, phi_step_deg: float):
    """Hemisphere sample angles: theta includes both endpoints of [0, 90],
    phi omits the periodic duplicate at 360."""
    n_theta = _check_step(90.0, theta_step_deg, "theta", 1)
    n_phi = _check_step(360.0, phi_step_deg, "phi", 2)
    return np.arange(n_theta + 1) * theta_step_deg, np.arange(n_phi) * phi_step_deg


def _signed_table(k0: float, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(j k0 w x_i) for every w >= +0 of the (rows, m) array `w`,
    followed by exp(-j k0 w x_i), as a (rows, 2m, elements) array.

    exp is evaluated on the first ceil(n/2) element columns of the first
    m entries only.  The element grid is antisymmetric bit for bit
    (x[n-1-i] == -x[i]) and exp(-jt) == conj(exp(jt)) bit for bit, so
    the other n//2 columns are the mirrored conjugates and the last m
    entries the conjugates of the first; an odd grid's middle column is
    evaluated."""
    n = x.size
    h = n - n // 2
    rows, m = w.shape
    # exp runs in place over a contiguous half: into the table's strided
    # left half it would loop h elements at a time
    half = 1j * k0 * w[:, :, None] * x[:h]
    np.exp(half, out=half)
    out = np.empty((rows, 2 * m, n), complex)
    out[:, :m, :h] = half
    np.conjugate(half[:, :, : n // 2][:, :, ::-1], out=out[:, :m, h:])
    np.conjugate(out[:, :m], out=out[:, m:])
    return out


def _steering_blocks(
    aperture: ApertureSpec, k0: float, theta: np.ndarray, phi: np.ndarray, blocks: list[slice]
):
    """Yield the (pu, pv) steering factors of each slice of theta rows in
    `blocks`: pu is (directions, nx), pv is (directions, ny).

    Entry (d, i) is exp(j k0 w_d x_i) with w = sin(theta) cos(phi) for
    pu and sin(theta) sin(phi) for pv.  sin(theta) >= +0, so
    |w| == sin(theta) |cos(phi)|, and the magnitudes |cos(phi)| and
    |sin(phi)| repeat across the grid: each block evaluates one table
    row per (theta, distinct magnitude), shared by pu and pv when the
    element coordinates are equal, and gathers a direction's row from
    it, conjugated where the cosine is negative.  A direction whose w
    is zero is evaluated from w itself, which keeps its signed zeros.
    """
    x = aperture.x_centers()
    y = aperture.y_centers()
    cos_phi, sin_phi = np.cos(np.radians(phi)), np.sin(np.radians(phi))
    cosines = np.concatenate([cos_phi, sin_phi])
    mags, entry = np.unique(np.abs(cosines), return_inverse=True)
    # a negative cosine reads the conjugate half of the table
    entry += mags.size * np.signbit(cosines)
    shared = np.array_equal(x, y)
    for rows in blocks:
        st = np.sin(np.radians(theta[rows]))[:, None]
        table_x = _signed_table(k0, st * mags, x)
        table_y = table_x if shared else _signed_table(k0, st * mags, y)
        factors = []
        for table, entries, cosine, coord in (
            (table_x, entry[: phi.size], cos_phi, x),
            (table_y, entry[phi.size :], sin_phi, y),
        ):
            factor = np.take(table, entries, axis=1).reshape(-1, coord.size)
            w = (st * cosine).reshape(-1)
            zero = w == 0.0
            factor[zero] = np.exp(1j * k0 * w[zero][:, None] * coord)
            factors.append(factor)
        yield tuple(factors)


def _workers() -> int:
    """The far-field workers: one per CPU this process may run on (its
    affinity), at most MAX_WORKERS, and one unless the BLAS pool is one
    thread."""
    if not SERIAL_BLAS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _theta_blocks(n_theta: int, rows: int | None = None) -> tuple[list[slice], int]:
    """The `n_theta` theta rows in blocks, the last possibly shorter, and
    the workers to share them, so that the workers' blocks hold at most
    BLOCK_ROWS rows at once: blocks of `rows` rows if given (a prebuilt
    value's), else of BLOCK_ROWS // workers."""
    if rows is None:
        workers = min(_workers(), BLOCK_ROWS)
        rows = BLOCK_ROWS // workers
    else:
        workers = max(1, min(_workers(), BLOCK_ROWS // rows))
    return [slice(s, min(s + rows, n_theta)) for s in range(0, n_theta, rows)], workers


def _over_blocks(task, n_blocks: int, workers: int) -> list:
    """[task(r) for r in ranges], where `ranges` split range(n_blocks)
    into at most `workers` contiguous, nonempty ranges, in order.  The
    first range runs on this thread, each other in a thread of its own;
    a task's exception is raised here."""
    n = min(workers, n_blocks)
    ranges = [range(n_blocks * k // n, n_blocks * (k + 1) // n) for k in range(n)]
    if n == 1:
        return [task(ranges[0])]
    # imported on first use: it loads `logging`, which start-up need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n - 1) as pool:
        rest = [pool.submit(task, r) for r in ranges[1:]]
        first = task(ranges[0])
        return [first] + [f.result() for f in rest]


@dataclass(frozen=True, eq=False)
class Steering:
    """The far-field steering factors of one key: `key` is (aperture, k0,
    theta_step_deg, phi_step_deg), `blocks` the (pu, pv) pair of each
    block of theta rows in order; every block but the last has the same
    rows."""

    key: tuple[ApertureSpec, float, float, float]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]


def steering(
    aperture: ApertureSpec, k0: float, theta_step_deg: float, phi_step_deg: float
) -> Steering:
    """Build the steering operator that `radiate` reuses for every field
    over `aperture` at wavenumber `k0` on the given hemisphere grid."""
    theta, phi = _grid(theta_step_deg, phi_step_deg)
    blocks, workers = _theta_blocks(theta.size)

    def build(part: range):
        return list(_steering_blocks(aperture, k0, theta, phi, blocks[part.start : part.stop]))

    parts = _over_blocks(build, len(blocks), workers)
    return Steering(
        key=(aperture, k0, theta_step_deg, phi_step_deg),
        blocks=tuple(block for part in parts for block in part),
    )


def radiate(
    field: ApertureField,
    theta_step_deg: float,
    phi_step_deg: float,
    k0: float,
    steering: Steering | None = None,
) -> PatternGrid:
    """Superpose the aperture field onto a hemisphere grid.

    Steps must divide the 90-degree theta range and the 360-degree phi
    range evenly; theta includes both endpoints, phi omits the periodic
    duplicate at 360.  `steering`, if given, must have been built for
    this field's aperture, `k0` and steps; without it each block of
    steering factors is built here and dropped after use.
    """
    theta, phi = _grid(theta_step_deg, phi_step_deg)
    if not (np.any(field.ex) or np.any(field.ey)):
        raise ValueError("aperture field is identically zero")
    if steering is not None and steering.key != (field.aperture, k0, theta_step_deg, phi_step_deg):
        raise ValueError("steering operator was built for another aperture, k0 or grid")

    e_co = np.zeros((theta.size, phi.size), complex)
    e_cross = np.zeros((theta.size, phi.size), complex)
    # a component that is zero everywhere radiates exact zeros
    lit = [(a, out) for a, out in ((field.ey, e_co), (field.ex, e_cross)) if np.any(a)]
    element_factor = np.cos(np.radians(theta))[:, None]
    if steering is None:
        blocks, workers = _theta_blocks(theta.size)
    else:
        blocks, workers = _theta_blocks(theta.size, len(steering.blocks[0][0]) // phi.size)

    def contract(part: range):
        """Fill the rows of the blocks in `part` in every lit component's
        pattern."""
        mine = blocks[part.start : part.stop]
        if steering is None:
            factors = _steering_blocks(field.aperture, k0, theta, phi, mine)
        else:
            factors = steering.blocks[part.start : part.stop]
        # a range's first block is its largest
        buffer = np.empty((len(theta[mine[0]]) * phi.size, field.aperture.ny), complex)
        for block, (pu, pv) in zip(mine, factors):
            partial = buffer[: pu.shape[0]]  # (directions, ny)
            for a, out in lit:
                # Separable contraction: sum_i sum_j A_ij e^{jk0 x_i u} e^{jk0 y_j v}.
                np.matmul(pu, a, out=partial)
                np.multiply(partial, pv, out=partial)
                out[block] = partial.sum(axis=1).reshape(-1, phi.size) * element_factor[block]

    _over_blocks(contract, len(blocks), workers)
    return PatternGrid(
        theta_deg=theta,
        phi_deg=phi,
        e_co=e_co,
        e_cross=e_cross,
        aperture=field.aperture,
        frequency_ghz=k0 * C_MM_PER_NS / (2.0 * math.pi),
    )


def _check_step(full_range: float, step: float, name: str, least: int) -> int:
    """The number of steps in `full_range`, which must be whole and at
    least `least` (the power integral needs two phi columns)."""
    if step <= 0:
        raise ValueError(f"{name} step must be positive")
    n = full_range / step
    if not (math.isfinite(n) and round(n) >= least and abs(n - round(n)) <= 1e-9):
        raise ValueError(
            f"{name} step {step} does not divide {full_range} evenly into {least} or more steps"
        )
    return int(round(n))


def radiated_power_integral(pattern: PatternGrid) -> float:
    """Hemisphere integral of |E|^2 (both polarizations) with the
    trapezoid-on-sphere rule: trapezoid in theta with sin(theta) weight,
    periodic rectangle rule in phi."""
    intensity = np.abs(pattern.e_co) ** 2 + np.abs(pattern.e_cross) ** 2
    theta_rad = np.radians(pattern.theta_deg)
    d_theta = theta_rad[1] - theta_rad[0]
    weights = np.full(theta_rad.size, d_theta)
    weights[0] = weights[-1] = d_theta / 2.0
    d_phi = math.radians(pattern.phi_deg[1] - pattern.phi_deg[0])
    ring = np.sum(intensity, axis=1) * d_phi
    return float(np.sum(ring * np.sin(theta_rad) * weights))


def directivity(pattern: PatternGrid) -> tuple[np.ndarray, float]:
    """Directivity in dBi over the grid and its peak value.

    D(theta, phi) = 4 pi U / P with U the co-polarized intensity and P the
    hemisphere-integrated total intensity (both polarizations).
    """
    total = radiated_power_integral(pattern)
    if total <= 0.0:
        raise ValueError("pattern carries no power")
    u_co = np.abs(pattern.e_co) ** 2
    with np.errstate(divide="ignore"):
        d_dbi = 10.0 * np.log10(4.0 * math.pi * u_co / total)
    return d_dbi, float(d_dbi.max())


def _nearest_phi_index(phi_deg: np.ndarray, target_deg: float) -> int:
    circ = np.abs((phi_deg - target_deg + 180.0) % 360.0 - 180.0)
    return int(np.argmin(circ))


def principal_cut(pattern: PatternGrid, phi_peak_deg: float):
    """Signed-theta great-circle cut through phi_peak and its antipode.

    Returns (theta_signed_deg, phi_deg, e_co, e_cross) along the cut: the
    negative branch runs along phi_peak + 180 from the horizon inward, the
    positive branch along phi_peak from the axis outward.
    """
    phi = pattern.phi_deg
    i_pos = _nearest_phi_index(phi, phi_peak_deg)
    i_neg = _nearest_phi_index(phi, phi_peak_deg + 180.0)
    n = pattern.theta_deg.size
    rows = np.concatenate([np.arange(n - 1, 0, -1), np.arange(n)])
    cols = np.concatenate([np.full(n - 1, i_neg), np.full(n, i_pos)])
    theta = np.concatenate([-pattern.theta_deg[:0:-1], pattern.theta_deg])
    return theta, phi[cols], pattern.e_co[rows, cols], pattern.e_cross[rows, cols]


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


def _sidelobe_level_db(theta, power, peak_idx) -> float:
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


def extract_metrics(
    pattern: PatternGrid,
    gain_offset_db: float = 0.0,
    reference_aperture_mm2: float | None = None,
) -> BeamMetrics:
    """Scalar beam metrics from a hemisphere pattern.

    The sidelobe level and 3 dB beamwidth are evaluated on the beam-plane
    cut (the great circle through the peak and its antipodal azimuth); the
    main lobe is excluded down to the first local minimum at least 3 dB
    below the peak.  Aperture efficiency references the pattern's aperture
    area unless an explicit reference is passed.
    """
    d_dbi, peak_dbi = directivity(pattern)
    co = np.abs(pattern.e_co) ** 2
    flat_idx = int(np.argmax(co))
    it, ip = np.unravel_index(flat_idx, co.shape)
    peak_theta = float(pattern.theta_deg[it])
    peak_phi = float(pattern.phi_deg[ip])

    theta_cut, _, co_cut, _ = principal_cut(pattern, peak_phi)
    power_cut = np.abs(co_cut) ** 2
    peak_idx = int(np.argmax(power_cut))
    if power_cut[peak_idx] <= 0.0:
        raise ValueError("pattern has no resolvable main lobe")
    sll = _sidelobe_level_db(theta_cut, power_cut, peak_idx)
    bw = _beamwidth_3db_deg(theta_cut, power_cut, peak_idx)

    cross_max = float(np.max(np.abs(pattern.e_cross) ** 2))
    co_max = float(co.max())
    crosspol_db = (
        10.0 * math.log10(cross_max / co_max) if cross_max > 0.0 else -math.inf
    )

    if reference_aperture_mm2 is None:
        reference_aperture_mm2 = pattern.aperture.area_mm2
    lam = C_MM_PER_NS / pattern.frequency_ghz
    d_max = 4.0 * math.pi * reference_aperture_mm2 / lam**2
    efficiency = 10.0 ** (peak_dbi / 10.0) / d_max

    return BeamMetrics(
        peak_theta_deg=peak_theta,
        peak_phi_deg=peak_phi,
        directivity_dbi=peak_dbi,
        peak_gain_dbi=peak_dbi + gain_offset_db,
        sll_db=sll,
        beamwidth_3db_deg=bw,
        crosspol_peak_db=crosspol_db,
        aperture_efficiency=efficiency,
    )


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs of one engine run (sampling, feed model, optional effects)."""

    frequency_ghz: float = 9.75
    theta_step_deg: float = 0.5
    phi_step_deg: float = 2.0
    feed_q: float | None = None  # None -> derived from the layout geometry
    crosspol_leakage: float = 0.0
    blockage: BlockageMask | None = None
    oblique_phase_deg_per_deg: float = 0.0
    gain_offset_db: float = 0.0
    reference_aperture_mm2: float | None = None
    # feeds the transmit-only state may use (the outermost pair would steer
    # beyond the transmit side's scan range)
    ta_feed_ids: tuple[str, ...] = ("A2", "A3", "A4", "A5", "A6")


def feed_pattern_for(layout: SystemLayout, settings: SimulationSettings) -> FeedPattern:
    q = settings.feed_q
    if q is None:
        q = default_taper_exponent(layout.ta.size_x, layout.f)
    return FeedPattern(q=q)


def allowed_feed_ids(
    layout: SystemLayout, state: PolarizationState, settings: SimulationSettings
) -> tuple[str, ...]:
    """Feeds a state may drive: the transmit-only state is restricted to
    the configured inner set, the folded and hybrid states use all feeds."""
    if state is PolarizationState.X:
        return tuple(fid for fid in layout.feed_ids if fid in settings.ta_feed_ids)
    return layout.feed_ids


def synthesize_cell_maps(
    layout: SystemLayout,
    curves: CurveLibrary,
    frequency_ghz: float,
) -> dict[Side, tuple[CellMap, PhaseCurve, PhaseMap]]:
    """Quantized compensation maps for both sides at one frequency."""
    k0 = wavenumber(frequency_ghz)
    out = {}
    for side in Side:
        curve = curves.curve(side.cell_kind, frequency_ghz)
        pm = side.phase_map(layout, k0)
        out[side] = (quantize(pm, curve), curve, pm)
    return out


def active_sides(state: PolarizationState) -> tuple[Side, ...]:
    """The aperture sides a polarization state drives, transmit side first."""
    plan = route(state)
    return tuple(side for side in Side if side.routed(plan).norm_sq > 0.0)


def run_scenario(
    layout: SystemLayout,
    state: PolarizationState,
    feed_id: str,
    settings: SimulationSettings,
    cell_maps: dict[Side, tuple[CellMap, PhaseCurve, PhaseMap]],
    side: Side,
    steering: Steering | None = None,
) -> tuple[PatternGrid, BeamMetrics]:
    """Full illuminate -> radiate -> metrics pipeline for one state/feed
    on one side, which the state must drive.

    `cell_maps` is the output of synthesize_cell_maps at the settings'
    frequency; `steering`, if given, is the side's prebuilt operator at
    that frequency and the settings' grid.
    """
    feed = layout.feed(feed_id)
    legal = allowed_feed_ids(layout, state, settings)
    if feed_id not in legal:
        raise ValueError(
            f"feed {feed_id} is not allowed in state {state.value}; "
            f"allowed feeds: {', '.join(legal)}"
        )
    k0 = wavenumber(settings.frequency_ghz)
    excitation = FeedExcitation(
        placement=feed,
        pattern=feed_pattern_for(layout, settings),
        state=state,
    )
    cm, curve, _ = cell_maps[side]
    field = illuminate(
        layout,
        excitation,
        side,
        cm,
        curve,
        k0,
        crosspol_leakage=settings.crosspol_leakage,
        blockage=settings.blockage,
        oblique_phase_deg_per_deg=settings.oblique_phase_deg_per_deg,
    )
    pattern = radiate(field, settings.theta_step_deg, settings.phi_step_deg, k0, steering)
    metrics = extract_metrics(
        pattern,
        gain_offset_db=settings.gain_offset_db,
        reference_aperture_mm2=settings.reference_aperture_mm2,
    )
    return pattern, metrics
