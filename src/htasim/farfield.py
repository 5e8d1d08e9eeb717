"""Discrete-aperture far-field engine; `metrics` reads the patterns it makes.

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
components of a field.  `run_scenario` contracts the co-polarized one
only: every routing path ends at a y-polarizing grid, so the only
cross-polarized field is the rotator's unconverted residue, the leakage
times the co-polarized field element by element, and its pattern is the
leakage times E_co.  The sum separates into two steering factors,
exp(+j k0 x_i u) and exp(+j k0 y_j v), one row per direction.  A field
may stack several beams over one aperture (a side's beams at one
frequency), and `radiate` contracts them all in one pass: it fills each
block of factors once and contracts that block with one beam at a time.
A block is a slice of theta rows.  `radiate` shares the blocks out in
one contiguous run per worker: the calling thread takes the first, each
other runs in a thread of its own, does numpy work only and writes only
its own rows.  There is one worker per CPU the process may use, at most
`MAX_WORKERS`, and one only unless the BLAS pool is one thread
(`htasim.SERIAL_BLAS`); n workers take blocks of `BLOCK_DIRECTIONS` //
(n * phi samples) theta rows, at least one, each filled into one buffer
per worker beside one beam's products, so `BLOCK_DIRECTIONS` directions
are live over all workers, whatever the number of beams.  A block's fill
evaluates one table of exp(j k0 w x_i), one entry per (theta, distinct
|cos(phi)| or |sin(phi)|), shared by both factors when the x and y
element coordinates are equal, and gathers each direction's row from
it by its magnitude alone; a direction whose cosine is negative reads
that entry's conjugate, applied in place on its run of phi samples.
Within an entry cos and sin run on the first half of the element
columns and the other half holds the mirrored conjugates.
sin(theta) >= 0 and the element grid is antisymmetric bit for bit
(x_{n-1-i} == -x_i), so this is exact.  Each direction's element
reduction has a fixed shape in any block, thread or stack, so results
are bit-identical whatever the split, the BLAS thread count or the beams
radiated beside it.  A component that is zero over the whole aperture in
every beam is not contracted; its pattern is exactly zero.

A field and its pattern carry their aperture; the hemisphere a pattern
covers is its aperture's (`ApertureSpec.hemisphere`, read off the
normal).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import SERIAL_BLAS
from .feed import FeedExcitation, FeedPattern, default_taper_exponent, illumination_grid
from .geometry import ApertureSpec, Point3, SystemLayout, mirror_point
from .metrics import BeamMetrics, PatternGrid, _directivity_dbi, _ring_integral, extract_metrics
from .polarization import JonesVector, PolarizationState, RoutingPlan, route
from .synthesis import (
    C_MM_PER_NS,
    CellMap,
    PhaseMap,
    bifocal_phase,
    quantize,
    wavenumber,
)
from .unitcell import DESIGN_FREQUENCY_GHZ, CurveLibrary, PhaseCurve

#: steering directions live at once over all workers: n workers each
#: hold blocks of BLOCK_DIRECTIONS // (n * phi samples) theta rows
BLOCK_DIRECTIONS = 1440
#: the most far-field workers: the count the split was measured at
MAX_WORKERS = 2
#: the theta rows whose |E_co| comes this close, relatively, to a leaky
#: beam's largest are contracted from its own cross-polar field
PEAK_ROW_TOLERANCE = 1e-9


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
    components ex, ey as complex (nx, ny) grids, or (beams, nx, ny)
    stacks of several beams' grids; a non-finite entry or a dark beam
    (zero in both components) is a ValueError."""

    aperture: ApertureSpec
    ex: np.ndarray
    ey: np.ndarray

    def __post_init__(self):
        shape = (self.aperture.nx, self.aperture.ny)
        if self.ex.shape != self.ey.shape or self.ex.shape[-2:] != shape or self.ex.ndim > 3:
            raise ValueError("aperture field grids do not match the aperture")
        if not (np.all(np.isfinite(self.ex)) and np.all(np.isfinite(self.ey))):
            raise ValueError("aperture field contains non-finite entries")
        if not np.all(np.any(self.ex, axis=(-2, -1)) | np.any(self.ey, axis=(-2, -1))):
            raise ValueError("aperture field is identically zero")


def illuminate(
    layout: SystemLayout,
    excitation: FeedExcitation,
    side: Side | str,
    cell_map: CellMap,
    curve: PhaseCurve,
    k0: float,
    crosspol_leakage: float = 0.0,
    blockage: BlockageMask | None = None,
) -> ApertureField:
    """Outgoing aperture field on one side of the stack.

    The side's aperture sees the side's feed image (`Side.feed_image`);
    an unknown side name is a ValueError.  Each element multiplies the
    incident field by the routed Jones operator, the cell's transmission
    magnitude and its realized compensation phase.  `crosspol_leakage`
    adds that fraction of the co-polarized output into the orthogonal
    component (an unconverted transmission residue); `blockage` zeroes
    folded-side elements shadowed by the feed board.  Subnormal parts are
    zeroed in a component whose largest part is 2**-970 or more (`_flushed`).
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
    # fold): each side's feed looks along that aperture's normal.  A feed
    # far off the aperture overflows to NaN, which ApertureField rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        incident = illumination_grid(
            excitation.pattern, feed_pos, aperture.normal_sign, x, y, aperture.plane_z, k0
        )

    comp_phase = curve.phase_at(cell_map.params_mm, cell_map.rotated)
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
    return ApertureField(aperture=aperture, ex=_flushed(ex), ey=_flushed(ey))


def _flushed(a: np.ndarray) -> np.ndarray:
    """`a`, its subnormal real and imaginary parts zeroed in place when its
    largest part is at least 2**52 times the least normal float, so below
    that part's rounding: subnormals slow the contraction manyfold."""
    tiny = np.finfo(float).tiny
    if max(np.abs(a.real).max(), np.abs(a.imag).max()) >= tiny / np.finfo(float).eps:
        a.real[np.abs(a.real) < tiny] = 0.0
        a.imag[np.abs(a.imag) < tiny] = 0.0
    return a


def whole_steps(full_range: float, step: float, least: int = 1) -> int | None:
    """The number of `step`s in `full_range` if it is whole (within 1e-9)
    and at least `least`, else None."""
    n = full_range / step if step > 0 else 0.0
    if math.isfinite(n) and round(n) >= least and abs(n - round(n)) <= 1e-9:
        return round(n)
    return None


def _grid(theta_step_deg: float, phi_step_deg: float):
    """Hemisphere sample angles: theta includes both endpoints of [0, 90],
    phi omits the periodic duplicate at 360; the power integral needs two
    phi columns.  Sample k of n steps is k * range / n, the quotient
    correctly rounded, so a step such as 0.1 gives 40.9, not k * step."""
    counts = []
    for name, full_range, step, least in (
        ("theta", 90.0, theta_step_deg, 1),
        ("phi", 360.0, phi_step_deg, 2),
    ):
        if step <= 0:
            raise ValueError(f"{name} step must be positive")
        n = whole_steps(full_range, step, least)
        if n is None:
            raise ValueError(
                f"{name} step {step} does not divide {full_range} evenly into {least} or more steps"
            )
        counts.append(n)
    return np.arange(counts[0] + 1) * 90.0 / counts[0], np.arange(counts[1]) * 360.0 / counts[1]


def _signed_table(k0: float, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(j k0 w x_i) for every w >= +0 of the (rows, m) array `w`, as a
    (rows, m, elements) array: one entry per distinct magnitude, whose
    conjugate is exp(-j k0 w x_i).

    cos and sin of the real angle k0 w x_i are evaluated into the real
    and imaginary parts of the first ceil(n/2) element columns only.  The
    element grid is antisymmetric bit for bit (x[n-1-i] == -x[i]), and
    cos is even and sin odd bit for bit, so the other n//2 columns are
    the mirrored conjugates; an odd grid's middle column is evaluated."""
    n = x.size
    h = n - n // 2
    rows, m = w.shape
    angle = (k0 * w)[:, :, None] * x[:h]
    out = np.empty((rows, m, n), complex)
    left = out[:, :, :h]
    np.cos(angle, out=left.real)
    np.sin(angle, out=left.imag)
    np.conjugate(left[:, :, : n // 2][:, :, ::-1], out=out[:, :, h:])
    return out


def _negative_runs(cosine: np.ndarray) -> list[slice]:
    """The contiguous runs of `cosine` whose sign bit is set, as slices."""
    edges = np.flatnonzero(np.diff(np.signbit(cosine), prepend=False, append=False))
    return [slice(int(a), int(b)) for a, b in zip(edges[::2], edges[1::2])]


def _steering_fill(aperture: ApertureSpec, k0: float, theta: np.ndarray, phi: np.ndarray):
    """fill(block, pu, pv), which writes the steering factors of the slice
    `block` of theta rows into the C-contiguous pu (directions, nx) and
    pv (directions, ny), one row per direction, theta-major.

    Entry (d, i) is exp(j k0 w_d x_i) with w = sin(theta) cos(phi) for
    pu and sin(theta) sin(phi) for pv.  sin(theta) >= +0, so
    |w| == sin(theta) |cos(phi)|, and the magnitudes |cos(phi)| and
    |sin(phi)| repeat across the grid: each fill evaluates one table
    entry per (theta, distinct magnitude), shared by pu and pv when the
    element coordinates are equal, and gathers each direction's row from
    it; the runs of phi whose cosine is negative are then conjugated in
    place.  A direction whose w is zero is evaluated from w itself, which
    keeps its signed zeros.
    """
    x = aperture.x_centers()
    y = aperture.y_centers()
    cos_phi, sin_phi = np.cos(np.radians(phi)), np.sin(np.radians(phi))
    mags, entry = np.unique(np.abs(np.concatenate([cos_phi, sin_phi])), return_inverse=True)
    # a negative cosine reads its magnitude's conjugate
    runs_u, runs_v = _negative_runs(cos_phi), _negative_runs(sin_phi)
    shared = np.array_equal(x, y)

    def fill(block: slice, pu: np.ndarray, pv: np.ndarray) -> None:
        st = np.sin(np.radians(theta[block]))[:, None]
        table_x = _signed_table(k0, st * mags, x)
        table_y = table_x if shared else _signed_table(k0, st * mags, y)
        for table, entries, runs, cosine, coord, factor in (
            (table_x, entry[: phi.size], runs_u, cos_phi, x, pu),
            (table_y, entry[phi.size :], runs_v, sin_phi, y, pv),
        ):
            rows = factor.reshape(st.size, phi.size, -1)
            # every entry is a valid index; mode "raise" would buffer `out`
            np.take(table, entries, axis=1, out=rows, mode="clip")
            for run in runs:
                np.conjugate(rows[:, run], out=rows[:, run])
            w = (st * cosine).reshape(-1)
            zero = w == 0.0
            factor[zero] = np.exp(1j * k0 * w[zero][:, None] * coord)

    return fill


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


def _over_theta(task, n_theta: int, n_phi: int) -> None:
    """Run task(blocks) once per worker, at most max(BLOCK_DIRECTIONS //
    n_phi, MAX_WORKERS): the runs `blocks` cover range(n_theta) in order,
    in slices of BLOCK_DIRECTIONS // (workers * n_phi) rows, one at least
    and an even share at most, but the last.  The first run goes on this
    thread, each other on its own; a task's exception is raised here.
    """
    workers = min(_workers(), max(BLOCK_DIRECTIONS // n_phi, MAX_WORKERS))
    rows = max(min(BLOCK_DIRECTIONS // (workers * n_phi), -(-n_theta // workers)), 1)
    blocks = [slice(s, min(s + rows, n_theta)) for s in range(0, n_theta, rows)]
    n = min(workers, len(blocks))
    runs = [blocks[len(blocks) * k // n : len(blocks) * (k + 1) // n] for k in range(n)]
    errors = [None] * n

    def run(k: int) -> None:
        try:
            task(runs[k])
        except BaseException as exc:  # raised from the call below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, n)]
    for thread in threads:
        thread.start()
    try:
        task(runs[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _contraction(aperture: ApertureSpec, k0: float, theta: np.ndarray, phi: np.ndarray):
    """contract(blocks, lit), which fills the steering factors of each
    slice of theta rows in `blocks` once and writes those rows of every
    pattern in `lit`: pairs of a sequence of (nx, ny) beam grids and the
    sequence of (theta, phi) patterns they radiate into.  A block is
    contracted with one beam at a time, into one product buffer that
    holds one beam's block."""
    nx, ny = aperture.nx, aperture.ny
    element_factor = np.cos(np.radians(theta))[:, None]
    fill = _steering_fill(aperture, k0, theta, phi)

    def contract(blocks: list[slice], lit) -> None:
        # a run's first block is its largest
        size = (blocks[0].stop - blocks[0].start) * phi.size
        buffers = [np.empty((size, cols), complex) for cols in (nx, ny, ny)]
        for block in blocks:
            n = (block.stop - block.start) * phi.size
            pu, pv, part = (b[:n] for b in buffers)
            fill(block, pu, pv)
            for beams, patterns in lit:
                # Separable contraction: sum_i sum_j A_ij e^{jk0 x_i u} e^{jk0 y_j v},
                # one beam at a time.
                for beam, pattern in zip(beams, patterns):
                    np.matmul(pu, beam, out=part)
                    np.multiply(part, pv, out=part)
                    rows = part.sum(axis=1).reshape(-1, phi.size)
                    pattern[block] = rows * element_factor[block]

    return contract


def radiate(
    field: ApertureField,
    theta_step_deg: float,
    phi_step_deg: float,
    k0: float,
) -> PatternGrid:
    """Superpose the aperture field onto a hemisphere grid.

    Steps must divide the 90-degree theta range and the 360-degree phi
    range evenly; theta includes both endpoints, phi omits the periodic
    duplicate at 360.  Each block of steering factors is filled once,
    into one buffer per worker, and contracted with each beam of a
    stacked field in turn (`_contraction`); no beam of an
    `ApertureField` is dark.
    """
    theta, phi = _grid(theta_step_deg, phi_step_deg)
    nx, ny = field.aperture.nx, field.aperture.ny
    ex, ey = (a.reshape(-1, nx, ny) for a in (field.ex, field.ey))
    beams = ey.shape[0]
    e_co = np.zeros((beams, theta.size, phi.size), complex)
    e_cross = np.zeros((beams, theta.size, phi.size), complex)
    # a component that is zero in every beam radiates exact zeros
    lit = [(a, out) for a, out in ((ey, e_co), (ex, e_cross)) if np.any(a)]
    contract = _contraction(field.aperture, k0, theta, phi)
    _over_theta(lambda blocks: contract(blocks, lit), theta.size, phi.size)
    single = field.ey.ndim == 2  # one beam's grid, not a stack
    return PatternGrid(
        theta_deg=theta,
        phi_deg=phi,
        e_co=e_co[0] if single else e_co,
        e_cross=e_cross[0] if single else e_cross,
        aperture=field.aperture,
        frequency_ghz=k0 * C_MM_PER_NS / (2.0 * math.pi),
    )


def radiated_power_integral(pattern: PatternGrid) -> float:
    """Hemisphere integral of |E|^2 (both polarizations) with the
    trapezoid-on-sphere rule; the oracle of `metrics._power`."""
    intensity = np.abs(pattern.e_co) ** 2 + np.abs(pattern.e_cross) ** 2
    return _ring_integral(pattern, np.sum(intensity, axis=1))


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
        d_dbi = _directivity_dbi(u_co, total)
    return d_dbi, float(d_dbi.max())


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs of one engine run (sampling, feed model, optional effects)."""

    frequency_ghz: float = DESIGN_FREQUENCY_GHZ
    theta_step_deg: float = 0.5
    phi_step_deg: float = 2.0
    feed_q: float | None = None  # None -> derived from the layout geometry
    crosspol_leakage: float = 0.0
    blockage: BlockageMask | None = None
    gain_offset_db: float = 0.0
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


def _contract_peak_rows(
    fields: list[ApertureField], patterns: PatternGrid, e_cross: np.ndarray, k0: float
) -> None:
    """Contract each beam's own cross-polar field on the theta rows where
    its |E_co| comes within PEAK_ROW_TOLERANCE, relatively, of its
    largest, and write those rows into the beam's `e_cross`.

    Elsewhere `e_cross` is leakage * e_co, which the model makes exact
    but which differs from the contraction of `ex` by ulps.  The largest
    |E_x| lies on these rows, so the cross-polar peak keeps the bits of
    the two-component contraction: each direction's reduction has the
    same shape in a one-row block (a matmul of n_phi >= 2 rows) as in
    `radiate`.  Rows are selected on |E_co|, not its square, so a beam
    whose intensity underflows still selects its row.  Delete this step
    once the metrics are printed at a stated precision."""
    contract = _contraction(patterns.aperture, k0, patterns.theta_deg, patterns.phi_deg)
    for fld, e_co, out in zip(fields, patterns.e_co, e_cross):
        co = np.abs(e_co)
        rows = np.flatnonzero(np.any(co >= co.max() * (1.0 - PEAK_ROW_TOLERANCE), axis=1))
        contract([slice(r, r + 1) for r in rows], [([fld.ex], [out])])


def run_scenario(
    layout: SystemLayout,
    beams: list[tuple[PolarizationState, str]],
    settings: SimulationSettings,
    cell_maps: dict[Side, tuple[CellMap, PhaseCurve, PhaseMap]],
    side: Side,
) -> list[tuple[PatternGrid, BeamMetrics] | ValueError]:
    """Full illuminate -> radiate -> metrics pipeline for the (state,
    feed) beams on one side: each comes back in order as its (pattern,
    metrics) or as the ValueError it raised at the feed lookup, the
    legality check, `illuminate` or `extract_metrics`.  The beams that
    illuminate radiate together in one pass (none if none does), so no
    beam fails another.  `cell_maps` is synthesize_cell_maps' output at
    the settings' frequency.

    The pass contracts the co-polarized component alone, with a zero ex.
    At zero leakage the cross-polarized pattern is the pass's exact
    zeros; otherwise it is the leakage times E_co, with the theta rows of
    the co-polar peak contracted from illuminate's own ex
    (`_contract_peak_rows`)."""
    k0 = wavenumber(settings.frequency_ghz)
    cm, curve, _ = cell_maps[side]
    outcomes = []
    for state, feed_id in beams:
        try:
            feed = layout.feed(feed_id)
            legal = allowed_feed_ids(layout, state, settings)
            if feed_id not in legal:
                raise ValueError(
                    f"feed {feed_id} is not allowed in state {state.value}; "
                    f"allowed feeds: {', '.join(legal)}"
                )
            excitation = FeedExcitation(
                placement=feed,
                pattern=feed_pattern_for(layout, settings),
                state=state,
            )
            outcomes.append(
                illuminate(
                    layout,
                    excitation,
                    side,
                    cm,
                    curve,
                    k0,
                    crosspol_leakage=settings.crosspol_leakage,
                    blockage=settings.blockage,
                )
            )
        except ValueError as exc:
            outcomes.append(exc)
    lit = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, ApertureField)]
    if lit:
        ey = np.stack([outcomes[i].ey for i in lit])
        stack = ApertureField(aperture=side.aperture(layout), ex=np.zeros(ey.shape, complex), ey=ey)
        patterns = radiate(stack, settings.theta_step_deg, settings.phi_step_deg, k0)
        cross = patterns.e_cross  # zero: no leakage, no cross-polar field
        if settings.crosspol_leakage != 0.0:
            cross = settings.crosspol_leakage * patterns.e_co
            _contract_peak_rows([outcomes[i] for i in lit], patterns, cross, k0)
        for i, e_co, e_cross in zip(lit, patterns.e_co, cross):
            pattern = replace(patterns, e_co=e_co, e_cross=e_cross)
            try:
                metrics = extract_metrics(pattern, gain_offset_db=settings.gain_offset_db)
                outcomes[i] = (pattern, metrics)
            except ValueError as exc:
                outcomes[i] = exc
    return outcomes
