import cmath
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import htasim
from htasim import farfield, metrics
from htasim.farfield import (
    ApertureField,
    BlockageMask,
    PatternGrid,
    Side,
    SimulationSettings,
    active_sides,
    allowed_feed_ids,
    directivity,
    extract_metrics,
    feed_pattern_for,
    illuminate,
    radiate,
    radiated_power_integral,
    run_scenario,
    synthesize_cell_maps,
)
from htasim.feed import FeedExcitation, FeedPattern, illumination_grid
from htasim.geometry import (
    ApertureSpec,
    FeedPlacement,
    LayoutConfig,
    Point3,
    build_layout,
    mirror_point,
)
from htasim.metrics import _nearest_phi_index, cut
from htasim.polarization import PolarizationState
from htasim.synthesis import wavenumber

K0 = wavenumber(9.75)


def path_length(a: Point3, b: Point3) -> float:
    """Euclidean distance between two points (mm)."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def _uniform_field(n=16, period=6.0):
    ap = ApertureSpec(
        plane_z=0.0, size_x=n * period, size_y=n * period, period=period, nx=n, ny=n
    )
    return ApertureField(
        aperture=ap,
        ex=np.zeros((n, n), complex),
        ey=np.ones((n, n), complex),
    )


# --- radiate -------------------------------------------------------------


def test_a_field_is_one_grid_or_a_stack_of_grids():
    one = _uniform_field(4)
    for shape in ((3, 4, 4), (1, 4, 4)):
        pat = radiate(replace(one, ex=np.zeros(shape, complex), ey=np.ones(shape, complex)), 30.0, 90.0, K0)
        assert pat.e_co.shape == (shape[0], 4, 4)
    assert radiate(one, 30.0, 90.0, K0).e_co.shape == (4, 4)
    for shape in ((2, 1, 4, 4), (4,), (4, 5), (3, 5, 4)):
        with pytest.raises(ValueError, match="do not match"):
            replace(one, ex=np.zeros(shape, complex), ey=np.ones(shape, complex))


def test_uniform_aperture_peaks_broadside():
    pat = radiate(_uniform_field(), 0.5, 2.0, K0)
    it, ip = np.unravel_index(np.argmax(np.abs(pat.e_co)), pat.e_co.shape)
    assert pat.theta_deg[it] == 0.0


def test_progressive_phase_steers_the_beam():
    # analytic steered-array oracle: closed-form uniform line-source pattern
    # |sin(N psi / 2) / sin(psi / 2)| * cos(theta), psi = k0 P (sin t - sin t0),
    # evaluated on a fine grid, predicts the peak of the engine pattern
    n, period = 40, 6.0
    ap = ApertureSpec(
        plane_z=0.0, size_x=n * period, size_y=n * period, period=period, nx=n, ny=n
    )

    def analytic_peak(theta0_deg):
        t = np.radians(np.arange(0.0, 90.0, 0.01))
        psi = K0 * period * (np.sin(t) - math.sin(math.radians(theta0_deg)))
        num = np.sin(n * psi / 2.0)
        den = np.sin(psi / 2.0)
        af = np.where(np.abs(den) < 1e-12, float(n), num / np.where(den == 0, 1, den))
        return math.degrees(t[int(np.argmax(np.abs(af) * np.cos(t)))])

    for theta0 in (10.0, 25.0, 40.0):
        ramp = np.exp(-1j * K0 * math.sin(math.radians(theta0)) * ap.x_centers())
        ey = np.repeat(ramp[:, None], n, axis=1)
        fld = ApertureField(
            aperture=ap, ex=np.zeros((n, n), complex), ey=ey
        )
        pat = radiate(fld, 0.25, 2.0, K0)
        it, ip = np.unravel_index(np.argmax(np.abs(pat.e_co)), pat.e_co.shape)
        expect = analytic_peak(theta0)
        assert abs(pat.theta_deg[it] - expect) <= 0.125 + 1e-9
        assert pat.phi_deg[ip] == 0.0
        # the steering law itself: element-factor pull stays under half a deg
        assert abs(expect - theta0) < 0.5


def test_single_element_is_cosine_weighted():
    ap = ApertureSpec(plane_z=0.0, size_x=6.0, size_y=6.0, period=6.0, nx=1, ny=1)
    fld = ApertureField(
        aperture=ap,
        ex=np.zeros((1, 1), complex),
        ey=np.ones((1, 1), complex),
    )
    pat = radiate(fld, 4.5, 30.0, K0)
    expect = np.cos(np.radians(pat.theta_deg))[:, None]
    np.testing.assert_allclose(np.abs(pat.e_co), np.broadcast_to(expect, pat.e_co.shape))


def test_brute_force_oracle():
    # independent naive double-loop summation on small random apertures
    rng = np.random.default_rng(17)
    for _ in range(3):
        nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        period = float(rng.uniform(3.0, 12.0))
        ap = ApertureSpec(
            plane_z=0.0,
            size_x=nx * period,
            size_y=ny * period,
            period=period,
            nx=nx,
            ny=ny,
        )
        ex = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
        ey = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
        fld = ApertureField(aperture=ap, ex=ex, ey=ey)
        pat = radiate(fld, 18.0, 60.0, K0)
        x, y = ap.x_centers(), ap.y_centers()
        for it, th in enumerate(pat.theta_deg):
            for ip, ph in enumerate(pat.phi_deg):
                u = math.sin(math.radians(th)) * math.cos(math.radians(ph))
                v = math.sin(math.radians(th)) * math.sin(math.radians(ph))
                for a, got in ((ey, pat.e_co[it, ip]), (ex, pat.e_cross[it, ip])):
                    acc = 0.0 + 0.0j
                    for i in range(nx):
                        for j in range(ny):
                            acc += a[i, j] * cmath.exp(1j * K0 * (x[i] * u + y[j] * v))
                    acc *= math.cos(math.radians(th))
                    assert got == pytest.approx(acc, rel=1e-12, abs=1e-12)


def test_radiate_validates_steps():
    fld = _uniform_field(4)
    with pytest.raises(ValueError, match="divide"):
        radiate(fld, 0.7, 2.0, K0)
    with pytest.raises(ValueError, match="divide"):
        radiate(fld, 0.5, 7.0, K0)
    with pytest.raises(ValueError, match="positive"):
        radiate(fld, -1.0, 2.0, K0)
    # no whole theta step, an infinite count, a single phi column
    for steps in ((1e300, 2.0), (5e-324, 2.0), (0.5, 360.0)):
        with pytest.raises(ValueError, match="divide"):
            radiate(fld, *steps, K0)


@pytest.mark.parametrize("theta_step, phi_step", [(0.1, 0.2), (0.3, 0.3)])
def test_grid_angles_are_exact_quotients(theta_step, phi_step):
    # k * 0.1 is 40.900000000000006 at k = 409; k * 90 / 900 is 40.9
    theta, phi = farfield._grid(theta_step, phi_step)
    for angles, step in ((theta, theta_step), (phi, phi_step)):
        assert angles.tolist() == [round(k * step, 9) for k in range(angles.size)]
    assert (theta.size, phi.size) == (round(90 / theta_step) + 1, round(360 / phi_step))


def test_radiate_rejects_dark_aperture():
    # the field type rejects a beam that is zero in both components, alone
    # or in a stack, so radiate never sees one
    ap = ApertureSpec(plane_z=0.0, size_x=12.0, size_y=12.0, period=6.0, nx=2, ny=2)
    lit = np.ones((2, 2), complex)
    for ex, ey in (
        (np.zeros((2, 2), complex), np.zeros((2, 2), complex)),
        (np.zeros((2, 2, 2), complex), np.stack([lit, np.zeros((2, 2), complex)])),
    ):
        with pytest.raises(ValueError, match="^aperture field is identically zero$"):
            ApertureField(aperture=ap, ex=ex, ey=ey)


def test_radiate_deterministic():
    fld = _uniform_field(10)
    a = radiate(fld, 1.0, 4.0, K0)
    b = radiate(fld, 1.0, 4.0, K0)
    np.testing.assert_array_equal(a.e_co, b.e_co)


def _one_shot(field, theta_step_deg, phi_step_deg, k0):
    """The module docstring's formula over the whole grid in one
    contraction: (e_co, e_cross)."""
    n_theta, n_phi = round(90.0 / theta_step_deg), round(360.0 / phi_step_deg)
    theta = np.arange(n_theta + 1) * 90.0 / n_theta
    phi = np.arange(n_phi) * 360.0 / n_phi
    s = np.sin(np.radians(theta))[:, None]
    u = s * np.cos(np.radians(phi))[None, :]
    v = s * np.sin(np.radians(phi))[None, :]
    x, y = field.aperture.x_centers(), field.aperture.y_centers()
    pu = np.exp(1j * k0 * u.reshape(-1)[:, None] * x[None, :])
    pv = np.exp(1j * k0 * v.reshape(-1)[:, None] * y[None, :])
    cos_theta = np.cos(np.radians(theta))[:, None]
    return tuple(
        np.sum((pu @ a) * pv, axis=1).reshape(u.shape) * cos_theta
        for a in (field.ey, field.ex)
    )


def _hybrid_fields(layout, curves, leakage=0.05):
    """TA and FTA fields of the hybrid state, with a cross-polar residue."""
    maps = synthesize_cell_maps(layout, curves, 9.75)
    exc = FeedExcitation(
        placement=layout.feed("A6"), pattern=FeedPattern(q=5.75), state=PolarizationState.SLANT45
    )
    return [
        illuminate(layout, exc, side, maps[side][0], maps[side][1], K0, crosspol_leakage=leakage)
        for side in ("ta", "fta")
    ]


#: (theta step, phi step).  The sweep grid's 181 rows of 180 directions
#: run in blocks of 8, 4, 2 and 1 rows under 1, 2, 3 and 16 workers (16
#: capped to 8), the last block short, and three or more workers split
#: them unevenly.  A small grid's blocks are each worker's even share of
#: its rows: 31 rows are 16 + 15 or 11 + 11 + 9, 4 rows are fewer blocks
#: than three workers and 10 rows are 4 + 4 + 2.  1440 and 1800 phi
#: samples hold BLOCK_DIRECTIONS or more in one row, so every worker
#: count runs one-row blocks on at most MAX_WORKERS workers.
_SPLIT_GRIDS = [
    (0.5, 2.0), (3.0, 10.0), (30.0, 10.0), (10.0, 20.0), (10.0, 0.25), (30.0, 0.2),
]

#: far-field worker counts: 16 is capped to BLOCK_DIRECTIONS // phi
#: samples, at least MAX_WORKERS, and runs blocks of one row on every
#: grid of more than BLOCK_DIRECTIONS // 16 = 90 phi samples
_SPLIT_WORKERS = (1, 2, 3, 16)


def _split_patterns(fld, theta_step, phi_step):
    """The pattern of `fld` radiated on its own and as the middle beam of
    a stack beside a field with a zero ex and another field, each under
    every count of `_SPLIT_WORKERS`, whatever the host's CPUs."""
    dark_x = replace(fld, ex=np.zeros_like(fld.ex), ey=2.0 * fld.ey)
    swapped = replace(fld, ex=fld.ey, ey=fld.ex)
    stack = [dark_x, fld, swapped]
    stacked = ApertureField(
        aperture=fld.aperture,
        ex=np.stack([f.ex for f in stack]),
        ey=np.stack([f.ey for f in stack]),
    )
    for workers in _SPLIT_WORKERS:
        with mock.patch.object(farfield, "_workers", lambda: workers):
            yield radiate(fld, theta_step, phi_step, K0)
            pat = radiate(stacked, theta_step, phi_step, K0)
            yield replace(pat, e_co=pat.e_co[1], e_cross=pat.e_cross[1])


@pytest.mark.parametrize("theta_step, phi_step", _SPLIT_GRIDS)
def test_blocked_radiate_equals_one_shot_formula(layout, curves, theta_step, phi_step):
    for fld in _hybrid_fields(layout, curves):
        e_co, e_cross = _one_shot(fld, theta_step, phi_step, K0)
        for pat in _split_patterns(fld, theta_step, phi_step):
            assert np.array_equal(pat.e_co, e_co)
            assert np.array_equal(pat.e_cross, e_cross)


@pytest.mark.parametrize("beams", [(), (3,)], ids=["radiate", "radiate_stack"])
def test_a_failing_range_raises_from_the_call(monkeypatch, beams):
    # the calling thread takes the first theta range; the error comes from
    # the second, in a worker thread, and must not be lost or hang the call
    one = _uniform_field(10)
    fld = replace(one, ex=np.broadcast_to(one.ex, beams + one.ex.shape),
                  ey=np.broadcast_to(one.ey, beams + one.ey.shape))
    table = farfield._signed_table
    caller = []

    def failing_table(k0, w, x):
        if threading.current_thread() is not caller[0]:
            raise FloatingPointError("second range failed")
        return table(k0, w, x)

    monkeypatch.setattr(farfield, "_workers", lambda: 2)
    monkeypatch.setattr(farfield, "_signed_table", failing_table)
    raised = []

    def call():
        caller.append(threading.current_thread())
        try:
            radiate(fld, 3.0, 10.0, K0)
        except FloatingPointError as exc:
            raised.append(str(exc))

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert raised == ["second range failed"]


def _traced_peak(call) -> int:
    """The peak of traced allocations, in bytes, while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_many_workers_hold_no_more_steering_rows_than_one(layout, curves):
    # the cut-grid radiate of `simulate`: however many workers, their
    # live blocks hold BLOCK_DIRECTIONS directions, as one worker's do;
    # 16 workers run as BLOCK_DIRECTIONS // 360 = 4 of one row each
    ta, _ = _hybrid_fields(layout, curves)
    peaks = {}
    for workers in (1, 2, 16):
        with mock.patch.object(farfield, "_workers", lambda: workers):
            peaks[workers] = _traced_peak(lambda: radiate(ta, 0.25, 1.0, K0))
    assert max(peaks.values()) < 1.1 * peaks[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_radiate_working_set_is_the_same_on_the_cut_grid(layout, curves, workers):
    # beyond its two output grids, radiate holds BLOCK_DIRECTIONS
    # directions of steering blocks and products on either grid; blocks
    # of a fixed count of theta rows held twice the sweep grid's 5.6 MB
    # on the cut grid's 360 phi samples.  Two workers' peak varies with
    # how their transients overlap, so the sweep grid's is one worker's
    ta, _ = _hybrid_fields(layout, curves)
    beyond = {}
    for steps, grid, n in (((0.5, 2.0), (181, 180), 1), ((0.25, 1.0), (361, 360), workers)):
        outputs = 2 * grid[0] * grid[1] * np.dtype(complex).itemsize
        with mock.patch.object(farfield, "_workers", lambda: n):
            beyond[steps] = _traced_peak(lambda: radiate(ta, *steps, K0)) - outputs
    assert beyond[(0.25, 1.0)] <= 1.1 * beyond[(0.5, 2.0)]


def test_radiate_holds_one_positive_magnitude_table(layout, curves):
    # beyond its two output grids, one worker holds three block buffers of
    # BLOCK_DIRECTIONS rows and one steering table of its block's theta
    # rows, an entry per distinct |cos(phi)| or |sin(phi)|.  The slack is
    # half a table, for the real angle grid (a quarter) and small
    # transients, and 256 KiB for numpy's buffers on the strided writes.
    # A table that also held each entry's conjugate read 5.3 MB here,
    # 0.8 MB over the bound
    ta, _ = _hybrid_fields(layout, curves)
    phi = np.arange(180) * 2.0
    mags = np.unique(np.abs(np.concatenate([np.cos(np.radians(phi)), np.sin(np.radians(phi))])))
    nx, item = ta.aperture.nx, np.dtype(complex).itemsize
    buffers = 3 * farfield.BLOCK_DIRECTIONS * nx * item
    table = farfield.BLOCK_DIRECTIONS // phi.size * mags.size * nx * item
    outputs = 2 * 181 * phi.size * item
    with mock.patch.object(farfield, "_workers", lambda: 1):
        beyond = _traced_peak(lambda: radiate(ta, 0.5, 2.0, K0)) - outputs
    assert beyond <= buffers + table + table // 2 + 256 * 1024


def test_radiate_working_set_does_not_grow_with_the_stack(layout, curves):
    # beyond its two output stacks, radiate holds the workers' steering
    # blocks and one beam's products, whatever the number of beams; a
    # (directions, beams * ny) product per worker grew it 10 MB here
    ta, _ = _hybrid_fields(layout, curves)
    beyond = {}
    for beams in (1, 12):
        stack = replace(ta, ex=np.stack([ta.ex] * beams), ey=np.stack([ta.ey] * beams))
        outputs = 2 * beams * 181 * 180 * np.dtype(complex).itemsize
        with mock.patch.object(farfield, "_workers", lambda: 2):
            beyond[beams] = _traced_peak(lambda: radiate(stack, 0.5, 2.0, K0)) - outputs
    assert beyond[12] - beyond[1] < 1_000_000


def _workers_in_child(code: str, **env_vars) -> list[str]:
    """`code`, then the far-field worker count and the process's
    OPENBLAS_NUM_THREADS, as printed by a child process."""
    src = str(Path(htasim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]), **env_vars)
    code += (
        "; import os; from htasim import farfield;"
        " print(farfield._workers(), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()


def test_the_engine_splits_only_beside_a_one_thread_blas():
    with mock.patch.object(farfield, "SERIAL_BLAS", True):
        cpus = farfield._workers()
    # htasim loads numpy with one BLAS thread and leaves the environment
    # as it found it
    assert _workers_in_child("import htasim") == [str(cpus), "None"]
    # numpy loaded first keeps its default, multithreaded pool
    assert _workers_in_child("import numpy, htasim") == ["1", "None"]
    # a pool size the user set wins
    assert _workers_in_child("import htasim", OPENBLAS_NUM_THREADS="2") == ["1", "2"]
    assert _workers_in_child("import numpy, htasim", OPENBLAS_NUM_THREADS="1") == [str(cpus), "1"]


def test_zero_component_radiates_exact_zeros(layout, curves):
    ta, _ = _hybrid_fields(layout, curves)
    dark_x = ApertureField(
        aperture=ta.aperture, ex=np.zeros_like(ta.ex), ey=ta.ey
    )
    lit = radiate(ta, 3.0, 10.0, K0)
    pat = radiate(dark_x, 3.0, 10.0, K0)
    assert np.array_equal(pat.e_cross, np.zeros_like(pat.e_cross))
    assert np.array_equal(pat.e_co, lit.e_co)


_SMALL_APERTURE = ApertureSpec(plane_z=0.0, size_x=30.0, size_y=24.0, period=6.0, nx=5, ny=4)
_AMPLITUDE = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(database=None, max_examples=25, deadline=None)
@given(
    st.lists(_AMPLITUDE, min_size=40, max_size=40),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_pattern_magnitudes_invariant_under_global_phase(amplitudes, phase):
    a = np.array(amplitudes).reshape(2, 5, 4)
    fld = ApertureField(aperture=_SMALL_APERTURE, ex=a[0], ey=a[1])
    turned = ApertureField(
        aperture=_SMALL_APERTURE,
        ex=a[0] * cmath.exp(1j * phase),
        ey=a[1] * cmath.exp(1j * phase),
    )
    pat, pat2 = radiate(fld, 6.0, 20.0, K0), radiate(turned, 6.0, 20.0, K0)
    for got, ref in ((pat2.e_co, pat.e_co), (pat2.e_cross, pat.e_cross)):
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(np.abs(got), np.abs(ref), rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("theta_step, phi_step", _SPLIT_GRIDS)
def test_odd_grid_radiate_equals_one_shot_formula(theta_step, phi_step):
    # nx = 5 leaves an unpaired middle column in the halved steering build
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 5, 4)) + 1j * rng.standard_normal((2, 5, 4))
    fld = ApertureField(aperture=_SMALL_APERTURE, ex=a[0], ey=a[1])
    e_co, e_cross = _one_shot(fld, theta_step, phi_step, K0)
    for pat in _split_patterns(fld, theta_step, phi_step):
        assert np.array_equal(pat.e_co, e_co)
        assert np.array_equal(pat.e_cross, e_cross)


@settings(database=None, max_examples=40, deadline=None)
@given(
    st.integers(1, 41),
    st.integers(1, 41),
    st.sampled_from([0.5, 6.0, 7.3, 10.0]),
    st.sampled_from([9.0, 9.75, 10.5, 30.0]),
    # 31, 19, 10, 7 and 4 theta rows split into each worker's share, the
    # last block short where the workers do not divide them
    st.sampled_from([3.0, 5.0, 10.0, 15.0, 30.0]),
    # 72 and 24 deg have no sample at 90 or 270 deg, so their negative
    # cosine and sine runs start and end between samples
    st.sampled_from([10.0, 20.0, 24.0, 45.0, 72.0, 120.0, 180.0]),
    st.sampled_from(_SPLIT_WORKERS),
)
# three workers split five 2-row blocks of 180 directions unevenly; 31
# rows are blocks of 11, 11 and 9; 4 rows are fewer than 16 workers
@example(nx=5, ny=4, period=6.0, freq=9.75, theta_step=10.0, phi_step=2.0, workers=3)
@example(nx=5, ny=4, period=6.0, freq=9.75, theta_step=3.0, phi_step=20.0, workers=3)
@example(nx=5, ny=4, period=6.0, freq=9.75, theta_step=30.0, phi_step=20.0, workers=16)
@example(nx=6, ny=5, period=6.0, freq=9.75, theta_step=5.0, phi_step=72.0, workers=2)
@example(nx=7, ny=7, period=7.3, freq=10.5, theta_step=10.0, phi_step=24.0, workers=1)
def test_steering_factors_equal_the_whole_grid_exponential(
    nx, ny, period, freq, theta_step, phi_step, workers
):
    ap = ApertureSpec(
        plane_z=0.0, size_x=nx * period, size_y=ny * period, period=period, nx=nx, ny=ny
    )
    k0 = wavenumber(freq)
    theta = np.arange(round(90.0 / theta_step) + 1) * theta_step
    phi = np.arange(round(360.0 / phi_step)) * phi_step
    # the whole grid's factors, filled block by block as radiate fills them
    pu = np.empty((theta.size * phi.size, nx), complex)
    pv = np.empty((theta.size * phi.size, ny), complex)
    fill = farfield._steering_fill(ap, k0, theta, phi)

    def build(blocks):
        for block in blocks:
            rows = slice(block.start * phi.size, block.stop * phi.size)
            fill(block, pu[rows], pv[rows])

    with mock.patch.object(farfield, "_workers", lambda: workers):
        farfield._over_theta(build, theta.size, phi.size)
    s = np.sin(np.radians(theta))[:, None]
    for got, cosine, coord in (
        (pu, np.cos(np.radians(phi)), ap.x_centers()),
        (pv, np.sin(np.radians(phi)), ap.y_centers()),
    ):
        w = (s * cosine[None, :]).reshape(-1)
        whole = np.exp(1j * k0 * w[:, None] * coord[None, :])
        assert np.array_equal(got, whole)
        # signed zeros too: theta = 0 and phi = 0 give w = -0.0 and +0.0
        for part in ("real", "imag"):
            assert np.array_equal(
                np.signbit(getattr(got, part)), np.signbit(getattr(whole, part))
            )


# --- directivity and metrics ----------------------------------------------


def test_uniform_aperture_directivity_near_aperture_formula(layout):
    # 4 pi A / lambda^2 at 10 GHz is 29.06 dBi; the cos-theta element
    # factor concentrates power forward and lifts the engine value about
    # 0.17 dB above the aperture formula
    k0 = wavenumber(10.0)
    ap = ApertureSpec(
        plane_z=0.0, size_x=240.0, size_y=240.0, period=6.0, nx=40, ny=40
    )
    fld = ApertureField(
        aperture=ap,
        ex=np.zeros((40, 40), complex),
        ey=np.ones((40, 40), complex),
    )
    pat = radiate(fld, 0.5, 2.0, k0)
    _, peak = directivity(pat)
    lam = 299.792458 / 10.0
    oracle = 10.0 * math.log10(4.0 * math.pi * 240.0**2 / lam**2)
    assert oracle == pytest.approx(29.0599094158945, abs=1e-9)
    assert abs(peak - oracle) < 0.25


def test_directivity_scale_invariant():
    fld = _uniform_field(12)
    pat = radiate(fld, 1.0, 4.0, K0)
    half = PatternGrid(
        theta_deg=pat.theta_deg,
        phi_deg=pat.phi_deg,
        e_co=0.5 * pat.e_co,
        e_cross=pat.e_cross,
        aperture=pat.aperture,
        frequency_ghz=pat.frequency_ghz,
    )
    _, d1 = directivity(pat)
    _, d2 = directivity(half)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_isotropic_hemisphere_directivity():
    th = np.arange(0.0, 90.5, 0.5)
    ph = np.arange(0.0, 360.0, 2.0)
    iso = PatternGrid(
        theta_deg=th,
        phi_deg=ph,
        e_co=np.ones((th.size, ph.size), complex),
        e_cross=np.zeros((th.size, ph.size), complex),
        aperture=_SMALL_APERTURE,
        frequency_ghz=10.0,
    )
    _, peak = directivity(iso)
    assert peak == pytest.approx(10.0 * math.log10(2.0), abs=1e-3)


def test_power_integral_invariant_under_global_phase():
    fld = _uniform_field(10)
    pat = radiate(fld, 1.0, 4.0, K0)
    shifted = ApertureField(
        aperture=fld.aperture,
        ex=fld.ex,
        ey=fld.ey * cmath.exp(0.7j),
    )
    pat2 = radiate(shifted, 1.0, 4.0, K0)
    p1 = radiated_power_integral(pat)
    p2 = radiated_power_integral(pat2)
    assert p2 == pytest.approx(p1, rel=1e-12)


def test_uniform_cut_sidelobe_level():
    # first sidelobe of a uniform line source: about -13.26 dB; the engine
    # measures it on the principal cut through the peak
    k0 = wavenumber(10.0)
    fld = _uniform_field(40, 6.0)
    pat = radiate(fld, 0.25, 1.0, k0)
    m = extract_metrics(pat)
    assert m.sll_db == pytest.approx(-13.26, abs=0.3)
    assert m.peak_theta_deg == 0.0
    assert m.aperture_efficiency == pytest.approx(1.0, abs=0.05)
    assert m.peak_gain_dbi == m.directivity_dbi  # default zero offset


def test_metrics_scale_invariance():
    fld = _uniform_field(20)
    pat = radiate(fld, 0.5, 2.0, K0)
    scaled = ApertureField(
        aperture=fld.aperture, ex=fld.ex, ey=3.0 * fld.ey
    )
    pat2 = radiate(scaled, 0.5, 2.0, K0)
    m1 = extract_metrics(pat)
    m2 = extract_metrics(pat2)
    assert m1.directivity_dbi == pytest.approx(m2.directivity_dbi, abs=1e-9)
    assert m1.sll_db == pytest.approx(m2.sll_db, abs=1e-9)
    # raw field power scales by |c|^2
    assert radiated_power_integral(pat2) == pytest.approx(
        9.0 * radiated_power_integral(pat), rel=1e-12
    )


def test_gain_offset():
    fld = _uniform_field(10)
    pat = radiate(fld, 0.5, 2.0, K0)
    m = extract_metrics(pat, gain_offset_db=-1.7)
    assert m.peak_gain_dbi == pytest.approx(m.directivity_dbi - 1.7)


def _unit_peak(pat):
    """The pattern scaled exactly as `extract_metrics` scales it: by a
    power of two, in two steps, to a peak |E| in [0.5, 1) when its peak
    lies beyond 2**(+-MAX_PEAK_EXPONENT)."""
    e = math.frexp(max(np.abs(pat.e_co).max(), np.abs(pat.e_cross).max()))[1]
    if abs(e) <= metrics.MAX_PEAK_EXPONENT:
        return pat
    first, second = 2.0 ** -(e // 2), 2.0 ** -(e - e // 2)
    return replace(pat, e_co=pat.e_co * first * second, e_cross=pat.e_cross * first * second)


def _assert_one_pass_equals_the_oracles(pat):
    # the one-pass metrics read what the hemisphere-wide oracles read, bit
    # for bit: the directivity, the first argmax of |E_co|^2 and its cut
    m = extract_metrics(pat)
    unit = _unit_peak(pat)
    assert m.directivity_dbi == directivity(unit)[1]
    it, ip = np.unravel_index(np.argmax(np.abs(unit.e_co) ** 2), unit.e_co.shape)
    assert (m.peak_theta_deg, m.peak_phi_deg) == (unit.theta_deg[it], unit.phi_deg[ip])
    assert m.e_co_max == np.abs(unit.e_co).max()
    assert np.array_equal(m.cut.e_co, cut(unit, m.peak_phi_deg).e_co)


_METRIC_GRIDS = [(3.0, 10.0), (2.0, 8.0), (1.0, 4.0), (5.0, 45.0), (9.0, 120.0)]


@settings(database=None, max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(_METRIC_GRIDS),
    st.sampled_from([0.0, 0.05, 1.0]),
    st.sampled_from([0, -600, 600]),
)
def test_one_pass_metrics_equal_the_oracles(seed, steps, leakage, exponent):
    rng = np.random.default_rng(seed)
    shape = (_SMALL_APERTURE.nx, _SMALL_APERTURE.ny)
    ey = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 2.0**exponent
    fld = ApertureField(_SMALL_APERTURE, ex=leakage * ey, ey=ey)
    _assert_one_pass_equals_the_oracles(radiate(fld, *steps, K0))


def test_one_pass_metrics_equal_the_oracles_on_an_underflowing_beam(layout, curves):
    # TA beam A1 at q = 22000: its intensity underflows, so the metrics
    # read the pattern scaled to a unit peak
    cm, curve, _ = synthesize_cell_maps(layout, curves, 9.75)["ta"]
    exc = FeedExcitation(
        placement=layout.feed("A1"),
        pattern=FeedPattern(q=22000.0),
        state=PolarizationState.SLANT45,
    )
    pat = radiate(illuminate(layout, exc, "ta", cm, curve, K0), 3.0, 10.0, K0)
    assert _unit_peak(pat) is not pat
    _assert_one_pass_equals_the_oracles(pat)


def test_peak_takes_the_first_of_equal_maxima():
    # np.argmax's rule: the lowest flat index, here (2, 7) before (3, 5)
    # and (5, 1)
    th = np.arange(0.0, 91.0, 10.0)
    ph = np.arange(0.0, 360.0, 10.0)
    e_co = np.full((th.size, ph.size), 0.01 + 0j)
    e_co[3, 5], e_co[2, 7], e_co[5, 1] = 1.0, -1j, -1.0
    pat = PatternGrid(
        theta_deg=th,
        phi_deg=ph,
        e_co=e_co,
        e_cross=np.zeros_like(e_co),
        aperture=_SMALL_APERTURE,
        frequency_ghz=10.0,
    )
    m = extract_metrics(pat)
    assert (m.peak_theta_deg, m.peak_phi_deg, m.e_co_max) == (20.0, 70.0, 1.0)


def test_metrics_hold_two_intensity_grids(layout, curves):
    # |E_co|^2 and |E_x|^2 are the metrics' only hemisphere-sized arrays;
    # seven abs passes and a dB grid took 3.04 grids
    ta, _ = _hybrid_fields(layout, curves)
    pat = radiate(ta, 0.25, 1.0, K0)
    grid = pat.theta_deg.size * pat.phi_deg.size * np.dtype(float).itemsize
    assert _traced_peak(lambda: extract_metrics(pat)) <= 2.2 * grid


# --- illuminate ------------------------------------------------------------


def _settings(**kw):
    defaults = dict(frequency_ghz=9.75, theta_step_deg=1.0, phi_step_deg=4.0)
    defaults.update(kw)
    return SimulationSettings(**defaults)


def test_illuminate_ta_outgoing_is_pure_y(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    cm, curve, _ = maps["ta"]
    exc = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=5.75),
        state=PolarizationState.X,
    )
    fld = illuminate(layout, exc, "ta", cm, curve, K0)
    assert np.all(fld.ex == 0.0)
    assert np.all(np.abs(fld.ey) > 0.0)
    assert fld.aperture.hemisphere == "+z"


def test_illuminate_fta_uses_mirrored_path(layout, curves):
    # the per-element illumination phase must equal the explicit two-segment
    # folded ray: feed -> specular point on the TA plane -> element
    maps = synthesize_cell_maps(layout, curves, 9.75)
    cm, curve, pm = maps["fta"]
    feed = layout.feed("A6")
    exc = FeedExcitation(
        placement=feed, pattern=FeedPattern(q=5.75), state=PolarizationState.Y
    )
    fld = illuminate(layout, exc, "fta", cm, curve, K0)
    assert fld.aperture.hemisphere == "-z"
    x = layout.fta.x_centers()
    y = layout.fta.y_centers()
    mirror = mirror_point(feed.position, layout.f)
    for i, j in ((0, 0), (7, 30), (18, 18), (35, 4)):
        elem = Point3(x[i], y[j], layout.fta.plane_z)
        t = (layout.f - mirror.z) / (elem.z - mirror.z)
        spec_pt = Point3(
            mirror.x + t * (elem.x - mirror.x),
            mirror.y + t * (elem.y - mirror.y),
            layout.f,
        )
        folded_len = path_length(feed.position, spec_pt) + path_length(spec_pt, elem)
        # outgoing phase = -k0 * folded path + compensation phase; the grid
        # reflection sign is undone by the double rotation
        expect = cmath.exp(1j * (-K0 * folded_len + math.radians(pm.phases_deg[i, j])))
        ratio = fld.ey[i, j] / (abs(fld.ey[i, j]) * expect)
        assert cmath.phase(ratio) == pytest.approx(0.0, abs=1e-9)


def test_illuminate_slant_is_scaled_unidirectional(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    s = math.sqrt(0.5)
    for side, uni_state in (("ta", PolarizationState.X), ("fta", PolarizationState.Y)):
        cm, curve, _ = maps[side]
        feed = layout.feed("A5")
        pat = FeedPattern(q=5.75)
        uni = illuminate(
            layout,
            FeedExcitation(placement=feed, pattern=pat, state=uni_state),
            side, cm, curve, K0,
        )
        hta = illuminate(
            layout,
            FeedExcitation(placement=feed, pattern=pat, state=PolarizationState.SLANT45),
            side, cm, curve, K0,
        )
        np.testing.assert_array_equal(hta.ey, s * uni.ey)


def test_illuminate_rejects_inactive_side(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    cm, curve, _ = maps["fta"]
    exc = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=5.75),
        state=PolarizationState.X,
    )
    with pytest.raises(ValueError, match="does not drive"):
        illuminate(layout, exc, "fta", cm, curve, K0)


def test_illuminate_rejects_unknown_side(layout, curves):
    cm, curve, _ = synthesize_cell_maps(layout, curves, 9.75)["ta"]
    exc = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=5.75),
        state=PolarizationState.X,
    )
    with pytest.raises(ValueError, match="'side' is not a valid Side"):
        illuminate(layout, exc, "side", cm, curve, K0)


def test_illuminate_crosspol_leakage(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    cm, curve, _ = maps["ta"]
    exc = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=5.75),
        state=PolarizationState.X,
    )
    fld = illuminate(layout, exc, "ta", cm, curve, K0, crosspol_leakage=0.05)
    np.testing.assert_allclose(fld.ex, 0.05 * fld.ey, rtol=1e-15)


def test_illuminate_blockage_shadows_fta(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    cm, curve, _ = maps["fta"]
    exc = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=5.75),
        state=PolarizationState.Y,
    )
    mask = BlockageMask(width_x_mm=360.0, width_y_mm=40.0)
    fld = illuminate(layout, exc, "fta", cm, curve, K0, blockage=mask)
    x = layout.fta.x_centers()
    y = layout.fta.y_centers()
    shadow = (np.abs(x)[:, None] <= 180.0) & (np.abs(y)[None, :] <= 20.0)
    assert np.all(fld.ey[shadow] == 0.0)
    assert np.all(np.abs(fld.ey[~shadow]) > 0.0)
    # TA side is never shadowed
    cm_ta, curve_ta, _ = maps["ta"]
    exc_x = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=5.75),
        state=PolarizationState.X,
    )
    ta = illuminate(layout, exc_x, "ta", cm_ta, curve_ta, K0, blockage=mask)
    assert np.all(np.abs(ta.ey) > 0.0)


def _subnormal_parts(fld) -> int:
    parts = np.abs(np.stack([fld.ex.real, fld.ex.imag, fld.ey.real, fld.ey.imag]))
    return int(np.count_nonzero((parts > 0.0) & (parts < np.finfo(float).tiny)))


def test_illuminate_flushes_subnormal_parts(layout, curves):
    # a steep feed taper underflows through the subnormal range, which
    # slows the contraction manyfold; the flushed field radiates the
    # metrics of the unflushed one far below their printed precision
    cm, curve, _ = synthesize_cell_maps(layout, curves, 9.75)["fta"]
    exc = FeedExcitation(
        placement=layout.feed("A4"),
        pattern=FeedPattern(q=30000.0),
        state=PolarizationState.SLANT45,
    )
    fld = illuminate(layout, exc, "fta", cm, curve, K0)
    with mock.patch.object(farfield, "_flushed", lambda a: a):
        raw = illuminate(layout, exc, "fta", cm, curve, K0)
    assert _subnormal_parts(fld) == 0
    assert _subnormal_parts(raw) > 0
    got, ref = (extract_metrics(radiate(f, 0.5, 2.0, K0)) for f in (fld, raw))
    for name, value in ref.figures().items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=1e-12), name


@pytest.mark.parametrize("q", [22000.0, 23000.0])
def test_illuminate_keeps_a_field_whose_peak_underflows(layout, curves, q):
    # TA beam A1's largest part is 1.8e-297 at q = 22000, below 2**52
    # times the least normal float, and subnormal at q = 23000: flushing
    # would drop parts above its rounding or darken it, so the field
    # stays as computed; its intensity underflows, but the metrics scale
    # the pattern to a unit peak first, so it gets them
    cm, curve, _ = synthesize_cell_maps(layout, curves, 9.75)["ta"]
    exc = FeedExcitation(
        placement=layout.feed("A1"),
        pattern=FeedPattern(q=q),
        state=PolarizationState.SLANT45,
    )
    fld = illuminate(layout, exc, "ta", cm, curve, K0)
    with mock.patch.object(farfield, "_flushed", lambda a: a):
        raw = illuminate(layout, exc, "ta", cm, curve, K0)
    assert np.array_equal(fld.ey, raw.ey) and np.any(fld.ey != 0.0)
    got = extract_metrics(radiate(fld, 3.0, 10.0, K0))
    # the same field lifted exactly into the normal range; the contraction
    # of the subnormal one keeps about 13 significant digits
    lifted = ApertureField(fld.aperture, fld.ex * 2.0**600, fld.ey * 2.0**600)
    ref = extract_metrics(radiate(lifted, 3.0, 10.0, K0))
    for name, value in ref.figures().items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-9), name


@pytest.mark.parametrize("exponent", [-700, 700])
def test_metrics_do_not_depend_on_the_pattern_scale(layout, curves, exponent):
    # a power-of-two scale is exact, and it would underflow or overflow
    # the intensities if the metrics did not undo it first
    cm, curve, _ = synthesize_cell_maps(layout, curves, 9.75)["ta"]
    exc = FeedExcitation(
        placement=layout.feed("A5"), pattern=FeedPattern(q=5.75), state=PolarizationState.X
    )
    pat = radiate(illuminate(layout, exc, "ta", cm, curve, K0, crosspol_leakage=0.05), 3.0, 10.0, K0)
    scaled = replace(pat, e_co=pat.e_co * 2.0**exponent, e_cross=pat.e_cross * 2.0**exponent)
    assert extract_metrics(scaled) == extract_metrics(pat)


# --- scenarios ---------------------------------------------------------------


def test_run_scenario_population():
    assert active_sides(PolarizationState.X) == (Side.TA,)
    assert active_sides(PolarizationState.Y) == (Side.FTA,)
    assert active_sides(PolarizationState.SLANT45) == (Side.TA, Side.FTA)


def test_run_scenario_feed_legality(layout, curves):
    s = _settings()
    assert allowed_feed_ids(layout, PolarizationState.X, s) == (
        "A2", "A3", "A4", "A5", "A6",
    )
    for state in (PolarizationState.Y, PolarizationState.SLANT45):
        assert allowed_feed_ids(layout, state, s) == layout.feed_ids
    maps = synthesize_cell_maps(layout, curves, 9.75)
    [illegal] = run_scenario(layout, [(PolarizationState.X, "A1")], s, maps, Side.TA)
    assert isinstance(illegal, ValueError) and "allowed feeds" in str(illegal)
    [unknown] = run_scenario(layout, [(PolarizationState.X, "Z9")], s, maps, Side.TA)
    assert isinstance(unknown, ValueError) and str(unknown) == "unknown feed id 'Z9'"


def test_run_scenario_fails_each_beam_alone(layout, curves, monkeypatch):
    # failed beams come back as their errors, in order; the lit beams
    # radiate in one pass and equal each beam radiated alone
    s = _settings(theta_step_deg=3.0, phi_step_deg=10.0)
    maps = synthesize_cell_maps(layout, curves, 9.75)
    calls = []
    real = farfield.radiate
    monkeypatch.setattr(farfield, "radiate", lambda *a: calls.append(a) or real(*a))
    beams = [
        (PolarizationState.X, "A1"),  # not allowed in state x
        (PolarizationState.X, "A4"),
        (PolarizationState.Y, "A4"),  # does not drive the transmit side
        (PolarizationState.SLANT45, "Z9"),
        (PolarizationState.SLANT45, "A7"),
    ]
    out = run_scenario(layout, beams, s, maps, Side.TA)
    assert len(calls) == 1 and calls[0][0].ex.shape[0] == 2
    assert [isinstance(o, ValueError) for o in out] == [True, False, True, True, False]
    assert str(out[2]) == "state y does not drive the TA side"
    for beam, got in zip(beams, out):
        if not isinstance(got, ValueError):
            [(alone, metrics)] = run_scenario(layout, [beam], s, maps, Side.TA)
            np.testing.assert_array_equal(got[0].e_co, alone.e_co)
            np.testing.assert_array_equal(got[0].e_cross, alone.e_cross)
            assert got[1] == metrics
    # no beam illuminates: nothing radiates
    calls.clear()
    out = run_scenario(layout, beams[:1] + beams[2:4], s, maps, Side.TA)
    assert calls == [] and all(isinstance(o, ValueError) for o in out)


def test_leaky_run_scenario_radiates_a_zero_cross_polar_field(layout, curves, monkeypatch):
    # every routing path ends at a y-polarizing grid, so the cross-polar
    # field is the leakage times the co-polar one: the hemisphere pass
    # contracts ey alone
    s = _settings(
        theta_step_deg=3.0, phi_step_deg=10.0, crosspol_leakage=0.05, blockage=BlockageMask()
    )
    maps = synthesize_cell_maps(layout, curves, 9.75)
    calls = []
    real = farfield.radiate
    monkeypatch.setattr(farfield, "radiate", lambda *a: calls.append(a) or real(*a))
    beams = [(PolarizationState.SLANT45, "A2"), (PolarizationState.SLANT45, "A6")]
    for side in Side:
        for _, metrics in run_scenario(layout, beams, s, maps, side):
            assert metrics.crosspol_peak_db == pytest.approx(20.0 * math.log10(0.05), abs=1e-9)
    assert len(calls) == 2
    assert all(c[0].ex.shape[0] == 2 and not np.any(c[0].ex) for c in calls)


@settings(database=None, deadline=None, max_examples=30)
@given(
    side_state=st.sampled_from([
        (Side.TA, PolarizationState.X),
        (Side.TA, PolarizationState.SLANT45),
        (Side.FTA, PolarizationState.Y),
        (Side.FTA, PolarizationState.SLANT45),
    ]),
    frequency_ghz=st.sampled_from([9.0, 9.75, 10.5]),
    leakage=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    blocked=st.booleans(),
    data=st.data(),
)
def test_co_polar_pass_equals_the_two_component_oracle(
    layout, curves, side_state, frequency_ghz, leakage, blocked, data
):
    # run_scenario contracts ey alone, takes e_cross = leakage * e_co and
    # contracts ex itself on the peak's theta rows; the oracle radiates
    # illuminate's two components.  A leakage small enough to leave ex
    # subnormal or zero leaves every cross-polar intensity zero on both
    # paths, so the cross-polar peak still agrees.
    side, state = side_state
    s = _settings(
        frequency_ghz=frequency_ghz,
        theta_step_deg=3.0,
        phi_step_deg=10.0,
        crosspol_leakage=leakage,
        blockage=BlockageMask() if blocked else None,
    )
    feed_id = data.draw(st.sampled_from(allowed_feed_ids(layout, state, s)))
    maps = synthesize_cell_maps(layout, curves, frequency_ghz)
    [(pattern, metrics)] = run_scenario(layout, [(state, feed_id)], s, maps, side)
    k0 = wavenumber(frequency_ghz)
    cm, curve, _ = maps[side]
    excitation = FeedExcitation(
        placement=layout.feed(feed_id), pattern=feed_pattern_for(layout, s), state=state
    )
    fld = illuminate(
        layout, excitation, side, cm, curve, k0, crosspol_leakage=leakage, blockage=s.blockage
    )
    oracle = radiate(fld, 3.0, 10.0, k0)
    expect = extract_metrics(oracle)
    np.testing.assert_array_equal(pattern.e_co, oracle.e_co)
    co = np.abs(pattern.e_co)
    rows = np.any(co >= co.max() * (1.0 - farfield.PEAK_ROW_TOLERANCE), axis=1)
    np.testing.assert_array_equal(pattern.e_cross[rows], oracle.e_cross[rows])
    np.testing.assert_array_equal(pattern.e_cross[~rows], leakage * pattern.e_co[~rows])
    assert metrics.crosspol_peak_db.hex() == expect.crosspol_peak_db.hex()
    assert metrics.figures() == pytest.approx(expect.figures(), rel=1e-12)


def test_hta_fields_are_exact_half_power_split(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    s = _settings(theta_step_deg=0.5, phi_step_deg=2.0)
    hta = {side: run_scenario(layout, [(PolarizationState.SLANT45, "A4")], s, maps, side)[0] for side in Side}
    ta = run_scenario(layout, [(PolarizationState.X, "A4")], s, maps, Side.TA)[0]
    fta = run_scenario(layout, [(PolarizationState.Y, "A4")], s, maps, Side.FTA)[0]
    sq = math.sqrt(0.5)
    # pattern level: identical shapes up to the common scale (the field-level
    # identity is bit-exact, see test_illuminate_slant_is_scaled_unidirectional)
    for got, ref in (
        (hta[Side.TA][0].e_co, ta[0].e_co),
        (hta[Side.FTA][0].e_co, fta[0].e_co),
    ):
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(got, sq * ref, rtol=1e-12, atol=1e-12 * scale)
    # per-hemisphere directivity is unchanged by the common 1/sqrt(2)
    assert hta[Side.TA][1].directivity_dbi == pytest.approx(
        ta[1].directivity_dbi, abs=1e-9
    )
    assert hta[Side.FTA][1].directivity_dbi == pytest.approx(
        fta[1].directivity_dbi, abs=1e-9
    )


@settings(database=None, deadline=None, max_examples=40)
@given(
    x=st.floats(-150.0, 150.0),
    y=st.floats(-20.0, 20.0),
    state=st.sampled_from(PolarizationState),
    blocked=st.booleans(),
)
@example(x=50.0, y=0.0, state=PolarizationState.X, blocked=False)  # A5, mirrored to A3
def test_mirrored_feeds_mirror_the_pattern(layout, curves, x, y, state, blocked):
    # the element grid and both compensation maps are symmetric in x, so
    # the feed mirrored to -x radiates the pattern mirrored to 180 - phi
    feeds = (FeedPlacement("P", Point3(x, y, 0.0)), FeedPlacement("M", Point3(-x, y, 0.0)))
    lay = build_layout(LayoutConfig(feeds=feeds))
    maps = synthesize_cell_maps(lay, curves, 9.75)
    s = _settings(
        theta_step_deg=3.0,
        phi_step_deg=10.0,
        blockage=BlockageMask() if blocked else None,
        ta_feed_ids=("P", "M"),
    )
    for side in active_sides(state):
        # both feeds radiate in one stacked pass, as a sweep's side does
        (plus, _), (minus, _) = run_scenario(lay, [(state, "P"), (state, "M")], s, maps, side)
        idx = (np.round((180.0 - plus.phi_deg) % 360.0 / 10.0)).astype(int)
        np.testing.assert_allclose(
            np.abs(plus.e_co),
            np.abs(minus.e_co[:, idx]),
            rtol=1e-9,
            atol=1e-9 * np.max(np.abs(plus.e_co)),
        )


def test_fta_beam_pointing_oracle(layout, curves):
    # folded-side beams land within max(2 deg, one grid step) of
    # atan(|x_feed| / F); the transmit side under bifocal compensation
    # undershoots atan(|x_feed| / f) by 3-4 deg, and acceptance criterion 7
    # checks it against the bifocal best-fit prediction instead
    maps = synthesize_cell_maps(layout, curves, 9.75)
    s = _settings(theta_step_deg=0.5, phi_step_deg=2.0)
    tol = max(2.0, 0.5)
    for fid in ("A1", "A2", "A3", "A4", "A5", "A6", "A7"):
        m = run_scenario(layout, [(PolarizationState.Y, fid)], s, maps, Side.FTA)[0][1]
        geo = math.degrees(math.atan(abs(layout.feed(fid).position.x) / layout.F))
        assert abs(m.peak_theta_deg - geo) <= tol


def test_exactly_compensated_feed_steers_to_design_angle(layout, curves):
    # engine steering oracle: with the eccentric single-focus law designed
    # at the feed itself, the outgoing wave is a plane wave toward the
    # design direction and the peak lands there (within the sampling step
    # plus the small element-factor pull)
    from htasim.synthesis import ScanTarget, quantize, single_focus_phase

    curve = curves.curve("uc1", 9.75)
    feed = layout.feed("A6")
    geo = math.degrees(math.atan(abs(feed.position.x) / layout.f))
    pm = single_focus_phase(layout.ta, feed.position, ScanTarget(geo, 180.0), K0)
    cm = quantize(pm, curve)
    exc = FeedExcitation(
        placement=feed, pattern=FeedPattern(q=5.75), state=PolarizationState.X
    )
    fld = illuminate(layout, exc, "ta", cm, curve, K0)
    pat = radiate(fld, 0.25, 1.0, K0)
    m = extract_metrics(pat)
    assert m.peak_phi_deg == 180.0
    assert abs(m.peak_theta_deg - geo) <= 1.0


def test_scan_loss_flattening_benefit(layout, curves):
    # bifocal compensation trades boresight gain for a flatter scan: the
    # directivity drop from the center feed to the edge feed must be
    # clearly smaller than under on-axis single-focus compensation
    from htasim.synthesis import ScanTarget, quantize, single_focus_phase

    maps = synthesize_cell_maps(layout, curves, 9.75)
    s = _settings(theta_step_deg=0.5, phi_step_deg=2.0)
    d_bif = {
        fid: run_scenario(layout, [(PolarizationState.X, fid)], s, maps, Side.TA)[0]
        [1].directivity_dbi
        for fid in ("A4", "A6")
    }
    curve = curves.curve("uc1", 9.75)
    pm = single_focus_phase(
        layout.ta, layout.feed("A4").position, ScanTarget(0.0), K0
    )
    cm = quantize(pm, curve)
    d_sf = {}
    for fid in ("A4", "A6"):
        exc = FeedExcitation(
            placement=layout.feed(fid),
            pattern=FeedPattern(q=5.75),
            state=PolarizationState.X,
        )
        fld = illuminate(layout, exc, "ta", cm, curve, K0)
        pat = radiate(fld, 0.5, 2.0, K0)
        d_sf[fid] = extract_metrics(pat).directivity_dbi
    loss_bif = d_bif["A4"] - d_bif["A6"]
    loss_sf = d_sf["A4"] - d_sf["A6"]
    assert loss_bif < loss_sf - 0.2


def test_blockage_costs_directivity(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    s = _settings(theta_step_deg=0.5, phi_step_deg=2.0)
    clear = run_scenario(layout, [(PolarizationState.Y, "A4")], s, maps, Side.FTA)[0]
    shadowed = run_scenario(
        layout,
        [(PolarizationState.Y, "A4")],
        SimulationSettings(
            frequency_ghz=9.75,
            theta_step_deg=0.5,
            phi_step_deg=2.0,
            blockage=BlockageMask(),
        ),
        maps,
        Side.FTA,
    )[0]
    assert shadowed[1].directivity_dbi < clear[1].directivity_dbi


def test_crosspol_metric_with_leakage(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    s = SimulationSettings(
        frequency_ghz=9.75, theta_step_deg=0.5, phi_step_deg=2.0, crosspol_leakage=0.05
    )
    m = run_scenario(layout, [(PolarizationState.X, "A4")], s, maps, Side.TA)[0][1]
    assert m.crosspol_peak_db == pytest.approx(20.0 * math.log10(0.05), abs=1e-6)


def test_ideal_model_has_zero_crosspol(layout, curves):
    maps = synthesize_cell_maps(layout, curves, 9.75)
    pat, m = run_scenario(layout, [(PolarizationState.X, "A4")], _settings(), maps, Side.TA)[0]
    assert np.all(pat.e_cross == 0.0)
    assert m.crosspol_peak_db == -math.inf


def test_principal_cut_with_offgrid_antipode():
    # odd phi counts put the antipodal azimuth between grid lines; the cut
    # must pick the circularly nearest sample instead of a wrapped-distance
    # artifact
    phi = np.arange(45) * 8.0  # 0, 8, ..., 352; antipode of 0 is 176/184
    assert _nearest_phi_index(phi, 180.0) in (22, 23)
    assert _nearest_phi_index(phi, 356.5) == 0  # wraps across 360
    fld = _uniform_field(12)
    pat = radiate(fld, 2.0, 8.0, K0)
    m = extract_metrics(pat)
    assert m.peak_theta_deg == 0.0
    n = pat.theta_deg.size
    i_neg = _nearest_phi_index(phi, 180.0)
    c = cut(pat, 0.0)
    assert np.array_equal(c.theta_deg, np.concatenate([-pat.theta_deg[:0:-1], pat.theta_deg]))
    assert np.all(c.phi_deg[: n - 1] == phi[i_neg]) and np.all(c.phi_deg[n - 1 :] == 0.0)
    assert np.array_equal(c.e_co[: n - 1], pat.e_co[:0:-1, i_neg])
    assert np.array_equal(c.e_co[n - 1 :], pat.e_co[:, 0])
    assert np.array_equal(c.e_cross[n - 1 :], pat.e_cross[:, 0])
    assert np.all(cut(pat, 356.5).phi_deg[n - 1 :] == 0.0)
    assert np.array_equal(m.cut.e_co, c.e_co)


def test_directivity_rejects_dark_pattern():
    th = np.arange(0.0, 91.0, 1.0)
    ph = np.arange(0.0, 360.0, 10.0)
    dark = PatternGrid(
        theta_deg=th,
        phi_deg=ph,
        e_co=np.zeros((th.size, ph.size), complex),
        e_cross=np.zeros((th.size, ph.size), complex),
        aperture=_SMALL_APERTURE,
        frequency_ghz=10.0,
    )
    with pytest.raises(ValueError, match="no power"):
        directivity(dark)


def test_metrics_need_a_main_lobe():
    # cross-polar power only: no resolvable co-polar lobe
    th = np.arange(0.0, 91.0, 1.0)
    ph = np.arange(0.0, 360.0, 10.0)
    crossed = PatternGrid(
        theta_deg=th,
        phi_deg=ph,
        e_co=np.zeros((th.size, ph.size), complex),
        e_cross=np.ones((th.size, ph.size), complex),
        aperture=_SMALL_APERTURE,
        frequency_ghz=10.0,
    )
    with pytest.raises(ValueError, match="main lobe"):
        extract_metrics(crossed)
