"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py -v` to see every verdict.
Tolerances are pinned here and nowhere else.  Two criteria compare the
engine against a reference derived here, independently of the engine, for
the model the package implements:

* criterion 6: the engine applies a cos(theta) field element factor, so
  the reference directivity of the uniform 40 x 40, 6 mm, 10 GHz aperture
  is the Gauss-Legendre hemisphere quadrature of the closed-form array
  factor |AF(u, v)|^2 cos^2(theta), 29.2229 dBi (+0.163 dB over
  4 pi A / lambda^2).  The same quadrature with an isotropic element
  lands within 0.01 dB of 4 pi A / lambda^2, which keeps that formula as
  the anchor of the check;
* criterion 7: the bifocal law lays down k0 (R1 + R2) / 2 over virtual
  feeds at +-d/2, which only approximates the compensation of any real
  feed and so compresses the steering.  The geometric prediction is the
  best-fit plane wave of the aperture phase that law leaves for a given
  feed: the amplitude-weighted least-squares plane through the residual
  path (R1 + R2) / 2 - R_feed.  For an exactly compensated feed it
  reduces to the design angle.  atan(|x_feed| / focal) is printed beside
  it to show the compression.
"""

import cmath
import math

import numpy as np
import pytest

from htasim.config import default_config
from htasim.farfield import (
    ApertureField,
    Side,
    SimulationSettings,
    active_sides,
    directivity,
    extract_metrics,
    illuminate,
    radiate,
    run_scenario,
    synthesize_cell_maps,
)
from htasim.feed import FeedExcitation, FeedPattern
from htasim.geometry import ApertureSpec, build_layout
from htasim.polarization import PolarizationState
from htasim.synthesis import (
    ScanTarget,
    bifocal_phase,
    bifocal_phase_unwrapped,
    quantize,
    single_focus_phase,
    wavenumber,
)
from htasim.unitcell import ScatterCoeffs, pcr, uc1_scatter_model

DESIGN_FREQ = 9.75
METRICS_STEPS = (0.5, 2.0)  # deg, theta x phi
# cos^q feed taper, 10 dB down at the 120 mm aperture rim seen from f = 171 mm
FEED_Q = 5.750349515268054


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_975(layout, curves):
    """All legal beams at the design frequency, metrics sampling."""
    maps = synthesize_cell_maps(layout, curves, DESIGN_FREQ)
    settings = SimulationSettings(
        frequency_ghz=DESIGN_FREQ,
        theta_step_deg=METRICS_STEPS[0],
        phi_step_deg=METRICS_STEPS[1],
    )
    rows = []
    for state in (PolarizationState.X, PolarizationState.Y, PolarizationState.SLANT45):
        feed_ids = (
            ("A2", "A3", "A4", "A5", "A6")
            if state is PolarizationState.X
            else layout.feed_ids
        )
        for fid in feed_ids:
            for side in active_sides(state):
                pattern, metrics = run_scenario(layout, [(state, fid)], settings, maps, side)[0]
                rows.append((state, fid, pattern.aperture.hemisphere, pattern, metrics))
    return rows


def test_c01_focal_relation(layout):
    ok = (
        layout.f == 171.0
        and layout.F == 384.0
        and layout.h == 42.0
        and layout.F - 2.0 * layout.f - layout.h == 0.0
    )
    assert _verdict(1, "focal_relation", ok, f"f={layout.f} h={layout.h} F={layout.F}, F-2f-h exact")


def test_c02_bifocal_mean_equivalence(layout):
    k0 = wavenumber(DESIGN_FREQ)
    vf1, vf2 = layout.virtual_feeds
    closed = bifocal_phase_unwrapped(layout.ta, vf1, vf2, k0)
    # independent constituent maps: plain scalar loops, opposite scan signs
    theta = math.radians(28.0)
    x = layout.ta.x_centers()
    y = layout.ta.y_centers()
    mean = np.empty_like(closed)
    for i in range(layout.ta.nx):
        for j in range(layout.ta.ny):
            r1 = math.sqrt((x[i] - vf1.x) ** 2 + y[j] ** 2 + layout.f**2)
            r2 = math.sqrt((x[i] - vf2.x) ** 2 + y[j] ** 2 + layout.f**2)
            p1 = k0 * (r1 - x[i] * math.sin(-theta))
            p2 = k0 * (r2 - x[i] * math.sin(+theta))
            mean[i, j] = math.degrees((p1 + p2) / 2.0)
    rel = float(np.max(np.abs(mean - closed) / np.abs(closed)))
    a = bifocal_phase(layout.ta, vf1, vf2, +28.0, k0).phases_deg
    b = bifocal_phase(layout.ta, vf1, vf2, -28.0, k0).phases_deg
    bit_exact = np.array_equal(a, b)
    ok = rel <= 1e-9 and bit_exact
    assert _verdict(
        2, "bifocal_mean_equivalence", ok,
        f"max rel dev {rel:.2e} (<=1e-9), theta-independence bit-exact: {bit_exact}",
    )


def test_c03_unit_cell_coverage(curves):
    worst = 0.0
    halves = []
    for kind in ("uc1", "uc2"):
        curve = curves.curve(kind, DESIGN_FREQ)
        targets = np.arange(360, dtype=float)
        params, rotated = curve.invert(targets)
        realized = curve.phase_at(params, rotated)
        err = np.abs((realized - targets + 180.0) % 360.0 - 180.0)
        worst = max(worst, float(err.max()))
        halves.append(int(rotated.sum()))
    ok = worst <= 1e-6 and all(h == 180 for h in halves)
    assert _verdict(
        3, "unit_cell_coverage", ok,
        f"360-target round-trip max err {worst:.2e} deg (<=1e-6), "
        f"rotated-branch counts {halves} (exactly half)",
    )


def test_c04_pcr():
    exact = pcr(ScatterCoeffs(1.0, 0.0, 0.0, 0.0)) == 1.0
    num = 0.98**2
    den = num + 0.1**2 + 0.1**2 + 0.15**2
    derived = pcr(ScatterCoeffs(0.98, 0.1, 0.1, 0.15))
    derived_ok = derived == pytest.approx(num / den, rel=1e-15)
    quarter = pcr(ScatterCoeffs(0.4, 0.4, 0.4, 0.4)) == pytest.approx(0.25, rel=1e-15)
    band = [pcr(uc1_scatter_model(f)) for f in np.arange(7.0, 13.001, 0.1)]
    band_ok = min(band) >= 0.928
    ok = exact and derived_ok and quarter and band_ok
    assert _verdict(
        4, "pcr", ok,
        f"unit/quarter cases exact, derived {derived:.6f}, "
        f"band minimum {min(band):.4f} (>=0.928)",
    )


def test_c05_brute_force_radiator():
    rng = np.random.default_rng(2024)
    k0 = wavenumber(DESIGN_FREQ)
    worst = 0.0
    for _ in range(5):
        nx, ny = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        period = float(rng.uniform(3.0, 12.0))
        ap = ApertureSpec(
            plane_z=0.0, size_x=nx * period, size_y=ny * period,
            period=period, nx=nx, ny=ny,
        )
        ey = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
        fld = ApertureField(
            aperture=ap, ex=np.zeros((nx, ny), complex), ey=ey
        )
        pat = radiate(fld, 15.0, 45.0, k0)
        x, yy = ap.x_centers(), ap.y_centers()
        for it, th in enumerate(pat.theta_deg):
            for ip, ph in enumerate(pat.phi_deg):
                u = math.sin(math.radians(th)) * math.cos(math.radians(ph))
                v = math.sin(math.radians(th)) * math.sin(math.radians(ph))
                acc = 0.0 + 0.0j
                for i in range(nx):
                    for j in range(ny):
                        acc += ey[i, j] * cmath.exp(1j * k0 * (x[i] * u + yy[j] * v))
                acc *= math.cos(math.radians(th))
                scale = max(abs(acc), 1e-30)
                worst = max(worst, abs(acc - pat.e_co[it, ip]) / scale)
    ok = worst <= 1e-12
    assert _verdict(
        5, "brute_force_radiator", ok, f"max rel dev {worst:.2e} (<=1e-12)"
    )


def _dirichlet_sq(n, psi):
    """|sum_{i<n} exp(j (i - (n-1)/2) psi)|^2 = (sin(n psi/2) / sin(psi/2))^2."""
    s = np.sin(psi / 2.0)
    small = np.abs(s) < 1e-12
    ratio = np.where(small, float(n), np.sin(n * psi / 2.0) / np.where(small, 1.0, s))
    return ratio * ratio


def _uniform_array_directivity_dbi(n, period, k0, element_cos_power, n_theta, n_phi):
    """Boresight directivity of a uniform n x n array whose element power
    pattern is cos(theta)^element_cos_power, from the closed-form array
    factor and Gauss-Legendre quadrature over the forward hemisphere."""
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    theta = (xt + 1.0) * math.pi / 4.0
    wt = wt * math.pi / 4.0
    xp, wp = np.polynomial.legendre.leggauss(n_phi)
    phi = (xp + 1.0) * math.pi
    wp = wp * math.pi
    u = np.sin(theta)[:, None] * np.cos(phi)[None, :]
    v = np.sin(theta)[:, None] * np.sin(phi)[None, :]
    element = np.cos(theta)[:, None] ** element_cos_power
    power = _dirichlet_sq(n, k0 * period * u) * _dirichlet_sq(n, k0 * period * v) * element
    total = float(np.sum(power * (np.sin(theta) * wt)[:, None] * wp[None, :]))
    return 10.0 * math.log10(4.0 * math.pi * float(n) ** 4 / total)


def test_c06_uniform_aperture_directivity():
    k0 = wavenumber(10.0)
    ap = ApertureSpec(plane_z=0.0, size_x=240.0, size_y=240.0, period=6.0, nx=40, ny=40)
    fld = ApertureField(
        aperture=ap,
        ex=np.zeros((40, 40), complex),
        ey=np.ones((40, 40), complex),
    )
    pat = radiate(fld, 0.25, 1.0, k0)
    _, peak = directivity(pat)
    # reference for the implemented cos(theta) field element factor, with a
    # coarser rerun bounding its own quadrature error
    ref = _uniform_array_directivity_dbi(40, 6.0, k0, 2, 1000, 360)
    ref_coarse = _uniform_array_directivity_dbi(40, 6.0, k0, 2, 500, 180)
    converged = abs(ref - ref_coarse) <= 1e-3
    # anchor: the same quadrature with an isotropic element is 4 pi A / lambda^2
    iso = _uniform_array_directivity_dbi(40, 6.0, k0, 0, 1000, 360)
    lam = 299.792458 / 10.0
    oracle = 10.0 * math.log10(4.0 * math.pi * 240.0**2 / lam**2)
    dev = peak - ref
    iso_dev = iso - oracle
    ok = converged and abs(dev) <= 0.15 and abs(iso_dev) <= 0.15
    assert _verdict(
        6, "uniform_aperture_directivity", ok,
        f"engine {peak:.4f} dBi vs cos-theta reference {ref:.4f} dBi, "
        f"dev {dev:+.4f} dB (budget 0.15); isotropic control {iso:.4f} dBi vs "
        f"4piA/lambda^2 {oracle:.4f} dBi, dev {iso_dev:+.4f} dB (budget 0.15); "
        f"cos-theta element adds {ref - oracle:+.4f} dB",
    )


def _bifocal_pointing_deg(layout, feed_x, hemisphere):
    """Beam direction of the best-fit plane wave the bifocal aperture phase
    leaves for one feed, from the feed geometry alone.

    The outgoing phase is k0 ((R1 + R2) / 2 - R_feed); a weighted
    least-squares plane a + b x + c y through that residual path, weighted
    by the feed amplitude cos^q(off-axis) / R, tilts the beam to
    asin(sqrt(b^2 + c^2)).  The folded side is unfolded by mirroring the
    feed and the virtual feeds about the TA plane (distance F).
    """
    if hemisphere == "+z":
        ap, source_z = layout.ta, 0.0
    else:
        ap, source_z = layout.fta, 2.0 * layout.f
    dz = abs(ap.plane_z - source_z)
    x = ap.x_centers()
    y = ap.y_centers()
    half_d = layout.d / 2.0
    rows = []
    rhs = []
    for i in range(ap.nx):
        for j in range(ap.ny):
            r1 = math.sqrt((x[i] - half_d) ** 2 + y[j] ** 2 + dz**2)
            r2 = math.sqrt((x[i] + half_d) ** 2 + y[j] ** 2 + dz**2)
            r = math.sqrt((x[i] - feed_x) ** 2 + y[j] ** 2 + dz**2)
            # rows scaled by sqrt(weight) turn the weighted fit into plain lstsq
            sw = math.sqrt((dz / r) ** FEED_Q / r)
            rows.append((sw, sw * x[i], sw * y[j]))
            rhs.append(sw * ((r1 + r2) / 2.0 - r))
    (_, b, c), *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return math.degrees(math.asin(math.hypot(b, c)))


def test_c07_beam_pointing_table(layout, sweep_975):
    from htasim.cli import load_reference_targets

    targets = load_reference_targets()
    tol = max(2.0, METRICS_STEPS[0])
    geo_failures = []
    meas_failures = []
    print()
    for state, fid, hemi, _, metrics in sweep_975:
        feed_x = layout.feed(fid).position.x
        geo = _bifocal_pointing_deg(layout, feed_x, hemi)
        focal = layout.f if hemi == "+z" else layout.F
        feed_angle = math.degrees(math.atan(abs(feed_x) / focal))
        ach = metrics.peak_theta_deg
        d_geo = abs(ach - geo)
        meas = targets[(state.value, fid, hemi)]
        d_meas = abs(ach - meas)
        line = (
            f"    {state.value:8s} {fid} {hemi}: achieved {ach:6.2f}, "
            f"bifocal geometric {geo:6.2f} (dev {d_geo:5.2f}), "
            f"atan(x/f) {feed_angle:6.2f}, "
            f"measured ref {meas:5.1f} (dev {d_meas:5.2f})"
        )
        print(line)
        if d_geo > tol:
            geo_failures.append(f"{state.value}/{fid}/{hemi} dev {d_geo:.2f}")
        if d_meas > 3.0:
            meas_failures.append(f"{state.value}/{fid}/{hemi} dev {d_meas:.2f}")
    ok = not geo_failures and not meas_failures
    assert _verdict(
        7, "beam_pointing_table", ok,
        f"{len(geo_failures)} of {len(sweep_975)} beams beyond max(2 deg, step) "
        f"of the bifocal geometric prediction {geo_failures or ''}; "
        f"measured-reference deviations all within 3 deg: {not meas_failures}",
    )


def test_c08_hta_linearity_split(layout, curves):
    maps = synthesize_cell_maps(layout, curves, DESIGN_FREQ)
    pat_feed = FeedPattern(q=FEED_Q)
    sq = math.sqrt(0.5)
    worst = 0.0
    for side, uni_state in (("ta", PolarizationState.X), ("fta", PolarizationState.Y)):
        cm, curve, _ = maps[side]
        for fid in ("A4", "A6"):
            feed = layout.feed(fid)
            uni = illuminate(
                layout,
                FeedExcitation(placement=feed, pattern=pat_feed, state=uni_state),
                side, cm, curve, wavenumber(DESIGN_FREQ),
            )
            hta = illuminate(
                layout,
                FeedExcitation(
                    placement=feed, pattern=pat_feed, state=PolarizationState.SLANT45
                ),
                side, cm, curve, wavenumber(DESIGN_FREQ),
            )
            scale = float(np.max(np.abs(uni.ey)))
            worst = max(worst, float(np.max(np.abs(hta.ey - sq * uni.ey))) / scale)
    settings = SimulationSettings(
        frequency_ghz=DESIGN_FREQ,
        theta_step_deg=METRICS_STEPS[0],
        phi_step_deg=METRICS_STEPS[1],
    )
    hta = run_scenario(layout, [(PolarizationState.SLANT45, "A4")], settings, maps, Side.TA)[0]
    ta = run_scenario(layout, [(PolarizationState.X, "A4")], settings, maps, Side.TA)[0]
    d_dev = abs(
        hta[1].directivity_dbi - ta[1].directivity_dbi
    )
    ok = worst <= 1e-12 and d_dev <= 1e-9
    assert _verdict(
        8, "hta_linearity_split", ok,
        f"field-level 1/sqrt(2) identity max rel dev {worst:.2e} (<=1e-12); "
        f"per-hemisphere directivity unchanged (dev {d_dev:.2e} dB)",
    )


def test_c09_bifocal_benefit(layout, curves):
    k0 = wavenumber(DESIGN_FREQ)
    maps = synthesize_cell_maps(layout, curves, DESIGN_FREQ)
    settings = SimulationSettings(
        frequency_ghz=DESIGN_FREQ, theta_step_deg=0.25, phi_step_deg=1.0
    )
    d_bif = {
        fid: run_scenario(layout, [(PolarizationState.X, fid)], settings, maps, Side.TA)[0]
        [1].directivity_dbi
        for fid in ("A4", "A6")
    }
    curve = curves.curve("uc1", DESIGN_FREQ)
    pm = single_focus_phase(layout.ta, layout.feed("A4").position, ScanTarget(0.0), k0)
    cm = quantize(pm, curve)
    pat_feed = FeedPattern(q=FEED_Q)
    d_sf = {}
    for fid in ("A4", "A6"):
        exc = FeedExcitation(
            placement=layout.feed(fid), pattern=pat_feed, state=PolarizationState.X
        )
        fld = illuminate(layout, exc, "ta", cm, curve, k0)
        pat = radiate(fld, 0.25, 1.0, k0)
        d_sf[fid] = extract_metrics(pat).directivity_dbi
    loss_bif = d_bif["A4"] - d_bif["A6"]
    loss_sf = d_sf["A4"] - d_sf["A6"]
    ok = loss_bif < loss_sf - 0.2
    assert _verdict(
        9, "bifocal_benefit", ok,
        f"edge-feed scan loss: bifocal {loss_bif:.3f} dB vs single-focus "
        f"{loss_sf:.3f} dB (margin {loss_sf - loss_bif:.3f} dB, required >=0.2)",
    )


def test_c10_boresight_sll(sweep_975):
    row = next(
        (r for r in sweep_975 if r[0] is PolarizationState.X and r[1] == "A4"), None
    )
    assert row is not None
    sll = row[4].sll_db
    ok = sll <= -10.0
    assert _verdict(
        10, "boresight_sll", ok,
        f"transmit boresight beam SLL {sll:.2f} dB (<= -10 dB budget)",
    )


def test_c11_polarization_purity(layout, curves):
    maps = synthesize_cell_maps(layout, curves, DESIGN_FREQ)
    ideal = SimulationSettings(
        frequency_ghz=DESIGN_FREQ,
        theta_step_deg=METRICS_STEPS[0],
        phi_step_deg=METRICS_STEPS[1],
    )
    purity = []
    for state, fid in (
        (PolarizationState.X, "A4"),
        (PolarizationState.Y, "A1"),
        (PolarizationState.SLANT45, "A7"),
    ):
        for side in active_sides(state):
            pattern, _ = run_scenario(layout, [(state, fid)], ideal, maps, side)[0]
            purity.append(float(np.max(np.abs(pattern.e_cross))))
    all_dark = all(p == 0.0 for p in purity)
    leaky = SimulationSettings(
        frequency_ghz=DESIGN_FREQ,
        theta_step_deg=METRICS_STEPS[0],
        phi_step_deg=METRICS_STEPS[1],
        crosspol_leakage=0.05,
    )
    res = run_scenario(layout, [(PolarizationState.X, "A4")], leaky, maps, Side.TA)[0]
    cross = res[1].crosspol_peak_db
    leak_ok = -27.0 < cross < -25.0
    ok = all_dark and leak_ok
    assert _verdict(
        11, "polarization_purity", ok,
        f"ideal cross-polar field exactly zero: {all_dark}; with 0.05 leakage "
        f"cross-polar peak {cross:.2f} dB (must sit below -25 dB)",
    )
