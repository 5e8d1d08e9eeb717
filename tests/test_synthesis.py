import math

import numpy as np
import pytest

from htasim.farfield import Side
from htasim.geometry import ApertureConfig, ApertureSpec, LayoutConfig, Point3, build_layout
from htasim.synthesis import (
    PhaseMap,
    ScanTarget,
    bifocal_phase,
    bifocal_phase_unwrapped,
    quantize,
    single_focus_phase,
    single_focus_phase_unwrapped,
    wavenumber,
    wrap_deg,
    write_cell_map_csv,
    write_phase_map_csv,
)
from htasim.unitcell import PhaseCurve

K0_10GHZ = wavenumber(10.0)


def test_wavenumber():
    assert K0_10GHZ == pytest.approx(2.0 * math.pi * 10.0 / 299.792458, rel=1e-15)
    assert K0_10GHZ == pytest.approx(0.20958450219516817)
    with pytest.raises(ValueError):
        wavenumber(0.0)


def test_scan_target_domain():
    ScanTarget(0.0, 0.0)
    ScanTarget(89.9, 359.0)
    with pytest.raises(ValueError):
        ScanTarget(90.0)
    with pytest.raises(ValueError):
        ScanTarget(10.0, 360.0)


def _aperture(n=40, period=6.0, z=171.0):
    return ApertureSpec(
        plane_z=z, size_x=n * period, size_y=n * period, period=period, nx=n, ny=n
    )


def test_single_focus_on_axis_is_focusing_law():
    ap = _aperture()
    feed = Point3(0.0, 0.0, 0.0)
    pm = single_focus_phase(ap, feed, ScanTarget(0.0), K0_10GHZ)
    x = ap.x_centers()
    y = ap.y_centers()
    # phase difference to the innermost element follows k0*(R - R_center)
    i, j = 3, 17
    r = math.sqrt(x[i] ** 2 + y[j] ** 2 + 171.0**2)
    rc = math.sqrt(x[19] ** 2 + y[19] ** 2 + 171.0**2)
    expect = wrap_deg(math.degrees(K0_10GHZ * (r - rc)))
    got = wrap_deg(pm.phases_deg[i, j] - pm.phases_deg[19, 19])
    assert got == pytest.approx(expect, abs=1e-9)


def test_single_focus_mirror_symmetry():
    ap = _aperture()
    pm = single_focus_phase(ap, Point3(0.0, 0.0, 0.0), ScanTarget(0.0), K0_10GHZ)
    np.testing.assert_allclose(pm.phases_deg, pm.phases_deg[::-1, :], atol=1e-9)
    np.testing.assert_allclose(pm.phases_deg, pm.phases_deg[:, ::-1], atol=1e-9)


def test_single_focus_corner_element_scalar_oracle():
    # independent scalar evaluation of the compensation law at one corner
    ap = _aperture()
    pm = single_focus_phase(ap, Point3(0.0, 0.0, 0.0), ScanTarget(0.0), K0_10GHZ)
    r = math.sqrt(117.0**2 + 117.0**2 + 171.0**2)
    expect_rad = K0_10GHZ * r
    assert math.degrees(expect_rad - K0_10GHZ * 171.0) % 360.0 == pytest.approx(
        83.92583959823, abs=1e-6
    )  # corner-vs-center increment of the focusing law
    assert pm.phases_deg[39, 39] == pytest.approx(
        math.degrees(expect_rad) % 360.0, abs=1e-9
    )


def test_single_focus_scan_term():
    ap = _aperture(n=8)
    feed = Point3(0.0, 0.0, 0.0)
    target = ScanTarget(25.0, 40.0)
    pm = single_focus_phase(ap, feed, target, K0_10GHZ)
    x = ap.x_centers()
    y = ap.y_centers()
    th, ph = math.radians(25.0), math.radians(40.0)
    for i in (0, 5):
        for j in (2, 7):
            r = math.sqrt(x[i] ** 2 + y[j] ** 2 + 171.0**2)
            scan = math.sin(th) * (x[i] * math.cos(ph) + y[j] * math.sin(ph))
            expect = math.degrees(K0_10GHZ * (r - scan)) % 360.0
            assert pm.phases_deg[i, j] == pytest.approx(expect, abs=1e-9)


def test_single_focus_feed_on_plane_rejected():
    ap = _aperture(z=0.0)
    with pytest.raises(ValueError):
        single_focus_phase(ap, Point3(0.0, 0.0, 0.0), ScanTarget(0.0), K0_10GHZ)


def test_bifocal_element_scalar_oracle():
    # element at (60, 0): half the summed distances to the two virtual
    # feeds; a 2x1 grid with a 120 mm pitch puts a cell center exactly there
    vf1, vf2 = Point3(110.0, 0.0, 0.0), Point3(-110.0, 0.0, 0.0)
    r1 = math.sqrt((60.0 - 110.0) ** 2 + 171.0**2)
    r2 = math.sqrt((60.0 + 110.0) ** 2 + 171.0**2)
    expect = math.degrees(K0_10GHZ * (r1 + r2) / 2.0) % 360.0
    assert expect == pytest.approx(357.4485253265, abs=1e-6)
    ap = ApertureSpec(plane_z=171.0, size_x=240.0, size_y=120.0, period=120.0, nx=2, ny=1)
    assert ap.x_centers()[1] == 60.0
    pm = bifocal_phase(ap, vf1, vf2, 0.0, K0_10GHZ)
    assert pm.phases_deg[1, 0] == pytest.approx(expect, abs=1e-9)


def test_bifocal_symmetry_axis_element():
    ap = ApertureSpec(plane_z=171.0, size_x=12.0, size_y=12.0, period=6.0, nx=1, ny=1)
    vf1, vf2 = Point3(110.0, 0.0, 0.0), Point3(-110.0, 0.0, 0.0)
    pm = bifocal_phase(ap, vf1, vf2, 0.0, K0_10GHZ)
    r = math.sqrt(110.0**2 + 171.0**2)
    assert pm.phases_deg[0, 0] == pytest.approx(
        math.degrees(K0_10GHZ * r) % 360.0, abs=1e-9
    )


def test_bifocal_mean_equivalence(layout):
    # the closed form equals the element-wise mean of the two constituent
    # single-focus maps with opposite scan terms (unwrapped)
    k0 = wavenumber(9.75)
    vf1, vf2 = layout.virtual_feeds
    closed = bifocal_phase_unwrapped(layout.ta, vf1, vf2, k0)
    theta = 31.0
    m1 = single_focus_phase_unwrapped(layout.ta, vf1, ScanTarget(theta, 180.0), k0)
    m2 = single_focus_phase_unwrapped(layout.ta, vf2, ScanTarget(theta, 0.0), k0)
    np.testing.assert_allclose((m1 + m2) / 2.0, closed, rtol=1e-9)


def test_bifocal_theta_independent_bit_exact(layout):
    k0 = wavenumber(9.75)
    vf1, vf2 = layout.virtual_feeds
    a = bifocal_phase(layout.ta, vf1, vf2, 20.0, k0)
    b = bifocal_phase(layout.ta, vf1, vf2, -20.0, k0)
    np.testing.assert_array_equal(a.phases_deg, b.phases_deg)


def test_bifocal_rejects_asymmetric_feeds():
    ap = _aperture(n=4)
    with pytest.raises(ValueError, match="symmetric"):
        bifocal_phase(ap, Point3(110.0, 0.0, 0.0), Point3(-100.0, 0.0, 0.0), 0.0, K0_10GHZ)
    with pytest.raises(ValueError, match="symmetric"):
        bifocal_phase(ap, Point3(110.0, 5.0, 0.0), Point3(-110.0, -5.0, 0.0), 0.0, K0_10GHZ)


def test_bifocal_degenerates_to_single_focus():
    ap = _aperture(n=10)
    feed = Point3(0.0, 0.0, 0.0)
    bi = bifocal_phase(ap, feed, feed, 0.0, K0_10GHZ)
    sf = single_focus_phase(ap, feed, ScanTarget(0.0), K0_10GHZ)
    np.testing.assert_allclose(bi.phases_deg, sf.phases_deg, atol=1e-9)


def test_wrap_is_idempotent(layout):
    pm = Side.TA.phase_map(layout, wavenumber(9.75))
    np.testing.assert_array_equal(wrap_deg(pm.phases_deg), pm.phases_deg)


def test_synthesize_ta_properties(layout):
    k0 = wavenumber(9.75)
    pm = Side.TA.phase_map(layout, k0)
    assert pm.phases_deg.shape == (40, 40)
    # symmetric in x about the center column and in y
    np.testing.assert_allclose(pm.phases_deg, pm.phases_deg[::-1, :], atol=1e-9)
    np.testing.assert_allclose(pm.phases_deg, pm.phases_deg[:, ::-1], atol=1e-9)
    # the closed form holds element-wise (checked on the innermost four)
    un = bifocal_phase_unwrapped(layout.ta, *layout.virtual_feeds, k0)
    x = layout.ta.x_centers()
    y = layout.ta.y_centers()
    for i in (19, 20):
        for j in (19, 20):
            r1 = math.sqrt((x[i] - 110.0) ** 2 + y[j] ** 2 + 171.0**2)
            r2 = math.sqrt((x[i] + 110.0) ** 2 + y[j] ** 2 + 171.0**2)
            assert un[i, j] == pytest.approx(
                math.degrees(k0 * (r1 + r2) / 2.0), rel=1e-12
            )


def test_synthesize_ta_center_element_value():
    # an odd grid puts an element exactly on the axis
    cfg = LayoutConfig(ta=ApertureConfig(size_mm=246.0, period_mm=6.0))
    lay = build_layout(cfg)
    assert lay.ta.nx == 41
    k0 = wavenumber(10.0)
    pm = Side.TA.phase_map(lay, k0)
    r = math.sqrt(110.0**2 + 171.0**2)
    assert pm.phases_deg[20, 20] == pytest.approx(
        wrap_deg(math.degrees(k0 * r)), abs=1e-9
    )


def test_synthesize_fta_center_element_value():
    cfg = LayoutConfig(fta=ApertureConfig(size_mm=370.0, period_mm=10.0))
    lay = build_layout(cfg)
    assert lay.fta.nx == 37
    k0 = wavenumber(10.0)
    pm = Side.FTA.phase_map(lay, k0)
    r = math.sqrt(110.0**2 + 384.0**2)
    assert pm.phases_deg[18, 18] == pytest.approx(
        wrap_deg(math.degrees(k0 * r)), abs=1e-9
    )


def test_fta_with_d_zero_is_on_axis_single_focus():
    cfg = LayoutConfig(d_mm=0.0)
    lay = build_layout(cfg)
    k0 = wavenumber(9.75)
    pm = Side.FTA.phase_map(lay, k0)
    sf = single_focus_phase(
        lay.fta, Point3(0.0, 0.0, 2.0 * lay.f), ScanTarget(0.0), k0
    )
    np.testing.assert_allclose(pm.phases_deg, sf.phases_deg, atol=1e-9)


def test_fta_h0_equals_ta_with_doubled_focal():
    # pure focal-length relabeling between the two synthesis paths
    shared = ApertureConfig(size_mm=240.0, period_mm=6.0)
    lay_fold = build_layout(LayoutConfig(f_mm=100.0, h_mm=0.0, fta=shared))
    lay_flat = build_layout(LayoutConfig(f_mm=200.0, h_mm=0.0, ta=shared))
    k0 = wavenumber(9.75)
    folded = Side.FTA.phase_map(lay_fold, k0)
    flat = Side.TA.phase_map(lay_flat, k0)
    np.testing.assert_allclose(folded.phases_deg, flat.phases_deg, atol=1e-9)


def test_elliptical_anisotropy_of_bifocal_map(layout):
    # the compensation surface is elongated along the virtual-feed axis:
    # it climbs more slowly along x than along y (the two-focus signature;
    # the single-focus map with d = 0 is isotropic)
    k0 = wavenumber(9.75)
    un = bifocal_phase_unwrapped(layout.ta, *layout.virtual_feeds, k0)
    x = layout.ta.x_centers()
    center = un.min()
    i_axis = int(np.argmin(np.abs(x - 111.0)))
    along_x = un[i_axis, 19] - center
    along_y = un[19, i_axis] - center
    assert along_x < along_y
    # minimum sits at the innermost elements (single central minimum)
    imin, jmin = np.unravel_index(np.argmin(un), un.shape)
    assert imin in (19, 20) and jmin in (19, 20)


# --- quantization -------------------------------------------------------------


def test_quantize_continuous_exact(layout, curves):
    k0 = wavenumber(9.75)
    pm = Side.TA.phase_map(layout, k0)
    cm = quantize(pm, curves.curve("uc1", 9.75))
    assert cm.max_residual_deg <= 1e-6
    assert cm.params_mm.shape == (40, 40)
    assert 0.5 <= cm.params_mm[0, 0] <= 4.6


def test_quantize_coarse_two_sample_curve(layout):
    # a 2-sample curve interpolates linearly both ways: residual stays far
    # below the half-step bound
    coarse = PhaseCurve("L", [0.5, 4.6], [0.0, 180.0], [0.0, 0.0])
    pm = Side.TA.phase_map(layout, wavenumber(9.75))
    cm = quantize(pm, coarse)
    assert cm.max_residual_deg <= 90.0  # half the (single) 180-degree step
    assert cm.max_residual_deg <= 1e-9


def test_quantize_all_zero_map(curves):
    ap = _aperture(n=4)
    pm = PhaseMap(aperture=ap, phases_deg=np.zeros((4, 4)))
    cm = quantize(pm, curves.curve("uc1", 9.75))
    assert np.all(cm.params_mm == cm.params_mm[0, 0])
    assert not cm.rotated.any()


def test_phase_map_validation():
    ap = _aperture(n=4)
    with pytest.raises(ValueError, match="wrapped"):
        PhaseMap(aperture=ap, phases_deg=np.full((4, 4), 361.0))
    one_nan = np.zeros((4, 4))
    one_nan[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        PhaseMap(aperture=ap, phases_deg=one_nan)
    with pytest.raises(ValueError, match="match"):
        PhaseMap(aperture=ap, phases_deg=np.zeros((3, 4)))


# --- exports ------------------------------------------------------------------


def test_csv_exports(tmp_path, layout, curves):
    k0 = wavenumber(9.75)
    pm = Side.TA.phase_map(layout, k0)
    cm = quantize(pm, curves.curve("uc1", 9.75))
    p1 = tmp_path / "ta_phase.csv"
    p2 = tmp_path / "ta_cells.csv"
    write_phase_map_csv(pm, p1)
    write_cell_map_csv(pm, cm, p2)
    lines = p1.read_text().splitlines()
    assert lines[0] == "i,j,x_mm,y_mm,phase_deg"
    assert len(lines) == 1 + 40 * 40
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[2]) == -117.0
    assert 0.0 <= float(first[4]) < 360.0
    cells = p2.read_text().splitlines()
    assert cells[0] == "i,j,x_mm,y_mm,phase_deg,param_mm,rotated"
    assert len(cells) == 1 + 40 * 40
    assert cells[1].split(",")[6] in ("0", "1")
    # deterministic re-run
    p3 = tmp_path / "again.csv"
    write_phase_map_csv(pm, p3)
    assert p3.read_bytes() == p1.read_bytes()
