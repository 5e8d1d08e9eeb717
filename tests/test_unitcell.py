import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htasim.unitcell import (
    PhaseCurve,
    ScatterCoeffs,
    builtin_curve_library,
    library_with_csv_overrides,
    load_curve_csv,
    pcr,
    uc1_scatter_model,
)

# the default band and the ends of the PCR model's 7..13 GHz range
_FREQUENCIES_GHZ = (7.0, 9.0, 9.75, 10.5, 13.0)


# --- conversion rate ---------------------------------------------------------


def test_pcr_perfect_conversion():
    assert pcr(ScatterCoeffs(1.0, 0.0, 0.0, 0.0)) == 1.0


def test_pcr_direct_arithmetic():
    # independent evaluation of the defining ratio
    num = 0.98**2
    den = 0.98**2 + 0.1**2 + 0.1**2 + 0.15**2
    got = pcr(ScatterCoeffs(0.98, 0.1, 0.1, 0.15))
    assert got == pytest.approx(num / den, rel=1e-15)
    assert got == pytest.approx(0.9576, abs=5e-5)


def test_pcr_equal_magnitudes():
    s = ScatterCoeffs(0.3, 0.3, 0.3, 0.3)
    assert pcr(s) == pytest.approx(0.25, rel=1e-15)


def test_pcr_scale_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        coeffs = rng.normal(size=4) * 0.4 + 1j * rng.normal(size=4) * 0.4
        coeffs /= max(1.0, 4.0 * np.linalg.norm(coeffs))
        s = ScatterCoeffs(*coeffs)
        c = complex(rng.normal(), rng.normal()) * 0.5
        scaled = ScatterCoeffs(*(v * c for v in coeffs))
        assert pcr(scaled) == pytest.approx(pcr(s), rel=1e-12)


def test_pcr_all_zero_rejected():
    with pytest.raises(ValueError):
        pcr(ScatterCoeffs(0.0, 0.0, 0.0, 0.0))


def test_passivity_enforced():
    with pytest.raises(ValueError):
        ScatterCoeffs(1.0, 0.5, 0.0, 0.0)


def test_uc1_model_band_conversion_rate():
    freqs = np.arange(7.0, 13.01, 0.25)
    rates = [pcr(uc1_scatter_model(f)) for f in freqs]
    assert min(rates) >= 0.928
    # band center is the best point of the model
    assert pcr(uc1_scatter_model(10.0)) == max(rates)


# --- phase curves ------------------------------------------------------------


def test_builtin_curves_cover_both_families(curves):
    uc1 = curves.curve("uc1", 9.75)
    uc2 = curves.curve("uc2", 9.75)
    assert uc1.param_name == "L"
    assert uc1.param_range == (0.5, 4.6)
    assert uc2.param_name == "W"
    assert uc2.param_range == (1.5, 4.0)
    with pytest.raises(KeyError):
        curves.curve("uc3", 9.75)


def test_curve_endpoint_span_180(curves):
    for kind in ("uc1", "uc2"):
        for f in _FREQUENCIES_GHZ:
            c = curves.curve(kind, f)
            assert abs(c.phases[-1] - c.phases[0]) == pytest.approx(180.0, abs=1e-12)


def test_parallel_frequency_shift(curves):
    # curves across the band, on the library's three points or off them,
    # share the design shape up to a constant offset
    mid = curves.curve("uc1", 9.75)
    for f in (9.0, 10.5, 11.0):
        c = curves.curve("uc1", f)
        np.testing.assert_allclose(c.phases - c.phases[0], mid.phases - mid.phases[0])
        assert c.phases[0] - mid.phases[0] == pytest.approx(40.0 * (f - 9.75))


def test_rotation_adds_half_turn(curves):
    c = curves.curve("uc1", 9.75)
    p = np.linspace(0.5, 4.6, 13)
    base = c.phase_at(p, rotated=False)
    rot = c.phase_at(p, rotated=True)
    np.testing.assert_allclose((rot - base) % 360.0, 180.0, rtol=0.0, atol=1e-9)


def test_endpoint_phases(curves):
    c = curves.curve("uc1", 9.75)
    assert c.phase_at(0.5) == 0.0
    assert c.phase_at(4.6) == 180.0


def test_linear_interpolation_midpoint():
    c = PhaseCurve("L", [1.0, 3.0], [0.0, 180.0], [0.0, 0.0])
    assert float(c.phase_at(2.0)) == pytest.approx(90.0)


def test_parameter_out_of_range(curves):
    c = curves.curve("uc1", 9.75)
    with pytest.raises(ValueError):
        c.phase_at(5.0)
    with pytest.raises(ValueError):
        c.magnitude_at(0.4)


def test_lookup_endpoints(curves):
    c = curves.curve("uc1", 9.75)
    param, rotated = c.invert(c.phase_at(0.5))
    assert (float(param), bool(rotated)) == (0.5, False)
    param, rotated = c.invert((c.phase_at(0.5) + 180.0) % 360.0)
    assert (float(param), bool(rotated)) == (0.5, True)


def test_lookup_round_trip_64(curves):
    for kind in ("uc1", "uc2"):
        c = curves.curve(kind, 9.75)
        targets = np.linspace(0.0, 360.0, 64, endpoint=False)
        params, rotated = c.invert(targets)
        realized = c.phase_at(params, rotated)
        err = np.abs((realized - targets + 180.0) % 360.0 - 180.0)
        assert err.max() <= 1e-6


def test_lookup_rotation_branch_is_half_circle(curves):
    c = curves.curve("uc1", 9.75)
    targets = np.arange(360.0)
    _, rotated = c.invert(targets)
    assert int(np.sum(rotated)) == 180


def test_lookup_identity_mod_rotation(curves):
    # invert(phase_at(cell)) returns the cell or its 180-degree twin
    c = curves.curve("uc2", 9.75)
    rng = np.random.default_rng(21)
    for _ in range(50):
        param, rot = rng.uniform(1.5, 4.0), rng.choice([True, False])
        back_param, back_rot = c.invert(c.phase_at(param, rot))
        assert float(back_param) == pytest.approx(param, abs=1e-9)
        if back_rot != rot:
            diff = (c.phase_at(back_param, back_rot) - c.phase_at(param, rot)) % 360.0
            assert float(diff) == pytest.approx(0.0, abs=1e-9)


def test_magnitudes(curves):
    uc1 = curves.curve("uc1", 9.75)
    uc2 = curves.curve("uc2", 9.75)
    assert np.all(uc1.magnitude_at(np.linspace(0.5, 4.6, 9)) == 0.0)
    mags = uc2.magnitude_at(np.linspace(1.5, 4.0, 101))
    assert mags.min() >= -1.1
    assert uc2.magnitude_at(1.5) == -1.1  # worst case
    # rotation is phase-only: magnitude_at takes no rotation flag


def test_monotonicity_validated():
    with pytest.raises(ValueError, match="monotone"):
        PhaseCurve("L", [0.5, 1.0, 2.0], [0.0, 50.0, 40.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="increasing"):
        PhaseCurve("L", [0.5, 0.5, 2.0], [0.0, 50.0, 180.0], [0.0, 0.0, 0.0])


def test_span_validated():
    with pytest.raises(ValueError, match="span"):
        PhaseCurve("L", [0.5, 4.6], [0.0, 120.0], [0.0, 0.0])


def test_curve_values_are_finite_and_passive():
    good = ([0.5, 4.6], [0.0, 180.0], [0.0, 0.0])
    for column in range(3):
        for bad in (math.inf, -math.inf, math.nan):
            values = [list(v) for v in good]
            values[column][1] = bad
            with pytest.raises(ValueError, match="finite"):
                PhaseCurve("L", *values)
    # the passivity slack of ScatterCoeffs: 1 % power, 0.0432 dB
    PhaseCurve("L", [0.5, 4.6], [0.0, 180.0], [0.0, 0.0432])
    with pytest.raises(ValueError, match="not passive"):
        PhaseCurve("L", [0.5, 4.6], [0.0, 180.0], [0.0, 0.0433])


def test_decreasing_curve_supported():
    c = PhaseCurve("W", [1.0, 2.0, 3.0], [180.0, 70.0, 0.0], [0.0, -0.5, 0.0])
    for target in (35.0, 300.0):
        param, rotated = c.invert(target)
        assert float(c.phase_at(param, rotated)) == pytest.approx(target, abs=1e-9)


@st.composite
def _monotone_curves(draw):
    """Curves PhaseCurve accepts: strictly increasing parameters, strictly
    monotone phases in either direction, a span within 180 +- 10 deg."""
    n = draw(st.integers(2, 8))
    param_steps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1)))
    span = draw(st.floats(170.5, 189.5))
    direction = draw(st.sampled_from([1.0, -1.0]))
    start = draw(st.floats(-360.0, 360.0))
    params = draw(st.floats(0.0, 5.0)) + np.concatenate([[0.0], np.cumsum(param_steps)])
    phases = start + direction * span * np.concatenate([[0.0], np.cumsum(weights) / weights.sum()])
    return PhaseCurve("p", params, phases, np.zeros(n))


@settings(database=None, max_examples=100, deadline=None)
@given(_monotone_curves(), st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=1, max_size=16))
def test_invert_realizes_any_target(curve, targets):
    # a span short of the half circle leaves a gap that invert clamps into
    t = np.array(targets)
    realized = curve.phase_at(*curve.invert(t))
    err = np.abs((realized - t + 180.0) % 360.0 - 180.0)
    span = abs(curve.phases[-1] - curve.phases[0])
    assert err.max() <= max(0.0, 180.0 - span) + 1e-9


# --- CSV loading --------------------------------------------------------------


def test_curve_csv_round_trip(tmp_path, curves):
    ref = curves.curve("uc1", 9.75)
    path = tmp_path / "uc1.csv"
    with open(path, "w") as fh:
        fh.write("param_mm,phase_deg,mag_db\n")
        for p, ph, mg in zip(ref.params, ref.phases, ref.mags):
            fh.write(f"{p},{ph},{mg}\n")
    loaded = load_curve_csv(path, "L")
    np.testing.assert_allclose(loaded.params, ref.params)
    np.testing.assert_allclose(loaded.phases, ref.phases)
    np.testing.assert_allclose(loaded.mags, ref.mags)


def test_curve_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="param_mm"):
        load_curve_csv(path, "L")


def test_library_with_override(tmp_path, curves):
    ref = curves.curve("uc2", 9.75)
    path = tmp_path / "uc2.csv"
    with open(path, "w") as fh:
        fh.write("param_mm,phase_deg,mag_db\n")
        for p, ph, mg in zip(ref.params, ref.phases, ref.mags):
            fh.write(f"{p},{ph},{mg}\n")
    lib = library_with_csv_overrides(uc2_csv=path)
    # the loaded curve is reused at every frequency
    for f in _FREQUENCIES_GHZ:
        np.testing.assert_allclose(lib.curve("uc2", f).phases, ref.phases)
    # uc1 still comes from the built-in set
    assert lib.curve("uc1", 9.0).phases[0] != lib.curve("uc1", 10.5).phases[0]
