"""The aperture-power gain against three classical oracles.

G_ap = (k0^2 p_x p_y / pi) |E_co(peak)|^2 / sum |a_ij|^2 is the gain of
an aperture field a radiated by `radiate` (Balanis, *Antenna Theory*,
ch. 12): the peak intensity over the power the aperture passes, not over
the power the sampled hemisphere catches.  The engine prints no G_ap yet,
so these tests pin the formula and its inputs, not an output.
"""

import math

import numpy as np
import pytest

from htasim.farfield import (
    ApertureField,
    Side,
    SimulationSettings,
    feed_pattern_for,
    illuminate,
    radiate,
    synthesize_cell_maps,
)
from htasim.feed import FeedExcitation
from htasim.polarization import PolarizationState
from htasim.synthesis import C_MM_PER_NS, wavenumber

FREQ_GHZ = 9.75
K0 = wavenumber(FREQ_GHZ)
#: the sweep's metrics grid (theta step, phi step), degrees
GRID = (0.5, 2.0)
#: phase-error draws per case, and their seed
DRAWS, SEED = 8, 1966


def _aperture_gain(aperture, ey: np.ndarray) -> np.ndarray:
    """G_ap of each beam of a (beams, nx, ny) stack of aperture fields,
    its peak read on `GRID`."""
    field = ApertureField(aperture=aperture, ex=np.zeros_like(ey), ey=ey)
    e_co = radiate(field, *GRID, K0).e_co
    peak = np.abs(e_co).max(axis=(-2, -1)) ** 2
    power = np.sum(np.abs(ey) ** 2, axis=(-2, -1))
    return K0**2 * aperture.period**2 / math.pi * peak / power


def _beam(layout, curves, side: Side, state: PolarizationState, feed_id: str):
    """`illuminate`'s ey for one beam at the default settings, with the
    side's cell map and curve."""
    cm, curve, _ = synthesize_cell_maps(layout, curves, FREQ_GHZ)[side]
    pattern = feed_pattern_for(layout, SimulationSettings(frequency_ghz=FREQ_GHZ))
    excitation = FeedExcitation(placement=layout.feed(feed_id), pattern=pattern, state=state)
    return illuminate(layout, excitation, side, cm, curve, K0).ey, cm, curve


@pytest.mark.parametrize("side", list(Side))
def test_uniform_aperture_gain_is_4_pi_area_over_wavelength_squared(layout, side):
    aperture = side.aperture(layout)
    wavelength = C_MM_PER_NS / FREQ_GHZ
    [gain] = _aperture_gain(aperture, np.ones((1, aperture.nx, aperture.ny), complex))
    assert gain == pytest.approx(4.0 * math.pi * aperture.area_mm2 / wavelength**2, rel=1e-12)


_BEAMS = [
    (Side.TA, PolarizationState.X, "A4"),
    (Side.FTA, PolarizationState.Y, "A4"),
    (Side.FTA, PolarizationState.Y, "A6"),
]


@pytest.mark.parametrize("sigma", [0.3, 0.6])
@pytest.mark.parametrize("side, state, feed_id", _BEAMS)
def test_random_phase_errors_cost_the_ruze_loss(layout, curves, side, state, feed_id, sigma):
    # Ruze, "Antenna tolerance theory -- a review", Proc. IEEE, 1966:
    # uncorrelated phase errors of deviation sigma scale the gain by
    # exp(-sigma^2)
    ey, _, _ = _beam(layout, curves, side, state, feed_id)
    errors = np.random.default_rng(SEED).normal(0.0, sigma, (DRAWS, *ey.shape))
    gains = _aperture_gain(side.aperture(layout), np.concatenate([ey[None], ey * np.exp(1j * errors)]))
    loss_db = 10.0 * np.log10(gains[1:] / gains[0])
    standard_error = loss_db.std(ddof=1) / math.sqrt(DRAWS)
    ruze_db = 10.0 * math.log10(math.exp(-(sigma**2)))
    assert abs(loss_db.mean() - ruze_db) <= 3.0 * standard_error


@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("feed_id", ["A4", "A6"])
def test_rounded_phases_cost_the_quantization_loss(layout, curves, feed_id, bits):
    # rounding each cell's realized phase to one of 2^b levels leaves an
    # error uniform over one level, which scales the field by sinc(1/2^b)
    ey, cm, curve = _beam(layout, curves, Side.FTA, PolarizationState.Y, feed_id)
    realized = curve.phase_at(cm.params_mm, cm.rotated)
    level = 360.0 / 2**bits
    board = ey * np.exp(1j * np.radians(np.round(realized / level) * level - realized))
    nominal, rounded = _aperture_gain(layout.fta, np.stack([ey, board]))
    law_db = 20.0 * math.log10(np.sinc(1.0 / 2**bits))
    assert 10.0 * math.log10(rounded / nominal) == pytest.approx(law_db, abs=0.3)
