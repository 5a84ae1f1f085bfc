"""Tests for the square-law MOSFET model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.mosfet import MosfetModel, Region
from repro.simulation.technology import CMOS_45NM


@pytest.fixture
def nmos_model() -> MosfetModel:
    return MosfetModel(CMOS_45NM, "nmos", width=10e-6, fingers=4)


@pytest.fixture
def pmos_model() -> MosfetModel:
    return MosfetModel(CMOS_45NM, "pmos", width=10e-6, fingers=4)


class TestRegions:
    def test_cutoff(self, nmos_model):
        assert nmos_model.region(vgs=0.2, vds=0.6) is Region.CUTOFF
        assert nmos_model.drain_current(0.2, 0.6) == 0.0

    def test_triode_and_saturation(self, nmos_model):
        assert nmos_model.region(vgs=0.8, vds=0.1) is Region.TRIODE
        assert nmos_model.region(vgs=0.8, vds=0.6) is Region.SATURATION

    def test_pmos_regions_mirror_nmos(self, pmos_model):
        assert pmos_model.region(vgs=-0.8, vds=-0.6) is Region.SATURATION
        assert pmos_model.region(vgs=-0.8, vds=-0.1) is Region.TRIODE
        assert pmos_model.region(vgs=-0.2, vds=-0.6) is Region.CUTOFF


class TestCurrents:
    def test_saturation_value_matches_square_law(self, nmos_model):
        vov = 0.3
        expected = 0.5 * CMOS_45NM.kp_n * nmos_model.strength * vov**2
        current = nmos_model.drain_current(CMOS_45NM.vth_n + vov, 1.0)
        assert current == pytest.approx(expected * (1 + CMOS_45NM.lambda_n * 1.0))

    def test_pmos_current_sign(self, pmos_model):
        assert pmos_model.drain_current(-0.8, -0.6) < 0.0
        assert pmos_model.drain_current(-0.2, -0.6) == 0.0

    def test_current_continuous_at_saturation_boundary(self, nmos_model):
        vov = 0.25
        vgs = CMOS_45NM.vth_n + vov
        below = nmos_model.drain_current(vgs, vov - 1e-6)
        above = nmos_model.drain_current(vgs, vov + 1e-6)
        assert below == pytest.approx(above, rel=1e-3)

    def test_symmetric_for_negative_vds(self, nmos_model):
        forward = nmos_model.drain_current(0.8, 0.2)
        reverse = nmos_model.drain_current(0.8, -0.2)
        assert reverse == pytest.approx(-forward)


class TestSmallSignal:
    def test_operating_point_gm_gds(self, nmos_model):
        op = nmos_model.operating_point(vgs=0.8, vds=0.8)
        assert op.region is Region.SATURATION
        assert op.gm > 0.0
        assert op.gds > 0.0
        assert op.ro == pytest.approx(1.0 / op.gds)
        assert op.overdrive == pytest.approx(0.4)

    def test_cutoff_small_signal_is_zero(self, nmos_model):
        op = nmos_model.operating_point(vgs=0.1, vds=0.5)
        assert op.gm == 0.0
        assert op.gds == 0.0
        assert op.ro == float("inf")

    def test_gm_at_current_consistency(self, nmos_model):
        """gm computed from current matches gm from the operating point."""
        vov = 0.3
        current = nmos_model.saturation_current(vov)
        gm_from_current = nmos_model.gm_at_current(current)
        expected = CMOS_45NM.kp_n * nmos_model.strength * vov
        assert gm_from_current == pytest.approx(expected, rel=1e-9)

    def test_ro_at_current(self, nmos_model):
        assert nmos_model.ro_at_current(1e-4) == pytest.approx(1.0 / (CMOS_45NM.lambda_n * 1e-4))
        assert nmos_model.ro_at_current(0.0) == float("inf")

    def test_gate_capacitance_scales_with_area(self):
        small = MosfetModel(CMOS_45NM, "nmos", 10e-6, 2)
        large = MosfetModel(CMOS_45NM, "nmos", 20e-6, 4)
        assert large.gate_capacitance() == pytest.approx(4 * small.gate_capacitance())


class TestValidation:
    def test_polarity_check(self):
        with pytest.raises(ValueError):
            MosfetModel(CMOS_45NM, "jfet", 1e-6, 2)

    def test_strength_requires_positive_geometry(self):
        with pytest.raises(ValueError):
            CMOS_45NM.strength(0.0, 2)


@settings(max_examples=40, deadline=None)
@given(
    vgs=st.floats(min_value=0.0, max_value=1.2),
    vds=st.floats(min_value=0.01, max_value=1.2),
    width_um=st.floats(min_value=1.0, max_value=100.0),
)
def test_property_current_monotone_in_vgs_and_width(vgs, vds, width_um):
    """Drain current never decreases with gate drive or with device width."""
    model = MosfetModel(CMOS_45NM, "nmos", width_um * 1e-6, 4)
    wider = MosfetModel(CMOS_45NM, "nmos", (width_um + 10.0) * 1e-6, 4)
    base = model.drain_current(vgs, vds)
    assert model.drain_current(vgs + 0.1, vds) >= base
    assert wider.drain_current(vgs, vds) >= base
    assert base >= 0.0
