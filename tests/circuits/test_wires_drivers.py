"""Wire, repeater and RSD circuit models (Sections 3.4 and 4.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.circuits.repeater import FullSwingRepeatedLink
from repro.circuits.rsd import TriStateRSD
from repro.circuits.technology import TECH_45NM_SOI
from repro.circuits.wire import Wire


class TestWire:
    def test_rc_scales_linearly(self):
        w1, w2 = Wire(1.0), Wire(2.0)
        assert w2.resistance == pytest.approx(2 * w1.resistance)
        assert w2.capacitance == pytest.approx(2 * w1.capacitance)

    def test_differential_doubles_cap(self):
        assert Wire(1.0, differential=True).capacitance == pytest.approx(
            2 * Wire(1.0).capacitance
        )

    def test_elmore_superlinear_in_length(self):
        d1 = Wire(1.0).elmore_delay_ps(500)
        d2 = Wire(2.0).elmore_delay_ps(500)
        assert d2 > 2 * d1  # the RC^2 term

    def test_full_swing_energy(self):
        w = Wire(1.0)
        e = w.full_swing_energy_fj(alpha=1.0)
        assert e == pytest.approx(w.capacitance * 1.1**2)

    def test_low_swing_energy_linear_in_swing(self):
        w = Wire(1.0)
        assert w.low_swing_energy_fj(0.3) == pytest.approx(
            1.5 * w.low_swing_energy_fj(0.2)
        )

    def test_low_swing_beats_full_swing(self):
        w = Wire(1.0)
        assert w.low_swing_energy_fj(0.3) < w.full_swing_energy_fj()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Wire(0)
        with pytest.raises(ValueError):
            Wire(1.0).low_swing_energy_fj(0)

    @given(st.floats(0.1, 5.0))
    def test_delay_positive_and_monotone_in_driver(self, length):
        w = Wire(length)
        assert w.elmore_delay_ps(200) < w.elmore_delay_ps(2000)


class TestRepeatedLink:
    def test_repeater_count_grows_with_length(self):
        assert (
            FullSwingRepeatedLink(2.0).num_repeaters
            > FullSwingRepeatedLink(0.5).num_repeaters
        )

    def test_delay_roughly_linear_with_repeaters(self):
        d1 = FullSwingRepeatedLink(1.0).delay_ps()
        d4 = FullSwingRepeatedLink(4.0).delay_ps()
        assert 3.0 < d4 / d1 < 5.5

    def test_energy_includes_repeaters(self):
        link = FullSwingRepeatedLink(1.0)
        wire_only = Wire(1.0).full_swing_energy_fj()
        assert link.energy_per_bit_fj() > wire_only

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            FullSwingRepeatedLink(0)


class TestTriStateRSD:
    """Measured anchors: 5.4 GHz at 1mm, 2.6 GHz at 2mm, 3.2x energy."""

    def test_max_clock_1mm(self):
        assert TriStateRSD(1.0).max_clock_ghz() == pytest.approx(5.4, rel=0.05)

    def test_max_clock_2mm(self):
        assert TriStateRSD(2.0).max_clock_ghz() == pytest.approx(2.6, rel=0.05)

    def test_energy_advantage_1mm(self):
        assert TriStateRSD(1.0).energy_advantage() == pytest.approx(3.2, rel=0.05)

    def test_supports_chip_clock(self):
        """Single-cycle ST+LT at the chip's 1 GHz has ample margin."""
        assert TriStateRSD(1.0).max_clock_ghz() > 1.0

    def test_energy_linear_in_swing(self):
        r2 = TriStateRSD(1.0, swing_v=0.2)
        r3 = TriStateRSD(1.0, swing_v=0.3)
        wire2 = r2.energy_per_bit_fj() - r2.tech.sense_amp_energy_fj - 23.0
        wire3 = r3.energy_per_bit_fj() - r3.tech.sense_amp_energy_fj - 23.0
        assert wire3 / wire2 == pytest.approx(1.5)

    def test_smaller_swing_saves_energy(self):
        assert (
            TriStateRSD(1.0, swing_v=0.15).energy_per_bit_fj()
            < TriStateRSD(1.0, swing_v=0.30).energy_per_bit_fj()
        )

    def test_smaller_swing_is_faster(self):
        assert (
            TriStateRSD(1.0, swing_v=0.15).max_clock_ghz()
            > TriStateRSD(1.0, swing_v=0.30).max_clock_ghz()
        )

    def test_swing_must_fit_under_lvdd(self):
        with pytest.raises(ValueError):
            TriStateRSD(1.0, swing_v=0.5)  # above LVDD = 0.4
        with pytest.raises(ValueError):
            TriStateRSD(1.0, swing_v=0.0)
        # a full-rail swing is Fig. 10's last grid point
        assert TriStateRSD(1.0).with_swing(0.4).swing_v == 0.4

    def test_with_swing_preserves_geometry(self):
        base = TriStateRSD(1.0)
        varied = base.with_swing(0.2)
        assert varied.length_mm == base.length_mm
        assert varied.drive_res == base.drive_res
        assert varied.swing_v == 0.2

    @given(st.floats(0.3, 3.0))
    def test_longer_is_slower(self, length):
        assert (
            TriStateRSD(length + 0.5).max_clock_ghz()
            < TriStateRSD(length).max_clock_ghz()
        )

    def test_driver_resistance_dominates_short_wires(self):
        """fmax falls ~2x (not 4x) from 1mm to 2mm: Rdrv dominates."""
        ratio = TriStateRSD(1.0).max_clock_ghz() / TriStateRSD(2.0).max_clock_ghz()
        assert 1.8 < ratio < 2.5

    def test_technology_constants(self):
        assert TECH_45NM_SOI.vdd == 1.1
        assert TECH_45NM_SOI.lvdd == 0.4
        assert TECH_45NM_SOI.nominal_swing_mv == 300.0
        r, c = TECH_45NM_SOI.wire_rc(1.0)
        assert r == pytest.approx(1000.0)
        assert c == pytest.approx(200.0)
