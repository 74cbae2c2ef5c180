"""Tri-state reduced-swing driver (RSD) — Fig. 4's datapath circuit.

The 4-PMOS-stacked tri-state RSD drives the crossbar vertical wires and
links with a ~300 mV differential swing from a dedicated low supply
(LVDD).  Compared with generating a reduced swing by simply lowering
the supply, the stacked design keeps a high current drive (low linear
drive resistance) at small Vds, which is what allows single-cycle
ST+LT at multi-GHz rates.  The tri-state output lets one driver per
crosspoint energise only the selected vertical wire(s), giving the
energy-proportional multicast of Fig. 11.

Model calibration (see DESIGN.md): the defaults reproduce the measured
5.4 GHz (1mm) and 2.6 GHz (2mm) single-cycle rates and the up-to-3.2x
energy advantage over an equivalent full-swing repeated wire at the
300 mV design point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.repeater import FullSwingRepeatedLink
from repro.circuits.technology import TECH_45NM_SOI
from repro.circuits.wire import Wire


@dataclass(frozen=True)
class TriStateRSD:
    """A tri-state RSD driving a differential wire of ``length_mm``."""

    length_mm: float
    swing_v: float = 0.3
    tech: object = TECH_45NM_SOI
    drive_res: float = 700.0  # ohms, the stacked-PMOS linear resistance
    clk_overhead_ps: float = 30.0  # clk-to-q plus setup of the latches
    enable_energy_fj: float = 23.0  # enable distribution + delay cell

    def __post_init__(self):
        if not (0 < self.swing_v <= self.tech.lvdd):
            raise ValueError(
                f"swing must lie inside (0, LVDD={self.tech.lvdd}V]"
            )
        if self.length_mm <= 0:
            raise ValueError("length must be positive")

    @property
    def wire(self):
        return Wire(self.length_mm, self.tech, differential=True)

    # ------------------------------------------------------------ delay

    def develop_time_ps(self):
        """Time for each leg to move swing/2 toward the LVDD rail.

        An exponential RC settle toward LVDD reaches a per-leg
        excursion of Vs/2 after tau * ln(LVDD / (LVDD - Vs/2)); tau is
        the Elmore time constant of driver plus distributed wire.
        """
        leg_cap = self.wire.capacitance / 2  # per leg
        tau_ps = (
            self.drive_res * leg_cap + self.wire.resistance * leg_cap / 2
        ) * 1e-3
        factor = math.log(self.tech.lvdd / (self.tech.lvdd - self.swing_v / 2))
        return factor * tau_ps

    def traversal_delay_ps(self):
        """ST+LT delay: swing development plus sense amplification."""
        return self.develop_time_ps() + self.tech.sense_amp_delay_ps

    def max_clock_ghz(self):
        """Highest clock at which this hop completes in a single cycle."""
        period_ps = self.traversal_delay_ps() + self.clk_overhead_ps
        return 1000.0 / period_ps

    # ----------------------------------------------------------- energy

    def energy_per_bit_fj(self, alpha=0.5):
        """Dynamic energy per transmitted bit.

        Charge C*Vs drawn from the LVDD rail, the sense amplifier
        evaluation, and the enable/delay-cell distribution.
        """
        wire_e = self.wire.low_swing_energy_fj(self.swing_v, alpha)
        return wire_e + self.tech.sense_amp_energy_fj + self.enable_energy_fj

    def energy_advantage(self, alpha=0.5):
        """Energy ratio of the equivalent full-swing repeated wire (Fig. 7)."""
        full = FullSwingRepeatedLink(self.length_mm, self.tech)
        return full.energy_per_bit_fj(alpha) / self.energy_per_bit_fj(alpha)

    def with_swing(self, swing_v):
        """Same driver at a different design swing (Fig. 10 sweeps)."""
        return TriStateRSD(
            length_mm=self.length_mm,
            swing_v=swing_v,
            tech=self.tech,
            drive_res=self.drive_res,
            clk_overhead_ps=self.clk_overhead_ps,
            enable_energy_fj=self.enable_energy_fj,
        )
