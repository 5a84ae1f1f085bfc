"""Vectorized simulator kernels: batched bitwise twins of the scalar evaluators.

Each kernel evaluates ``K`` parameter vectors (one per environment) in a
handful of numpy array operations, producing exactly the spec/detail values
the scalar simulator would produce per row.  Bitwise fidelity rests on a few
rules applied throughout:

* every expression mirrors the scalar association exactly — e.g.
  ``((0.5 * kp) * strength) * (ov * ov)`` lanes match the scalar
  ``0.5 * self.kp * self.strength * (overdrive * overdrive)`` chain because
  numpy elementwise arithmetic on float64 is the same IEEE operation;
* scalar ``if``/``min``/``max`` branches become ``np.where`` with the exact
  predicate (``min(x, y)`` is ``np.where(y < x, y, x)``, preserving NaN and
  signed-zero behaviour that ``np.minimum`` does not);
* both-branch evaluation runs under ``np.errstate`` so unselected lanes may
  divide by zero or multiply infinities silently;
* scalar library calls (``np.sqrt``, ``np.arctan2``, ``np.degrees``,
  ``np.clip``) vectorize bitwise-identically.

The MNA-method kernels sweep all ``K`` small-signal circuits through one
:class:`~repro.simulation.mna.BatchedMNAPlan` — the engine the scalar
``ac_analysis`` runs at ``K = 1`` — and post-process each lane with the
scalar simulators' own
:func:`~repro.simulation.mna.frequency_response_metrics`.

Kernels are constructed by :func:`build_simulator_kernel`, which recognizes
the exact simulator types it has a twin for and raises
:class:`UntraceableError` for anything else (subclasses included — an
override could change the arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.netlist import Netlist
from repro.compile.errors import UntraceableError
from repro.simulation.mna import (
    SWEEP_FREQUENCIES,
    BatchedMNAPlan,
    ConvergenceError,
    frequency_response_metrics,
)
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator
from repro.simulation.technology import CmosTechnology

TWO_PI = 2.0 * math.pi


@dataclass
class KernelResult:
    """Column-oriented batched simulation output (one lane per environment)."""

    specs: Dict[str, np.ndarray]
    details: Dict[str, np.ndarray]
    valid: np.ndarray  # (K,) bool

    def spec_dict(self, k: int) -> Dict[str, float]:
        """Row ``k`` as the exact dict the scalar ``simulate`` would build."""
        return {name: float(column[k]) for name, column in self.specs.items()}

    def detail_dict(self, k: int) -> Dict[str, float]:
        return {name: float(column[k]) for name, column in self.details.items()}

    @staticmethod
    def _rows(columns: Dict[str, np.ndarray]) -> "list[Dict[str, float]]":
        # One C-level tolist() per column instead of K*S float() calls;
        # float64 -> Python float conversion is bit-exact either way.
        names = list(columns)
        stacked = [columns[name].tolist() for name in names]
        return [
            dict(zip(names, row)) for row in zip(*stacked)
        ]

    def spec_rows(self) -> "list[Dict[str, float]]":
        """All rows at once; ``spec_rows()[k] == spec_dict(k)``."""
        return self._rows(self.specs)

    def detail_rows(self) -> "list[Dict[str, float]]":
        return self._rows(self.details)


def param_flat_index(netlist: Netlist, device: str, attribute: str) -> int:
    """Index of ``(device, attribute)`` in ``netlist.parameter_array()``.

    ``parameter_array`` walks devices in insertion order and extends each
    device's parameter dict values in *its* insertion order; this mirrors
    that walk.
    """
    offset = 0
    for dev in netlist:
        keys = list(dev.parameters)
        if dev.name == device:
            if attribute not in dev.parameters:
                raise UntraceableError(
                    f"device '{device}' has no parameter '{attribute}'"
                )
            return offset + keys.index(attribute)
        offset += len(keys)
    raise UntraceableError(f"netlist has no device '{device}'")


def _where_min(a: np.ndarray, b) -> np.ndarray:
    """Vector twin of Python ``min(a, b)`` (returns ``b`` only if ``b < a``)."""
    return np.where(b < a, b, a)


def _where_max(a: np.ndarray, b) -> np.ndarray:
    """Vector twin of Python ``max(a, b)`` (returns ``b`` only if ``b > a``)."""
    return np.where(b > a, b, a)


def _saturation_current(kp, strength: np.ndarray, overdrive) -> np.ndarray:
    """Twin of ``MosfetModel.saturation_current`` over a strength vector.

    ``kp`` and ``overdrive`` may be scalars (the single-technology kernel) or
    per-lane vectors (corner lanes bound via ``bind_lane_technologies``); the
    scalar cutoff branch becomes the exact ``np.where`` predicate, which is
    bitwise identical either way because the selected lanes evaluate the same
    IEEE expression chain.
    """
    current = ((0.5 * kp) * strength) * (overdrive * overdrive)
    return np.where(overdrive <= 0.0, 0.0, current)


def _gm_at_current(kp: float, strength: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Twin of ``MosfetModel.gm_at_current``."""
    with np.errstate(invalid="ignore"):
        gm = np.sqrt(((2.0 * kp) * strength) * current)
    return np.where(current <= 0.0, 0.0, gm)


def _ro_at_current(channel_lambda: float, current: np.ndarray) -> np.ndarray:
    """Twin of ``MosfetModel.ro_at_current``."""
    with np.errstate(divide="ignore"):
        ro = 1.0 / (channel_lambda * current)
    return np.where(current <= 0.0, np.inf, ro)


def _parallel_vec(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Twin of ``opamp_sim._parallel``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        combined = (r1 * r2) / (r1 + r2)
    return np.where(np.isinf(r1), r2, np.where(np.isinf(r2), r1, combined))


def _gate_capacitance(
    cox_per_area: float, l_ref: float, width: np.ndarray, fingers: np.ndarray
) -> np.ndarray:
    """Twin of ``MosfetModel.gate_capacitance``."""
    area = (width * fingers) * l_ref
    return cox_per_area * area


def _phase_margin_vec(
    unity_freq: np.ndarray,
    dominant_pole: np.ndarray,
    output_pole: np.ndarray,
    zero: np.ndarray,
    dc_gain: np.ndarray,
) -> np.ndarray:
    """Twin of ``OpAmpSimulator._phase_margin`` (``x - 0.0 == x`` bitwise)."""
    returns_zero = (unity_freq <= 0.0) | (dc_gain <= 1.0) | (dominant_pole <= 0.0)
    phase = -np.degrees(np.arctan2(unity_freq, dominant_pole))
    phase = phase - np.where(
        output_pole > 0.0, np.degrees(np.arctan2(unity_freq, output_pole)), 0.0
    )
    phase = phase - np.where(zero > 0.0, np.degrees(np.arctan2(unity_freq, zero)), 0.0)
    margin = 180.0 + phase
    return np.where(returns_zero, 0.0, np.clip(margin, 0.0, 180.0))


def _require_cmos(simulator) -> CmosTechnology:
    technology = simulator.technology
    if type(technology) is not CmosTechnology:
        raise UntraceableError(
            f"unsupported technology type {type(technology).__name__}"
        )
    return technology


def _bind_cmos_lanes(kernel, technologies) -> None:
    """Rebind a kernel's technology constants to one technology per lane.

    Shared implementation of ``bind_lane_technologies`` for the CMOS
    kernels: lane ``k`` of ``evaluate`` then computes with
    ``technologies[k]``'s constants.  Because every kernel expression is
    elementwise over lanes, each lane stays bitwise identical to a kernel
    constructed from a simulator carrying that lane's technology — this is
    what lets a corner sweep ride as extra batch lanes.

    Only the corner-varying constants (``kp_*``, ``lambda_*``, ``vth_*``)
    may differ across lanes; the geometry constants (``l_ref``,
    ``cox_per_area``) enter the arithmetic as scalars shared by all lanes,
    so they must match the template technology exactly.
    """
    if len(technologies) != kernel.num_envs:
        raise ValueError(
            f"{len(technologies)} lane technologies for {kernel.num_envs} lanes"
        )
    for technology in technologies:
        if type(technology) is not CmosTechnology:
            raise UntraceableError(
                f"unsupported lane technology type {type(technology).__name__}"
            )
        # repro: noqa[REP-FLT01] exact check: corner derivation copies the
        # geometry constants verbatim, so any difference is a real mismatch.
        if technology.l_ref != kernel._l_ref or (
            technology.cox_per_area != kernel._cox_per_area
        ):
            raise UntraceableError(
                "lane technologies must share the template's l_ref/cox_per_area"
            )
    kernel._vth_n = np.array([technology.vth_n for technology in technologies])
    kernel._kp = {
        name: np.array(
            [
                (technology.kp_p if name in kernel._PMOS else technology.kp_n)
                for technology in technologies
            ]
        )
        for name in kernel._DEVICES
    }
    kernel._lambda = {
        name: np.array(
            [
                (technology.lambda_p if name in kernel._PMOS else technology.lambda_n)
                for technology in technologies
            ]
        )
        for name in kernel._DEVICES
    }


class OpAmpKernel:
    """Batched twin of :class:`OpAmpSimulator` (analytic and mna methods)."""

    #: Devices in the order the scalar evaluator builds its model dict.
    _DEVICES = ("M1", "M2", "M3", "M4", "M5", "M6", "M7")
    _PMOS = ("M3", "M4", "M6")

    def __init__(self, simulator: OpAmpSimulator, base_netlist: Netlist, num_envs: int) -> None:
        if type(simulator) is not OpAmpSimulator:
            raise UntraceableError(
                f"unsupported simulator type {type(simulator).__name__}"
            )
        tech = _require_cmos(simulator)
        self._tech = tech
        self._method = simulator.method
        self._bias_overhead = simulator.bias_overhead_current
        self.num_envs = int(num_envs)

        self._width_cols = np.array(
            [param_flat_index(base_netlist, name, "width") for name in self._DEVICES]
        )
        self._finger_cols = np.array(
            [param_flat_index(base_netlist, name, "fingers") for name in self._DEVICES]
        )
        self._cc_col = param_flat_index(base_netlist, "CC", "value")
        self._supply = base_netlist.get_parameter("VP", "voltage")
        self._bias = base_netlist.get_parameter("VBIAS", "voltage")
        self._load_cap = base_netlist.get_parameter("CL", "value")
        # Technology constants held as instance state (scalars here, per-lane
        # vectors after bind_lane_technologies) so corner lanes can rebind
        # them without touching the evaluate() arithmetic.
        self._l_ref = tech.l_ref
        self._cox_per_area = tech.cox_per_area
        self._vth_n = tech.vth_n
        self._kp = {name: (tech.kp_p if name in self._PMOS else tech.kp_n)
                    for name in self._DEVICES}
        self._lambda = {name: (tech.lambda_p if name in self._PMOS else tech.lambda_n)
                        for name in self._DEVICES}

        self._mna_plan: Optional[BatchedMNAPlan] = None
        if self._method == "mna":
            template = simulator.build_small_signal_circuit(base_netlist)
            self._mna_plan = BatchedMNAPlan.from_template(template, self.num_envs)

    def bind_lane_technologies(self, technologies) -> None:
        """Give each batch lane its own technology (see ``_bind_cmos_lanes``)."""
        _bind_cmos_lanes(self, technologies)

    def evaluate(self, full_params: np.ndarray) -> KernelResult:
        widths = full_params[:, self._width_cols]
        fingers = full_params[:, self._finger_cols]
        strengths = (widths * fingers) / self._l_ref
        strength = {name: strengths[:, i] for i, name in enumerate(self._DEVICES)}
        miller_cap = full_params[:, self._cc_col]

        overdrive = self._bias - self._vth_n
        tail_current = _saturation_current(self._kp["M5"], strength["M5"], overdrive)
        second_stage_current = _saturation_current(self._kp["M7"], strength["M7"], overdrive)
        branch_current = tail_current / 2.0
        power = self._supply * (
            tail_current + second_stage_current + self._bias_overhead
        )

        gm1 = _gm_at_current(self._kp["M1"], strength["M1"], branch_current)
        r_first = _parallel_vec(
            _ro_at_current(self._lambda["M2"], branch_current),
            _ro_at_current(self._lambda["M4"], branch_current),
        )
        with np.errstate(invalid="ignore"):
            gain_first = np.where(np.isfinite(r_first), gm1 * r_first, 0.0)

        gm6 = _gm_at_current(self._kp["M6"], strength["M6"], second_stage_current)
        r_second = _parallel_vec(
            _ro_at_current(self._lambda["M6"], second_stage_current),
            _ro_at_current(self._lambda["M7"], second_stage_current),
        )
        with np.errstate(invalid="ignore"):
            gain_second = np.where(np.isfinite(r_second), gm6 * r_second, 0.0)

        first_stage_cap = (
            _gate_capacitance(self._cox_per_area, self._l_ref, widths[:, 5], fingers[:, 5])
            + 10e-15
        )
        total_output_cap = self._load_cap + 20e-15

        with np.errstate(divide="ignore", invalid="ignore"):
            dominant_pole = np.where(
                (gain_second > 0.0) & (r_first > 0.0),
                1.0
                / ((TWO_PI * r_first) * (first_stage_cap + miller_cap * (1.0 + gain_second))),
                0.0,
            )
            pole_denominator = (
                first_stage_cap * total_output_cap
                + miller_cap * (first_stage_cap + total_output_cap)
            )
            output_pole = np.where(
                gm6 > 0.0, gm6 * miller_cap / (TWO_PI * pole_denominator), 0.0
            )
            zero = np.where(gm6 > 0.0, gm6 / (TWO_PI * miller_cap), 0.0)
            unity_gain_bandwidth = np.where(
                miller_cap > 0, gm1 / (TWO_PI * miller_cap), 0.0
            )

        dc_gain = gain_first * gain_second
        if self._method == "mna":
            gain, bandwidth, phase_margin = self._mna_response(
                gm1, gm6, r_first, r_second, first_stage_cap, miller_cap
            )
        else:
            gain = dc_gain
            bandwidth = unity_gain_bandwidth
            phase_margin = _phase_margin_vec(
                unity_gain_bandwidth, dominant_pole, output_pole, zero, dc_gain
            )

        valid = (tail_current > 0.0) & (second_stage_current > 0.0) & (gain > 1.0)
        specs = {
            "gain": gain,
            "bandwidth": bandwidth,
            "phase_margin": phase_margin,
            "power": power,
        }
        details = {
            "tail_current": tail_current,
            "second_stage_current": second_stage_current,
            "gm1": gm1,
            "gm6": gm6,
            "dominant_pole_hz": dominant_pole,
            "output_pole_hz": output_pole,
            "zero_hz": zero,
            "first_stage_gain": gain_first,
            "second_stage_gain": gain_second,
        }
        return KernelResult(specs=specs, details=details, valid=valid)

    def _mna_response(
        self,
        gm1: np.ndarray,
        gm6: np.ndarray,
        r_first: np.ndarray,
        r_second: np.ndarray,
        first_stage_cap: np.ndarray,
        miller_cap: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lane-wise ``OpAmpSimulator._mna_frequency_response`` in one stacked sweep."""
        plan = self._mna_plan
        assert plan is not None
        plan.set_values("GM1", -gm1)
        plan.set_values("R1", _where_max(r_first, 1.0))
        plan.set_values("C1", _where_max(first_stage_cap, 1e-18))
        plan.set_values("GM6", gm6)
        plan.set_values("R2", _where_max(r_second, 1.0))
        plan.set_values("CC", _where_max(miller_cap, 1e-18))
        metrics = [
            frequency_response_metrics(SWEEP_FREQUENCIES, solution.voltage("out"))
            for solution in plan.ac_sweep(SWEEP_FREQUENCIES)
        ]
        gain, unity, margin = (np.array(column) for column in zip(*metrics))
        return gain, unity, margin


class CmOtaKernel:
    """Batched twin of :class:`CmOtaSimulator`."""

    _DEVICES = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9")
    _PMOS = ("M4", "M5", "M6", "M7")

    def __init__(self, simulator: CmOtaSimulator, base_netlist: Netlist, num_envs: int) -> None:
        if type(simulator) is not CmOtaSimulator:
            raise UntraceableError(
                f"unsupported simulator type {type(simulator).__name__}"
            )
        tech = _require_cmos(simulator)
        self._tech = tech
        self._bias_overhead = simulator.bias_overhead_current
        self._method = simulator.method
        if self._method not in ("analytic", "mna"):
            raise UntraceableError(f"unsupported CmOtaSimulator method {self._method!r}")
        self.num_envs = int(num_envs)
        self._width_cols = np.array(
            [param_flat_index(base_netlist, name, "width") for name in self._DEVICES]
        )
        self._finger_cols = np.array(
            [param_flat_index(base_netlist, name, "fingers") for name in self._DEVICES]
        )
        self._supply = base_netlist.get_parameter("VP", "voltage")
        self._tail_bias = base_netlist.get_parameter("VBIAS", "voltage")
        self._load_cap = base_netlist.get_parameter("CL", "value")
        # Instance-held technology constants; see OpAmpKernel.__init__.
        self._l_ref = tech.l_ref
        self._cox_per_area = tech.cox_per_area
        self._vth_n = tech.vth_n
        self._kp = {name: (tech.kp_p if name in self._PMOS else tech.kp_n)
                    for name in self._DEVICES}
        self._lambda = {name: (tech.lambda_p if name in self._PMOS else tech.lambda_n)
                        for name in self._DEVICES}

        self._mna_plan: Optional[BatchedMNAPlan] = None
        if self._method == "mna":
            template = simulator.build_small_signal_circuit(base_netlist)
            self._mna_plan = BatchedMNAPlan.from_template(template, self.num_envs)

    def bind_lane_technologies(self, technologies) -> None:
        """Give each batch lane its own technology (see ``_bind_cmos_lanes``)."""
        _bind_cmos_lanes(self, technologies)

    def evaluate(self, full_params: np.ndarray) -> KernelResult:
        widths = full_params[:, self._width_cols]
        fingers = full_params[:, self._finger_cols]
        strengths = (widths * fingers) / self._l_ref
        strength = {name: strengths[:, i] for i, name in enumerate(self._DEVICES)}

        tail_current = _saturation_current(
            self._kp["M3"], strength["M3"], self._tail_bias - self._vth_n
        )
        branch_current = tail_current / 2.0
        ratio_up = strength["M6"] / strength["M5"]
        ratio_down = (strength["M7"] / strength["M4"]) * (strength["M9"] / strength["M8"])
        source_current = ratio_up * branch_current
        sink_current = ratio_down * branch_current
        power = self._supply * (
            tail_current + source_current + sink_current + self._bias_overhead
        )

        gm1 = _gm_at_current(self._kp["M1"], strength["M1"], branch_current)
        effective_gm = gm1 * 0.5 * (ratio_up + ratio_down)
        output_resistance = _parallel_vec(
            _ro_at_current(self._lambda["M6"], source_current),
            _ro_at_current(self._lambda["M9"], sink_current),
        )
        with np.errstate(invalid="ignore"):
            gain = np.where(
                np.isfinite(output_resistance), effective_gm * output_resistance, 0.0
            )
        total_load = self._load_cap + 20e-15
        unity_gain_bandwidth = effective_gm / (TWO_PI * total_load)
        slew_rate = _where_min(ratio_up, ratio_down) * tail_current / total_load

        if self._method == "mna":
            gain, bandwidth = self._mna_response(effective_gm, output_resistance)
        else:
            bandwidth = unity_gain_bandwidth

        valid = (tail_current > 0.0) & (gain > 1.0) & (slew_rate > 0.0)
        specs = {
            "gain": gain,
            "bandwidth": bandwidth,
            "slew_rate": slew_rate,
            "power": power,
        }
        details = {
            "tail_current": tail_current,
            "mirror_ratio_up": ratio_up,
            "mirror_ratio_down": ratio_down,
            "gm1": gm1,
            "effective_gm": effective_gm,
            "output_resistance": output_resistance,
            "output_source_current": source_current,
            "output_sink_current": sink_current,
        }
        return KernelResult(specs=specs, details=details, valid=valid)

    def _mna_response(
        self, effective_gm: np.ndarray, output_resistance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Lane-wise ``CmOtaSimulator._mna_frequency_response`` in one stacked sweep."""
        plan = self._mna_plan
        assert plan is not None
        plan.set_values("GM", -effective_gm)
        plan.set_values("ROUT", _where_max(output_resistance, 1.0))
        metrics = [
            frequency_response_metrics(SWEEP_FREQUENCIES, solution.voltage("out"))
            for solution in plan.ac_sweep(SWEEP_FREQUENCIES)
        ]
        gain, unity, _ = (np.array(column) for column in zip(*metrics))
        return gain, unity


def build_simulator_kernel(simulator, base_netlist: Netlist, num_envs: int):
    """Kernel for ``simulator``, or :class:`UntraceableError` if none exists."""
    if type(simulator) is OpAmpSimulator:
        return OpAmpKernel(simulator, base_netlist, num_envs)
    if type(simulator) is CmOtaSimulator:
        return CmOtaKernel(simulator, base_netlist, num_envs)
    raise UntraceableError(
        f"no compiled kernel for simulator type {type(simulator).__name__}"
    )


__all__ = [
    "KernelResult",
    "OpAmpKernel",
    "CmOtaKernel",
    "build_simulator_kernel",
    "param_flat_index",
    "ConvergenceError",
]
