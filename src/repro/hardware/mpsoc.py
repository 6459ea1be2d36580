"""Simulated technology-node-scaled MPSoC (lumos-style).

Models the machine class of the lumos dark/dim-silicon studies (see
SNIPPETS.md): one fast serial core plus a sea of small *throughput*
cores that can be run "dim" — many cores at low frequency and
near-threshold voltage — with the whole design transplantable across
technology nodes via per-node voltage/frequency/power scaling factors.

Mapping onto the reproduction's two-block machine shape
(:mod:`repro.hardware.backend`):

* **primary block** — the serial core: an out-of-order core with a
  6-point DVFS ladder and 2-way SMT;
* **secondary block** — the throughput-core array: 8-64 active small
  cores on a 4-point DVFS ladder whose lowest states sit near the
  threshold voltage (dim silicon).

Technology scaling follows the lumos idiom: the machine is calibrated
at a 45 nm reference; a target node scales every frequency by
``FREQ_SCALE[node]`` and every power plane by ``POWER_SCALE[node]``
(the combined dynamic-capacitance and supply-voltage shrink, with
``VDD_SCALE`` recording the voltage component).  Because both scalings
are *uniform* over the configuration space, a kernel's
Pareto-dominance ordering is preserved across nodes exactly — the
property suite pins this.

DVFS points are expressed *relative* to each block's nominal state and
must sit inside the lumos-style bounds ``[v_th / (VDD * vdd_scale),
DVFS_UPPER_BOUND]`` at every supported node; the constructor enforces
this, so near-threshold states are reachable but never below
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.backend import (
    AnalyticalBackend,
    BackendDescriptor,
    BlockDescriptor,
    register_backend,
)
from repro.hardware.kernelmodel import KernelCharacteristics, amdahl_speedup
from repro.hardware.noise import NoiseModel

__all__ = [
    "MPSoCConstants",
    "MPSoC",
    "MPSOC_DESCRIPTOR",
    "TECH_NODES_NM",
    "FREQ_SCALE",
    "VDD_SCALE",
    "POWER_SCALE",
    "dvfs_bounds",
    "mpsoc_descriptor",
]

#: Supported technology nodes (nm), newest last.
TECH_NODES_NM: tuple[int, ...] = (45, 32, 22, 16)

#: Per-node nominal frequency scaling (45 nm = 1.0).
FREQ_SCALE: dict[int, float] = {45: 1.0, 32: 1.33, 22: 1.77, 16: 2.22}

#: Per-node nominal supply-voltage scaling.
VDD_SCALE: dict[int, float] = {45: 1.0, 32: 0.93, 22: 0.88, 16: 0.84}

#: Per-node power scaling of one core at nominal VF (capacitance shrink
#: x vdd^2; conservative-roadmap flavored).
POWER_SCALE: dict[int, float] = {45: 1.0, 32: 0.72, 22: 0.52, 16: 0.39}

#: Nominal supply voltage (V) at the 45 nm reference.
VDD_NOMINAL_V: float = 1.0

#: Threshold voltage (V) — the floor below which dim states may not go.
V_THRESHOLD: float = 0.22

#: Upper relative DVFS bound (overdrive ceiling).
DVFS_UPPER_BOUND: float = 1.25

#: Relative DVFS ladders (fraction of the block's nominal frequency).
SERIAL_DVFS: tuple[float, ...] = (0.5, 0.65, 0.8, 0.9, 1.0, 1.1)
TPUT_DVFS: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)

#: Nominal block frequencies (GHz) at the 45 nm reference.
SERIAL_F0_GHZ: float = 2.0
TPUT_F0_GHZ: float = 1.0

#: Relative IPC of the serial core and of one throughput core.
SERIAL_IPC: float = 1.3
#: SMT uplift per extra serial hardware thread (scaled by the kernel's
#: parallel fraction).
SMT_UPLIFT: float = 0.35
#: Throughput-array bandwidth contention per active core.
TPUT_BW_CONTENTION: float = 0.02
#: Fraction of a kernel's launch/setup cost paid to dispatch work onto
#: the throughput array.
DISPATCH_SCALE: float = 0.6


def dvfs_bounds(tech_nm: int) -> tuple[float, float]:
    """The lumos-style relative DVFS window at a node:
    ``(v_th / vdd(node), DVFS_UPPER_BOUND)``."""
    return (V_THRESHOLD / (VDD_NOMINAL_V * VDD_SCALE[tech_nm]), DVFS_UPPER_BOUND)


@dataclass(frozen=True)
class MPSoCConstants:
    """Calibration constants of the MPSoC machine model.

    ``tech_nm`` is part of the record, so machines at different nodes
    key disjoint ground-truth caches automatically.
    """

    tech_nm: int = 22
    serial_static_base_w: float = 0.9
    serial_static_v2_w: float = 1.6
    serial_dyn_per_thread_w: float = 3.2
    serial_host_w: float = 0.7
    tput_static_base_w: float = 0.6
    tput_static_v2_w: float = 1.1
    tput_dyn_per_core_w: float = 0.13
    tput_idle_w: float = 0.5
    uncore_static_w: float = 1.1
    dram_max_w: float = 3.2

    def __post_init__(self) -> None:
        if self.tech_nm not in TECH_NODES_NM:
            raise ValueError(
                f"unsupported node {self.tech_nm} nm; "
                f"supported: {TECH_NODES_NM}"
            )


def _ladder_ghz(rel: tuple[float, ...], f0: float, tech_nm: int) -> tuple[float, ...]:
    """Absolute GHz ladder of a block at a node."""
    lo, hi = dvfs_bounds(tech_nm)
    for r in rel:
        if not lo <= r <= hi:
            raise ValueError(
                f"relative DVFS point {r} outside node-{tech_nm} bounds "
                f"[{lo:.3f}, {hi}]"
            )
    scale = FREQ_SCALE[tech_nm]
    return tuple(r * f0 * scale for r in rel)


def mpsoc_descriptor(tech_nm: int = 22) -> BackendDescriptor:
    """Descriptor of the MPSoC at one technology node.

    The voltage curves are expressed in *relative* volts (fraction of
    the node's nominal VDD as an affine function of the relative DVFS
    point); the throughput curve's low intercept is the dim-silicon
    near-threshold regime.
    """
    scale = FREQ_SCALE[tech_nm]
    # v = v0 + v1 * f_ghz must reproduce v_rel = a + b * f_rel with
    # f_ghz = f_rel * f0 * scale, so fold the frequency scaling into v1.
    return BackendDescriptor(
        name="mpsoc" if tech_nm == 22 else f"mpsoc{tech_nm}",
        primary=BlockDescriptor(
            label="serial",
            freqs_ghz=_ladder_ghz(SERIAL_DVFS, SERIAL_F0_GHZ, tech_nm),
            thread_counts=(1, 2),
            v0=0.55,
            v1=0.45 / (SERIAL_F0_GHZ * scale),
        ),
        secondary=BlockDescriptor(
            label="tput",
            freqs_ghz=_ladder_ghz(TPUT_DVFS, TPUT_F0_GHZ, tech_nm),
            thread_counts=(8, 16, 32, 64),
            v0=0.42,
            v1=0.58 / (TPUT_F0_GHZ * scale),
        ),
    )


#: The default machine's descriptor (22 nm, registered as ``"mpsoc"``).
MPSOC_DESCRIPTOR = mpsoc_descriptor(22)

# Per-node descriptors are cached so configurations of equal nodes
# compare and hash identically across machine instances.
_DESCRIPTORS: dict[int, BackendDescriptor] = {22: MPSOC_DESCRIPTOR}


def _descriptor(tech_nm: int) -> BackendDescriptor:
    desc = _DESCRIPTORS.get(tech_nm)
    if desc is None:
        desc = _DESCRIPTORS.setdefault(tech_nm, mpsoc_descriptor(tech_nm))
    return desc


def _bw_factor(m):
    """Effective bandwidth of ``m`` active throughput cores (scalar or
    array)."""
    return m / (1.0 + TPUT_BW_CONTENTION * (m - 1))


class MPSoC(AnalyticalBackend):
    """The simulated technology-node-scaled MPSoC (registered as
    ``"mpsoc"`` at its default 22 nm node).

    The analytical model is evaluated at the 45 nm reference in
    *relative* DVFS coordinates (recovered from the ladder index, so
    base values are bit-identical across nodes) and then scaled
    uniformly: time by ``1 / FREQ_SCALE[node]``, both power planes by
    ``POWER_SCALE[node]``.
    """

    name = "mpsoc"

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        constants: MPSoCConstants | None = None,
        tech_nm: int | None = None,
        seed: int = 0,
    ) -> None:
        if constants is None:
            constants = MPSoCConstants(
                tech_nm=tech_nm if tech_nm is not None else 22
            )
        elif tech_nm is not None and tech_nm != constants.tech_nm:
            raise ValueError("tech_nm conflicts with constants.tech_nm")
        super().__init__(
            _descriptor(constants.tech_nm), constants, noise=noise, seed=seed
        )
        self._rel_serial = {
            f: SERIAL_DVFS[i]
            for i, f in enumerate(self.descriptor.primary.freqs_ghz)
        }
        self._rel_tput = {
            f: TPUT_DVFS[i]
            for i, f in enumerate(self.descriptor.secondary.freqs_ghz)
        }

    def _planes(
        self,
        k: KernelCharacteristics,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both blocks' models at the 45 nm reference, joined on the
        device mask (``is_gpu`` rows run on the throughput array), then
        scaled to the node."""
        c = self.power_constants
        # Relative DVFS points by ladder lookup (off-ladder values, which
        # no enumerated row carries, read as nominal).
        s = np.array([self._rel_serial.get(float(f), 1.0) for f in cpu_freq_ghz])
        g = np.array([self._rel_tput.get(float(f), 1.0) for f in gpu_freq_ghz])
        n = n_threads

        # serial core: SMT uplift on the parallel share
        smt = 1.0 + SMT_UPLIFT * k.parallel_fraction * (n - 1)
        compute_s = (1.0 - k.mem_fraction) / (smt * s * SERIAL_IPC)
        t_serial = k.work_s * (compute_s + k.mem_fraction)
        act = k.activity * (1.0 + 0.25 * k.vector_fraction)
        v_s = 0.55 + 0.45 * s
        serial = (
            c.serial_static_base_w
            + c.serial_static_v2_w * v_s * v_s
            + n * c.serial_dyn_per_thread_w * act * s * v_s * v_s
        )
        uncore_s = c.uncore_static_w + c.dram_max_w * k.dram_intensity

        # throughput array: parallel efficiency normalized to the full
        # 64-core array, so a fully-dimmed full array at nominal
        # frequency matches the kernel's intrinsic throughput affinity
        eff = amdahl_speedup(n, k.parallel_fraction) / amdahl_speedup(
            64, k.parallel_fraction
        )
        traffic = _bw_factor(n) / _bw_factor(64)
        t_tput = (k.work_s / k.gpu_affinity) * (
            (1.0 - k.gpu_mem_fraction) / (g * eff)
            + k.gpu_mem_fraction / traffic
        ) + DISPATCH_SCALE * k.launch_overhead_s
        v_t = 0.42 + 0.58 * g
        tput = (
            c.tput_static_base_w
            + c.tput_static_v2_w * v_t * v_t
            + n * c.tput_dyn_per_core_w * k.gpu_activity * g * v_t * v_t
        )
        uncore_t = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic

        scale = POWER_SCALE[c.tech_nm]
        return (
            np.where(is_gpu, t_tput, t_serial) / FREQ_SCALE[c.tech_nm],
            np.where(is_gpu, c.serial_host_w, serial) * scale,
            np.where(is_gpu, tput + uncore_t, c.tput_idle_w + uncore_s) * scale,
        )


register_backend(
    "mpsoc",
    lambda *, seed=0, noise=None: MPSoC(seed=seed, noise=noise),
    MPSOC_DESCRIPTOR,
)
