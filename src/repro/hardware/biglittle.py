"""Simulated ARM-style big.LITTLE heterogeneous multi-processing SoC.

Models the machine class of "Performance and Energy Trade-Offs for
Parallel Applications on Heterogeneous Multi-Processing Systems" (see
PAPERS.md): two asymmetric core clusters sharing one memory system,
each with its own DVFS ladder, where work placed on the big cluster
pays a *migration cost* to move thread context off the LITTLE cluster
that boots and orchestrates the system.

Mapping onto the reproduction's two-block machine shape
(:mod:`repro.hardware.backend`):

* **primary block** — the LITTLE cluster: 4 in-order efficiency cores,
  low voltage, narrow memory path (strong bandwidth contention);
* **secondary block** — the big cluster: 4 out-of-order performance
  cores, higher IPC and voltage, plus the per-invocation migration
  cost (the analog of Trinity's kernel-launch overhead).

Measurements report the LITTLE-cluster rail as the primary power plane
and the big cluster + uncore (interconnect, memory controller) as the
secondary plane, mirroring how Trinity reports CPU cores vs
northbridge+GPU.
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
    "HMPConstants",
    "BigLittleSoC",
    "BIGLITTLE_DESCRIPTOR",
    "migration_cost_s",
]

#: Relative IPC of a LITTLE in-order core (Trinity-class core = 1.0).
LITTLE_IPC: float = 0.62
#: Relative IPC of a big out-of-order core.
BIG_IPC: float = 1.18
#: Bandwidth-contention coefficients per cluster (the LITTLE cluster's
#: narrower path saturates faster).
LITTLE_BW_CONTENTION: float = 0.35
BIG_BW_CONTENTION: float = 0.20


@dataclass(frozen=True)
class HMPConstants:
    """Calibration constants of the big.LITTLE machine model.

    Frozen and hashable: this record keys the process-wide ground-truth
    memo caches, so machines with equal constants share derivations and
    machines with different constants can never collide.
    """

    little_static_base_w: float = 0.25
    little_static_v2_w: float = 0.45
    little_dyn_per_core_w: float = 0.85
    little_idle_w: float = 0.30
    big_static_base_w: float = 0.55
    big_static_v2_w: float = 0.90
    big_dyn_per_core_w: float = 1.75
    big_idle_w: float = 0.45
    uncore_static_w: float = 0.80
    dram_max_w: float = 2.60
    #: Fixed cluster-switch latency charged per invocation on the big
    #: cluster (context migration off the LITTLE cluster).
    migration_base_s: float = 0.002
    #: Share of the kernel's launch/setup cost repaid on migration.
    migration_launch_scale: float = 0.5


def migration_cost_s(k: KernelCharacteristics, c: HMPConstants) -> float:
    """Per-invocation cost of migrating a kernel to the big cluster.

    Both terms are non-negative by construction (the property suite
    pins this): a fixed cluster-switch latency plus a share of the
    kernel's own launch/setup cost.
    """
    return c.migration_base_s + c.migration_launch_scale * k.launch_overhead_s


#: Static machine description: LITTLE ladder 0.6-1.6 GHz, big ladder
#: 0.8-2.2 GHz, four cores per cluster, per-cluster voltage curves.
BIGLITTLE_DESCRIPTOR = BackendDescriptor(
    name="biglittle",
    primary=BlockDescriptor(
        label="little",
        freqs_ghz=(0.6, 0.9, 1.2, 1.4, 1.6),
        thread_counts=(1, 2, 3, 4),
        v0=0.55,
        v1=0.15,
    ),
    secondary=BlockDescriptor(
        label="big",
        freqs_ghz=(0.8, 1.2, 1.6, 1.9, 2.2),
        thread_counts=(1, 2, 3, 4),
        v0=0.62,
        v1=0.20,
    ),
)


def _bw_factor(n, contention: float):
    """Effective bandwidth scaling of ``n`` cores (scalar or array) under
    a cluster's contention coefficient (same shape as the Trinity
    model's :func:`~repro.hardware.kernelmodel.memory_bandwidth_factor`)."""
    return n / (1.0 + contention * (n - 1))


class BigLittleSoC(AnalyticalBackend):
    """The simulated big.LITTLE HMP machine (registered as
    ``"biglittle"``)."""

    name = "biglittle"

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        constants: HMPConstants | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            BIGLITTLE_DESCRIPTOR,
            constants if constants is not None else HMPConstants(),
            noise=noise,
            seed=seed,
        )

    def _planes(
        self,
        k: KernelCharacteristics,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both clusters' models elementwise, joined on the device mask
        (``is_gpu`` rows run on the big cluster, the LITTLE one idling)."""
        c = self.power_constants
        d = self.descriptor
        n = n_threads
        amdahl = amdahl_speedup(n, k.parallel_fraction)
        act = k.activity * (1.0 + 0.25 * k.vector_fraction)

        # big cluster: higher IPC, plus the migration off the LITTLE one
        s_b = gpu_freq_ghz / d.secondary.max_freq_ghz
        compute_b = (1.0 - k.mem_fraction) / (amdahl * s_b * BIG_IPC)
        memory_b = k.mem_fraction / _bw_factor(n, BIG_BW_CONTENTION)
        t_big = k.work_s * (compute_b + memory_b) + migration_cost_s(k, c)
        v_b = d.secondary.v0 + d.secondary.v1 * gpu_freq_ghz
        big = (
            c.big_static_base_w
            + c.big_static_v2_w * v_b * v_b
            + n * c.big_dyn_per_core_w * act * gpu_freq_ghz * v_b * v_b
        )
        traffic_b = _bw_factor(n, BIG_BW_CONTENTION) / _bw_factor(
            d.secondary.max_threads, BIG_BW_CONTENTION
        )
        uncore_b = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic_b

        # LITTLE cluster
        s_l = cpu_freq_ghz / d.primary.max_freq_ghz
        compute_l = (1.0 - k.mem_fraction) / (amdahl * s_l * LITTLE_IPC)
        memory_l = k.mem_fraction / _bw_factor(n, LITTLE_BW_CONTENTION)
        t_little = k.work_s * (compute_l + memory_l)
        v_l = d.primary.v0 + d.primary.v1 * cpu_freq_ghz
        little = (
            c.little_static_base_w
            + c.little_static_v2_w * v_l * v_l
            + n * c.little_dyn_per_core_w * act * cpu_freq_ghz * v_l * v_l
        )
        traffic_l = _bw_factor(n, LITTLE_BW_CONTENTION) / _bw_factor(
            d.primary.max_threads, LITTLE_BW_CONTENTION
        )
        uncore_l = c.uncore_static_w + c.dram_max_w * k.dram_intensity * traffic_l

        return (
            np.where(is_gpu, t_big, t_little),
            np.where(is_gpu, c.little_idle_w, little),
            np.where(is_gpu, big + uncore_b, c.big_idle_w + uncore_l),
        )


register_backend(
    "biglittle",
    lambda *, seed=0, noise=None: BigLittleSoC(seed=seed, noise=noise),
    BIGLITTLE_DESCRIPTOR,
)
