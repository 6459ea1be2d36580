"""The simulated Trinity APU: the facade tying timing, power, and
counters together.

:class:`TrinityAPU` exposes two views of the machine:

* :meth:`TrinityAPU.true_time_s` / :meth:`TrinityAPU.true_power` —
  deterministic ground truth, available only to the **oracle** used as
  the evaluation baseline (Section V-B of the paper);
* :meth:`TrinityAPU.run` — a *measured* execution: ground truth
  perturbed by the machine's :class:`~repro.hardware.noise.NoiseModel`.
  This is the only interface the modeling pipeline uses, mirroring how
  the paper's system sees silicon solely through PAPI counters and the
  on-chip power estimator.

Measurements report the two power domains separately (CPU cores;
northbridge + GPU), just like the Trinity system-management
microcontroller.  Both views come from
:class:`~repro.hardware.backend.AnalyticalBackend`; this module supplies
only the machine's physics (:func:`~repro.hardware.kernelmodel.time_s`
and :func:`~repro.hardware.power.plane_power_w`) and the optional
opportunistic boost.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import pstates
from repro.hardware.backend import (
    TRINITY_DESCRIPTOR,
    AnalyticalBackend,
    Measurement,
    register_backend,
)
from repro.hardware.kernelmodel import (
    KernelCharacteristics,
    amdahl_speedup,
    memory_bandwidth_factor,
    time_s,
)
from repro.hardware.noise import NoiseModel
from repro.hardware.power import PowerModelConstants, plane_power_w
from repro.hardware.thermal import BoostPolicy

# Measurement moved to repro.hardware.backend with the interface
# extraction; re-exported here for compatibility.
__all__ = ["Measurement", "TrinityAPU"]


class TrinityAPU(AnalyticalBackend):
    """Simulated AMD Trinity A10-5800K APU (registered as ``"trinity"``).

    Parameters
    ----------
    noise:
        Measurement-noise model; defaults to realistic small noise.  Use
        :meth:`NoiseModel.exact` for deterministic measurements.
    power_constants:
        Power-model calibration constants (defaults match the paper's
        published power ranges).
    seed:
        Seed for the machine's internal measurement-noise stream.
    boost:
        Optional opportunistic-overclocking capability (paper Section
        VI; off by default, matching the paper's evaluated machine).
        When enabled, CPU configurations at the top software P-state
        boost toward the policy's frequency whenever thermal headroom
        allows.  The policy is frozen and its evaluation pure, so
        boosted truth is memoized like any other (keyed by the policy).
    """

    name = "trinity"
    #: Static machine description (ladders, samples, design rows).
    descriptor = TRINITY_DESCRIPTOR

    def __init__(
        self,
        *,
        noise: NoiseModel | None = None,
        power_constants: PowerModelConstants | None = None,
        seed: int = 0,
        boost: BoostPolicy | None = None,
    ) -> None:
        # Set before the base binds its memos: boost is part of the
        # machine's physics key.
        self.boost = boost
        super().__init__(
            TRINITY_DESCRIPTOR,
            power_constants if power_constants is not None else PowerModelConstants(),
            noise=noise,
            seed=seed,
        )

    # perfbench's tracer patches these names in each class's own __dict__.
    run = AnalyticalBackend.run
    true_table = AnalyticalBackend.true_table

    def _planes(
        self,
        chars: KernelCharacteristics,
        is_gpu: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        n_threads: np.ndarray,
        gpu_freq_ghz: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = time_s(chars, is_gpu, cpu_freq_ghz, n_threads, gpu_freq_ghz)
        cpu_w, nbgpu_w = plane_power_w(
            chars, is_gpu, cpu_freq_ghz, n_threads, gpu_freq_ghz, self.power_constants
        )
        if self.boost is not None:
            # Opportunistic boost (Section VI extension): CPU rows at the
            # top software P-state run faster and hotter, by the duty
            # cycle the thermal headroom of their un-boosted power allows.
            top = np.logical_not(is_gpu) & (
                np.abs(np.asarray(cpu_freq_ghz) - pstates.CPU_MAX_FREQ_GHZ) < 1e-9
            )
            for i in np.flatnonzero(top):
                n = int(n_threads[i])
                # Frequency-sensitive share of runtime at the top P-state.
                compute = (1.0 - chars.mem_fraction) / amdahl_speedup(
                    n, chars.parallel_fraction
                )
                memory = chars.mem_fraction / memory_bandwidth_factor(n)
                outcome = self.boost.evaluate(
                    float(cpu_w[i] + nbgpu_w[i]),
                    n,
                    compute / (compute + memory) if compute + memory else 0.0,
                )
                t[i] *= outcome.time_scale
                cpu_w[i] += outcome.power_delta_w
        return t, cpu_w, nbgpu_w


register_backend(
    "trinity",
    lambda *, seed=0, noise=None: TrinityAPU(seed=seed, noise=noise),
    TRINITY_DESCRIPTOR,
)
