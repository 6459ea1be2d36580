"""RAPL-style hardware frequency limiting (simulated).

The paper compares its model against "state-of-the-practice" power
limiting based on Intel RAPL (Section V-A).  RAPL enforces a power cap by
dynamically lowering the processor frequency.  The paper's Trinity test
system has no RAPL, so the authors *simulated* frequency limiting on both
the CPU and GPU — and so do we, with the same semantics:

* the limiter observes **measured** power (noisy, like real RAPL energy
  counters) and steps the controlled device's P-state down until the cap
  is met or the lowest P-state is reached;
* it can only change *frequency* — never the device or the thread count.
  That limitation is precisely why frequency limiting alone fails on
  kernels like LU Small (Section V-D): meeting some caps requires
  switching device or dropping cores;
* for GPU configurations, once the GPU P-state is settled and headroom
  remains, the host CPU frequency is raised as far as the cap allows
  (the paper's GPU+FL refinement); conversely if the GPU floor still
  violates the cap, the host CPU is stepped down too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import respects_cap
from repro.faults.errors import SampleRunError
from repro.hardware import pstates
from repro.hardware.apu import TrinityAPU
from repro.hardware.backend import Measurement, characteristics_of
from repro.hardware.config import Configuration, Device
from repro.telemetry import counter

__all__ = ["FrequencyLimiter", "LimiterResult"]

# Degradation accounting (docs/ROBUSTNESS.md): control-loop readings
# the limiter had to treat as worst-case because the sensor dropped out
# (non-finite power) or the run failed outright.
_WORST_CASE_READS = counter("faults.limiter.worst_case_reads")
_FAILED_RUNS = counter("faults.limiter.failed_runs")


@dataclass(frozen=True)
class LimiterResult:
    """Outcome of a frequency-limiting control episode.

    Attributes
    ----------
    final_config:
        Configuration the limiter settled on.
    final_measurement:
        The measurement taken at the final configuration.  When that
        run failed outright (injected fault), a placeholder with NaN
        readings at the final configuration.
    met_cap:
        Whether the final *observed* power is within the cap (shared
        :data:`repro.constants.CAP_EPSILON` tolerance).  Worst-case
        reads never count as meeting the cap.
    trace:
        Every (configuration, observed total power) the limiter
        visited, in order — useful for inspecting convergence.
        Observed power is ``inf`` for a dropped-out or failed reading
        (the worst-case assumption the controller acted on).
    """

    final_config: Configuration
    final_measurement: Measurement
    met_cap: bool
    trace: tuple[tuple[Configuration, float], ...] = field(default_factory=tuple)

    @property
    def steps(self) -> int:
        """Number of control steps taken (measurements minus one)."""
        return max(0, len(self.trace) - 1)


def _step_down_cpu(cfg: Configuration) -> Configuration | None:
    i = pstates.cpu_pstate_index(cfg.cpu_freq_ghz)
    if i == 0:
        return None
    f = pstates.CPU_FREQS_GHZ[i - 1]
    if cfg.device is Device.CPU:
        return Configuration.cpu(f, cfg.n_threads)
    return Configuration.gpu(cfg.gpu_freq_ghz, f)


def _step_up_cpu(cfg: Configuration) -> Configuration | None:
    i = pstates.cpu_pstate_index(cfg.cpu_freq_ghz)
    if i == len(pstates.CPU_FREQS_GHZ) - 1:
        return None
    f = pstates.CPU_FREQS_GHZ[i + 1]
    if cfg.device is Device.CPU:
        return Configuration.cpu(f, cfg.n_threads)
    return Configuration.gpu(cfg.gpu_freq_ghz, f)


def _step_down_gpu(cfg: Configuration) -> Configuration | None:
    i = pstates.gpu_pstate_index(cfg.gpu_freq_ghz)
    if i == 0:
        return None
    return Configuration.gpu(pstates.GPU_FREQS_GHZ[i - 1], cfg.cpu_freq_ghz)


class FrequencyLimiter:
    """Closed-loop P-state controller enforcing a power cap.

    Parameters
    ----------
    apu:
        The machine to control.  The limiter only ever sees
        *measurements* from :meth:`TrinityAPU.run`.
    """

    def __init__(self, apu: TrinityAPU) -> None:
        self.apu = apu

    def _observe(
        self,
        kernel: object,
        cfg: Configuration,
        rng: np.random.Generator | None,
    ) -> tuple[Measurement | None, float]:
        """One control-loop reading: ``(measurement, observed power)``.

        Real RAPL firmware cannot crash because an energy counter
        glitched — a dropped-out sensor (non-finite power) or a failed
        run reads as ``inf``, the worst case, so the controller steps
        down instead of silently accepting an unknown draw.
        """
        try:
            m = self.apu.run(kernel, cfg, rng=rng)
        except SampleRunError:
            _FAILED_RUNS.inc()
            return None, math.inf
        power = m.total_power_w
        if not math.isfinite(power):
            _WORST_CASE_READS.inc()
            return m, math.inf
        return m, power

    @staticmethod
    def _final_measurement(
        m: Measurement | None, cfg: Configuration
    ) -> Measurement:
        """The settled measurement, or a NaN placeholder when the final
        run produced none."""
        if m is not None:
            return m
        return Measurement(
            config=cfg,
            time_s=math.nan,
            cpu_plane_w=math.nan,
            nbgpu_plane_w=math.nan,
            counters={},
        )

    def limit(
        self,
        kernel: object,
        start: Configuration,
        power_cap_w: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> LimiterResult:
        """Run the control loop from ``start`` until the cap is met or no
        further frequency reduction is possible.

        On CPU configurations only the CPU P-state is lowered (thread
        count is outside RAPL's authority).  On GPU configurations the
        GPU P-state is lowered first; if the cap is still violated at the
        GPU floor, the host CPU P-state is lowered as well.
        """
        if power_cap_w <= 0:
            raise ValueError("power_cap_w must be positive")
        # Resolve characteristics once: every control step re-measures
        # the same kernel, so don't re-derive them per apu.run call.
        kernel = characteristics_of(kernel)
        trace: list[tuple[Configuration, float]] = []
        cfg = start
        m, observed = self._observe(kernel, cfg, rng)
        trace.append((cfg, observed))

        while not respects_cap(observed, power_cap_w):
            if cfg.device is Device.GPU:
                nxt = _step_down_gpu(cfg) or _step_down_cpu(cfg)
            else:
                nxt = _step_down_cpu(cfg)
            if nxt is None:
                break
            cfg = nxt
            m, observed = self._observe(kernel, cfg, rng)
            trace.append((cfg, observed))

        return LimiterResult(
            final_config=cfg,
            final_measurement=self._final_measurement(m, cfg),
            met_cap=respects_cap(observed, power_cap_w),
            trace=tuple(trace),
        )

    def limit_gpu_with_headroom(
        self,
        kernel: object,
        power_cap_w: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> LimiterResult:
        """The paper's GPU+FL policy (Section V-A).

        Start with the GPU at maximum frequency and the host CPU at
        minimum; lower the GPU P-state until the cap is met; then, if
        headroom remains, raise the host CPU frequency as far as possible
        without violating the cap.
        """
        kernel = characteristics_of(kernel)
        start = Configuration.gpu(
            pstates.GPU_MAX_FREQ_GHZ, pstates.CPU_MIN_FREQ_GHZ
        )
        result = self.limit(kernel, start, power_cap_w, rng=rng)
        if not result.met_cap:
            return result

        # Exploit headroom: raise host CPU frequency while under the cap.
        # A worst-case read (dropout / failed run) observes as inf, so
        # the step-up backs off exactly like a genuine violation.
        trace = list(result.trace)
        cfg, m = result.final_config, result.final_measurement
        while True:
            nxt = _step_up_cpu(cfg)
            if nxt is None:
                break
            m_next, observed = self._observe(kernel, nxt, rng)
            trace.append((nxt, observed))
            if not respects_cap(observed, power_cap_w):
                break  # back off: keep the last compliant config
            cfg, m = nxt, m_next
        return LimiterResult(
            final_config=cfg,
            final_measurement=m,
            met_cap=True,  # settled on the last cap-compliant reading
            trace=tuple(trace),
        )

    def limit_cpu_all_cores(
        self,
        kernel: object,
        power_cap_w: float,
        *,
        rng: np.random.Generator | None = None,
    ) -> LimiterResult:
        """The paper's CPU+FL policy (Section V-A): all cores enabled,
        GPU at minimum frequency, CPU P-state lowered to meet the cap."""
        start = Configuration.cpu(pstates.CPU_MAX_FREQ_GHZ, pstates.N_CORES)
        return self.limit(kernel, start, power_cap_w, rng=rng)
