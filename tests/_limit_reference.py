"""Test oracle of :class:`repro.hardware.rapl.FrequencyLimiter`: the
per-step walk that measures every visited configuration with a full
``apu.run`` and rebuilds each neighbouring configuration from the
P-state tables.

The production limiter walks precomputed ladder indices over the
memoized truth planes instead; ``tests/test_limiter_equivalence.py``
holds it to this walk field for field, noise stream included.
"""

from __future__ import annotations

import math

from repro.constants import respects_cap
from repro.faults.errors import SampleRunError
from repro.hardware import pstates
from repro.hardware.backend import Measurement, characteristics_of
from repro.hardware.config import Configuration, Device


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


def _observe(apu, kernel, cfg, rng) -> tuple[Measurement | None, float]:
    try:
        m = apu.run(kernel, cfg, rng=rng)
    except SampleRunError:
        return None, math.inf
    power = m.total_power_w
    return m, (power if math.isfinite(power) else math.inf)


def _placeholder(cfg) -> Measurement:
    return Measurement(
        config=cfg,
        time_s=math.nan,
        cpu_plane_w=math.nan,
        nbgpu_plane_w=math.nan,
        counters={},
    )


def _limit_reference(apu, kernel, start, power_cap_w, rng=None) -> dict:
    """``FrequencyLimiter.limit`` as fields:
    ``final_config``, ``final_measurement``, ``met_cap``, ``trace``."""
    kernel = characteristics_of(kernel)
    trace = []
    cfg = start
    m, observed = _observe(apu, kernel, cfg, rng)
    trace.append((cfg, observed))
    while not respects_cap(observed, power_cap_w):
        if cfg.device is Device.GPU:
            nxt = _step_down_gpu(cfg) or _step_down_cpu(cfg)
        else:
            nxt = _step_down_cpu(cfg)
        if nxt is None:
            break
        cfg = nxt
        m, observed = _observe(apu, kernel, cfg, rng)
        trace.append((cfg, observed))
    return dict(
        final_config=cfg,
        final_measurement=m if m is not None else _placeholder(cfg),
        met_cap=respects_cap(observed, power_cap_w),
        trace=tuple(trace),
    )


def _limit_gpu_with_headroom_reference(apu, kernel, power_cap_w, rng=None) -> dict:
    kernel = characteristics_of(kernel)
    start = Configuration.gpu(pstates.GPU_MAX_FREQ_GHZ, pstates.CPU_MIN_FREQ_GHZ)
    result = _limit_reference(apu, kernel, start, power_cap_w, rng)
    if not result["met_cap"]:
        return result
    trace = list(result["trace"])
    cfg, m = result["final_config"], result["final_measurement"]
    while True:
        nxt = _step_up_cpu(cfg)
        if nxt is None:
            break
        m_next, observed = _observe(apu, kernel, nxt, rng)
        trace.append((nxt, observed))
        if not respects_cap(observed, power_cap_w):
            break
        cfg, m = nxt, m_next
    return dict(final_config=cfg, final_measurement=m, met_cap=True, trace=tuple(trace))


def _limit_cpu_all_cores_reference(apu, kernel, power_cap_w, rng=None) -> dict:
    start = Configuration.cpu(pstates.CPU_MAX_FREQ_GHZ, pstates.N_CORES)
    return _limit_reference(apu, kernel, start, power_cap_w, rng)

