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

The walk is index arithmetic.  :func:`~repro.hardware.backend.ladder_of`
gives each configuration's ``down`` / ``up_cpu`` neighbour index,
computed once per machine description, and the machine's memoized
truth holds the kernel's two plane powers per index.  One control step
reads those two floats and the next standard normals of the noise
stream, computes ``cpu_w * exp(mu + sigma * z1) + nbgpu_w * exp(mu +
sigma * z2)`` and compares it with the cap; it builds no
:class:`Measurement`.

Noise-consumption invariant: every step consumes exactly the standard
normals the machine's ``run`` would at that configuration — one for
time, two for the planes, one per counter, skipping the axes the
:class:`~repro.hardware.noise.NoiseModel` zeroes — so a walk leaves the
stream where a walk of ``run`` calls would, and the settled step's
measurement (built from that step's kept normals when
:attr:`LimiterResult.final_measurement` is first read) is bit-identical
to ``run``'s.  The exponentials are :func:`math.exp`:
``Generator.lognormal`` is ``exp(mu + sigma * z)`` with the C library's
scalar ``exp``, whereas ``np.exp`` over arrays may round the last bit
differently.  A fault plan applies per step on the same walk: each step
begins one run on the injector's clock, reads the planes of the
configuration it actually executed and passes them through the run's
sensor faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.constants import CAP_EPSILON
from repro.faults.errors import SampleRunError
from repro.hardware import pstates
from repro.hardware.apu import TrinityAPU
from repro.hardware.backend import Measurement, characteristics_of, ladder_of
from repro.hardware.config import Configuration
from repro.telemetry import counter

__all__ = ["FrequencyLimiter", "LimiterResult", "NormalStream"]

#: Standard normals a :class:`NormalStream` draws per generator call.
_BLOCK = 1024

# Degradation accounting (docs/ROBUSTNESS.md): control-loop readings
# the limiter had to treat as worst-case because the sensor dropped out
# (non-finite power) or the run failed outright.
_WORST_CASE_READS = counter("faults.limiter.worst_case_reads")
_FAILED_RUNS = counter("faults.limiter.failed_runs")


class _BuiltOnRead:
    """A dataclass field that may be given a zero-argument builder in
    place of its value: the first read calls the builder and keeps the
    result.  The field still reads, compares, prints and converts
    (``asdict``) like a plain one."""

    def __set_name__(self, owner, name: str) -> None:
        self._key = "_built_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self._key)  # the field has no default
        value = obj.__dict__[self._key]
        if callable(value):
            value = obj.__dict__[self._key] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._key] = value


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
        readings at the final configuration.  The limiter passes a
        builder, so the measurement is built on first read; until then
        the result holds the settled step's noise block.
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
    final_measurement: Measurement = _BuiltOnRead()
    met_cap: bool
    trace: tuple[tuple[Configuration, float], ...] = field(default_factory=tuple)

    @property
    def steps(self) -> int:
        """Number of control steps taken (measurements minus one)."""
        return max(0, len(self.trace) - 1)


class NormalStream:
    """Standard normals of one generator, drawn in blocks and handed out
    in draw order — the same sequence as drawing them one run at a time.

    A caller that owns ``rng`` alone (each frequency-limiting method
    does) passes a stream as the limiter's ``rng`` and pays one
    generator call per :data:`_BLOCK` normals instead of one per step.
    The generator runs ahead of what the stream has handed out, so draw
    through the stream only.
    """

    __slots__ = ("rng", "_buf", "_at")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._buf = np.empty(0)
        self._at = 0

    def take(self, n: int) -> tuple[np.ndarray, int]:
        """The next ``n`` normals, as ``(buffer, offset)``: they are
        ``buffer[offset:offset + n]``.  A buffer is never mutated."""
        buf, at = self._buf, self._at
        if at + n > buf.size:
            fresh = self.rng.standard_normal(max(n, _BLOCK))
            buf = self._buf = np.concatenate((buf[at:], fresh))
            at = 0
        self._at = at + n
        return buf, at


def _take_exact(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    """``n`` normals drawn from ``rng`` now (a stream shared with other
    measurement paths must not run ahead)."""
    return rng.standard_normal(n), 0


def _observer(
    apu: TrinityAPU, truth, src
) -> Callable[[int], tuple[float, tuple | None]]:
    """The control-loop reading of a kernel, given its memoized
    ``truth`` on ``apu``: ``observe(i) -> (observed power, reading)`` at
    configuration index ``i``, consuming the noise stream ``src``
    exactly like ``apu.run`` does.  ``reading`` keeps what rebuilds the
    measurement; ``None`` when the run failed.

    Real RAPL firmware cannot crash because an energy counter glitched —
    a dropped-out sensor (non-finite power) or a failed run reads as
    ``inf``, the worst case, so the controller steps down instead of
    silently accepting an unknown draw.
    """
    cpu_w, nbgpu_w = truth.cpu_w, truth.nbgpu_w
    take = src.take if isinstance(src, NormalStream) else partial(_take_exact, src)
    width, plane_at = apu._run_normals, apu._plane_normals_at
    mu, sigma = apu._ln_power or (0.0, 0.0)
    noisy_planes = apu._ln_power is not None
    injector, space = apu.fault_injector, apu.config_space

    def observe(i: int) -> tuple[float, tuple | None]:
        ctx = None
        if injector is not None:
            cfg = space[i]
            try:
                ctx = injector.begin_run(cfg)
            except SampleRunError:
                _FAILED_RUNS.inc()
                return math.inf, None
            if ctx.config is not cfg:
                i = space.index(ctx.config)
        z, at = take(width) if width else (None, 0)
        cpu, nbgpu = cpu_w[i], nbgpu_w[i]
        if noisy_planes:
            cpu = cpu * math.exp(mu + sigma * z.item(at + plane_at))
            nbgpu = nbgpu * math.exp(mu + sigma * z.item(at + plane_at + 1))
        if ctx is None:
            return cpu + nbgpu, (i, z, at, None)
        cpu, nbgpu = ctx.planes(cpu, nbgpu)
        power = cpu + nbgpu
        if not math.isfinite(power):
            _WORST_CASE_READS.inc()
            power = math.inf
        return power, (i, z, at, ctx)

    return observe


def _settled(
    apu: TrinityAPU, chars, truth, cfg, reading: tuple | None
) -> Callable[[], Measurement]:
    """The builder of the measurement of the reading a walk settled on
    at (requested) configuration ``cfg``.  The executed configuration's
    template is fetched now; the builder applies the reading's kept
    normals and sensor faults to it."""
    if reading is None:
        return partial(_failed_measurement, cfg)
    i, z, at, ctx = reading
    tpl = apu._template_at(chars, truth, i)
    return partial(_measurement, apu, tpl, apu.config_space[i], z, at, ctx)


def _measurement(apu, tpl, cfg, z, at, ctx) -> Measurement:
    m = apu._measured(tpl, cfg, z, at)
    return m if ctx is None else ctx.apply(m)


def _failed_measurement(cfg: Configuration) -> Measurement:
    """The NaN placeholder of a settled run that failed outright."""
    return Measurement(
        config=cfg,
        time_s=math.nan,
        cpu_plane_w=math.nan,
        nbgpu_plane_w=math.nan,
        counters={},
    )


class FrequencyLimiter:
    """Closed-loop P-state controller enforcing a power cap.

    Parameters
    ----------
    apu:
        The machine to control.  The limiter only ever sees
        *measurements*: the readings :meth:`TrinityAPU.run` would
        return, noise stream and fault plan included.
    """

    def __init__(self, apu: TrinityAPU) -> None:
        self.apu = apu
        self._configs = tuple(apu.config_space)
        self._index = apu.config_space.index
        self._ladder = ladder_of(apu.config_space)

    def _reader(self, chars, rng) -> tuple:
        """``(truth, observe)`` of ``chars`` against the noise stream
        ``rng`` (the machine's own when ``None``)."""
        truth = self.apu._truth(chars)
        src = rng if rng is not None else self.apu._rng
        return truth, _observer(self.apu, truth, src)

    def _walk_down(self, observe, i: int, ceiling: float) -> tuple:
        """Step down the ladder from index ``i`` until an observed power
        is within ``ceiling`` or the floor is reached: ``(index,
        observed power, reading, trace)`` of the last step."""
        configs, down = self._configs, self._ladder.down
        observed, reading = observe(i)
        trace = [(configs[i], observed)]
        while observed > ceiling and down[i] >= 0:
            i = down[i]
            observed, reading = observe(i)
            trace.append((configs[i], observed))
        return i, observed, reading, trace

    def _result(self, chars, truth, i: int, reading, met_cap: bool, trace):
        cfg = self._configs[i]
        settle = _settled(self.apu, chars, truth, cfg, reading)
        return LimiterResult(cfg, settle, met_cap, tuple(trace))

    def limit(
        self,
        kernel: object,
        start: Configuration,
        power_cap_w: float,
        *,
        rng: np.random.Generator | NormalStream | None = None,
    ) -> LimiterResult:
        """Run the control loop from ``start`` until the cap is met or no
        further frequency reduction is possible.

        On CPU configurations only the CPU P-state is lowered (thread
        count is outside RAPL's authority).  On GPU configurations the
        GPU P-state is lowered first; if the cap is still violated at the
        GPU floor, the host CPU P-state is lowered as well.  ``rng``
        overrides the machine's noise stream.
        """
        if power_cap_w <= 0:
            raise ValueError("power_cap_w must be positive")
        chars = characteristics_of(kernel)
        truth, observe = self._reader(chars, rng)
        ceiling = power_cap_w * (1.0 + CAP_EPSILON)  # respects_cap's bound
        i, observed, reading, trace = self._walk_down(
            observe, self._index(start), ceiling
        )
        return self._result(chars, truth, i, reading, observed <= ceiling, trace)

    def limit_gpu_with_headroom(
        self,
        kernel: object,
        power_cap_w: float,
        *,
        rng: np.random.Generator | NormalStream | None = None,
    ) -> LimiterResult:
        """The paper's GPU+FL policy (Section V-A).

        Start with the GPU at maximum frequency and the host CPU at
        minimum; lower the GPU P-state until the cap is met; then, if
        headroom remains, raise the host CPU frequency as far as possible
        without violating the cap.
        """
        if power_cap_w <= 0:
            raise ValueError("power_cap_w must be positive")
        start = Configuration.gpu(
            pstates.GPU_MAX_FREQ_GHZ, pstates.CPU_MIN_FREQ_GHZ
        )
        chars = characteristics_of(kernel)
        truth, observe = self._reader(chars, rng)
        ceiling = power_cap_w * (1.0 + CAP_EPSILON)  # respects_cap's bound
        i, observed, reading, trace = self._walk_down(
            observe, self._index(start), ceiling
        )
        met_cap = observed <= ceiling
        if met_cap:
            # Exploit headroom: raise host CPU frequency while under the
            # cap.  A worst-case read (dropout / failed run) observes as
            # inf, so the step-up backs off exactly like a genuine
            # violation; the last cap-compliant reading is kept.
            configs, up = self._configs, self._ladder.up_cpu
            while up[i] >= 0:
                observed, step = observe(up[i])
                trace.append((configs[up[i]], observed))
                if observed > ceiling:
                    break
                i, reading = up[i], step
        return self._result(chars, truth, i, reading, met_cap, trace)

    def limit_cpu_all_cores(
        self,
        kernel: object,
        power_cap_w: float,
        *,
        rng: np.random.Generator | NormalStream | None = None,
    ) -> LimiterResult:
        """The paper's CPU+FL policy (Section V-A): all cores enabled,
        GPU at minimum frequency, CPU P-state lowered to meet the cap."""
        start = Configuration.cpu(pstates.CPU_MAX_FREQ_GHZ, pstates.N_CORES)
        return self.limit(kernel, start, power_cap_w, rng=rng)
