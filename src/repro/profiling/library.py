"""The integrated profiling library (paper Section III-D).

:class:`ProfilingLibrary` is the instrumentation layer between the
machine and the modeling pipeline.  A profiled execution:

1. runs the kernel (simulated) on the requested configuration;
2. estimates per-plane power by sampling the on-chip estimator at
   1 kHz and integrating (:mod:`repro.profiling.sampler`), charging the
   sampling overhead to the measured execution time;
3. reads performance counters at kernel start/finish (the paper bounds
   this at < 50 microseconds per kernel);
4. records the profile into a :class:`ProfileDatabase` history.

Everything downstream — Pareto frontiers, clustering, regression, the
classification tree — consumes only what this library records, exactly
as the paper's pipeline consumes only PAPI counters and integrated
power estimates.

Measurement noise is drawn from *counter-based* streams: every profiled
execution gets its own generator derived from the library seed and the
``(kernel uid, configuration, repetition)`` identity of the run.  Two
libraries with equal seeds therefore produce identical profiles for the
same run regardless of the order in which runs are requested — the
property that lets :class:`repro.profiling.store.CharacterizationStore`
characterize the suite once and share the profiles across every
cross-validation fold and ablation variant.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.hardware.apu import Measurement, TrinityAPU
from repro.hardware.backend import characteristics_of
from repro.hardware.config import Configuration
from repro.hardware.counters import synthesize_counters
from repro.profiling.records import KernelProfile, ProfileDatabase
from repro.profiling.sampler import PowerSampler
from repro.telemetry import counter, gauge

__all__ = ["ProfilingLibrary"]

#: Counter read cost at kernel start + finish (paper: < 50 us).
COUNTER_READ_OVERHEAD_S: float = 50e-6

#: Process-wide memo of profiled executions.  A profile is a pure
#: function of the machine physics (its physics key: power constants
#: plus boost policy), the noise model, the sampling model, the
#: library's base entropy, and the run identity (kernel uid +
#: characteristics, configuration, repetition) — the counter-based
#: streams exist precisely so that equal seeds reproduce equal profiles.
#: Repeated evaluations (warm LOOCV runs, ablation sweeps) therefore
#: reuse measurements instead of re-integrating the sampled traces.
#: Bypassed only by runs a fault perturbed.
_PROFILE_CACHE: dict[tuple, tuple[Measurement, float]] = {}

# Hit/miss accounting for the profile memo (see docs/OBSERVABILITY.md).
_PROFILE_HITS = counter("cache.profile.hits")
_PROFILE_MISSES = counter("cache.profile.misses")
_PROFILE_SIZE = gauge("cache.profile.size")


def _run_key(kernel_uid: str, config: Configuration, repetition: int) -> list[int]:
    """Stable 128-bit entropy words identifying one profiled run."""
    ident = f"{kernel_uid}\x1f{config.label()}\x1f{repetition}".encode()
    digest = hashlib.sha256(ident).digest()
    return [
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    ]


class ProfilingLibrary:
    """Instrumented kernel execution with power sampling and history.

    Parameters
    ----------
    apu:
        The machine to run on.
    sampler:
        Power sampling model (defaults to the paper's 1 kHz).
    seed:
        Seed of the library's measurement-noise streams; also accepts a
        :class:`numpy.random.SeedSequence` (e.g. one spawned per
        cross-validation fold).  Noise is keyed per
        ``(kernel, configuration, repetition)``, so two libraries with
        equal seeds produce identical profiles for the same runs in any
        order.
    """

    def __init__(
        self,
        apu: TrinityAPU,
        *,
        sampler: PowerSampler | None = None,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        self.apu = apu
        self.sampler = sampler if sampler is not None else PowerSampler()
        self.database = ProfileDatabase()
        seed_seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # Base entropy words; combined with each run's identity key to
        # derive that run's private noise stream.
        self._base_entropy = [int(w) for w in seed_seq.generate_state(4)]
        # Per-(kernel, configuration) repetition counters: re-profiling
        # the same run draws fresh noise, while first-time profiles are
        # independent of the order other runs were requested in.
        self._rep_counts: dict[tuple[str, Configuration], int] = {}

    def _run_rng(
        self, kernel_uid: str, config: Configuration, repetition: int
    ) -> np.random.Generator:
        """The counter-based noise stream of one profiled execution."""
        entropy = self._base_entropy + _run_key(kernel_uid, config, repetition)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def profile(
        self,
        kernel,
        config: Configuration,
        *,
        kernel_uid: str | None = None,
    ) -> KernelProfile:
        """Execute ``kernel`` once on ``config`` and record the profile.

        ``kernel`` may be a :class:`repro.workloads.Kernel` (its
        :attr:`~repro.workloads.Kernel.uid` names the record) or raw
        :class:`~repro.hardware.KernelCharacteristics` with an explicit
        ``kernel_uid``.
        """
        uid = kernel_uid if kernel_uid is not None else getattr(kernel, "uid", None)
        if not uid:
            raise ValueError(
                "kernel has no uid; pass kernel_uid= for raw characteristics"
            )

        repetition = self._rep_counts.get((uid, config), 0)
        self._rep_counts[(uid, config)] = repetition + 1

        chars = characteristics_of(kernel)

        # Fault injection: the run clock advances per profile attempt
        # (failed attempts included), may raise SampleRunError, and may
        # substitute the executed P-state.  Run identity — the noise
        # stream and repetition count — stays keyed by the *requested*
        # configuration, so an empty plan replays bit-identically and a
        # retry after a failure draws fresh noise.
        fctx = None
        if self.apu.fault_injector is not None:
            fctx = self.apu.fault_injector.begin_run(config)
        exec_config = config if fctx is None else fctx.config

        memo_key = None
        if fctx is None or fctx.clean:
            memo_key = (
                self.apu.physics_key,
                self.apu.noise,
                self.sampler,
                tuple(self._base_entropy),
                uid,
                chars,
                config,
                repetition,
            )
            cached = _PROFILE_CACHE.get(memo_key)
            if cached is not None:
                _PROFILE_HITS.inc()
                measurement, sampling_overhead = cached
                return self.database.record(
                    uid, measurement, sampling_overhead_s=sampling_overhead
                )
            _PROFILE_MISSES.inc()

        rng = self._run_rng(uid, config, repetition)
        true_t = self.apu.true_time_s(kernel, exec_config)
        true_pb = self.apu.true_power(kernel, exec_config)

        # Integrate each power plane from its own sampled trace.
        cpu_sp = self.sampler.sample(true_pb.cpu_plane_w, true_t, rng)
        nbgpu_sp = self.sampler.sample(true_pb.nbgpu_plane_w, true_t, rng)
        sampling_overhead = cpu_sp.overhead_s + COUNTER_READ_OVERHEAD_S

        # Timing measurement includes instrumentation overhead plus the
        # machine's run-to-run noise.
        noisy_t = self.apu.noise.perturb_time(true_t, rng)
        measured_t = noisy_t + sampling_overhead

        counters = self.apu.noise.perturb_counters(
            synthesize_counters(chars, exec_config), rng
        )
        measurement = Measurement(
            config=exec_config,
            time_s=measured_t,
            cpu_plane_w=cpu_sp.mean_power_w,
            nbgpu_plane_w=nbgpu_sp.mean_power_w,
            counters=counters,
        )
        if fctx is not None:
            measurement = fctx.apply(measurement)
        if memo_key is not None:
            _PROFILE_CACHE[memo_key] = (measurement, sampling_overhead)
            _PROFILE_SIZE.set(len(_PROFILE_CACHE))
        return self.database.record(
            uid, measurement, sampling_overhead_s=sampling_overhead
        )

    def profile_all_configs(self, kernel) -> list[KernelProfile]:
        """Profile a kernel on every machine configuration — the offline
        exhaustive characterization applied to training kernels."""
        return [self.profile(kernel, cfg) for cfg in self.apu.config_space]
