"""The frequency limiter's ladder-index walk equals the per-step
``apu.run`` walk of ``tests/_limit_reference.py``, field for field.

Every case runs the production limiter and the reference on twin
machines (same seed, noise model and fault plan) with twin noise
streams, walks several caps in a row, and then compares
``final_config``, ``trace``, ``met_cap`` and ``final_measurement``
(counters included, floats by bit pattern) — reading the lazily built
measurements only after every walk, so a later walk cannot disturb an
earlier one's record.  Finally both noise streams must hand out the
same next draw and both fault clocks must stand at the same run.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultPlan
from repro.hardware import FrequencyLimiter, NoiseModel, TrinityAPU
from repro.hardware import rapl
from repro.hardware.config import ConfigSpace
from repro.hardware.rapl import NormalStream
from tests._limit_reference import (
    _limit_cpu_all_cores_reference,
    _limit_gpu_with_headroom_reference,
    _limit_reference,
)
from tests.conftest import make_kernel

CONFIGS = tuple(ConfigSpace())

NOISE_MODELS = {
    "default": NoiseModel(),
    "exact": NoiseModel.exact(),
    "no-power": NoiseModel(time_rel=0.015, power_rel=0.0, counter_rel=0.03),
    "power-only": NoiseModel(time_rel=0.0, power_rel=0.04, counter_rel=0.0),
    "no-counters": NoiseModel(time_rel=0.02, power_rel=0.05, counter_rel=0.0),
}

#: Hand-written plans that hit the first runs of a walk, plus random
#: chaos plans (every fault kind) over a short run horizon.
FIXED_PLANS = {
    "stuck-cpu": FaultPlan(
        (
            FaultEvent(
                "pstate_stuck", start=1, duration=3, device="cpu", pstate_index=4
            ),
        ),
        name="stuck-cpu",
    ),
    "stuck-gpu": FaultPlan(
        (
            FaultEvent(
                "pstate_stuck", start=0, duration=4, device="gpu", pstate_index=2
            ),
        ),
        name="stuck-gpu",
    ),
    "dropout": FaultPlan(
        (FaultEvent("power_dropout", start=0, duration=2, device="cpu"),),
        name="dropout",
    ),
    "run-failure": FaultPlan(
        (FaultEvent("run_failure", start=1, duration=2),),
        name="run-failure",
    ),
    "bias-and-counters": FaultPlan(
        (
            FaultEvent("power_bias", start=0, duration=3, magnitude=0.6),
            FaultEvent("counter_nan", start=1, duration=1),
            FaultEvent("counter_corrupt", start=2, duration=3, magnitude=2.0),
        ),
        name="bias-and-counters",
    ),
}

kernels = st.builds(
    make_kernel,
    work_s=st.floats(0.05, 5.0),
    parallel_fraction=st.floats(0.3, 1.0),
    mem_fraction=st.floats(0.0, 0.9),
    gpu_affinity=st.floats(0.3, 8.0),
    gpu_mem_fraction=st.floats(0.0, 0.9),
    activity=st.floats(0.2, 1.6),
    gpu_activity=st.floats(0.2, 1.6),
)

plans = st.one_of(
    st.none(),
    st.sampled_from(sorted(FIXED_PLANS)).map(FIXED_PLANS.get),
    st.integers(0, 10_000).map(
        lambda seed: FaultPlan.random(seed, n_events=4, horizon=16, max_duration=4)
    ),
)

walks = st.lists(
    st.tuples(
        st.sampled_from(("limit", "cpu_all_cores", "gpu_with_headroom")),
        st.sampled_from(CONFIGS),
        st.floats(4.0, 110.0),
    ),
    min_size=1,
    max_size=4,
)


def _canon(m) -> tuple:
    """A measurement as comparable data (floats by bit pattern, so NaN
    readings compare and no last-bit difference hides)."""
    return (
        m.config,
        m.time_s.hex(),
        m.cpu_plane_w.hex(),
        m.nbgpu_plane_w.hex(),
        tuple((name, float(v).hex()) for name, v in m.counters.items()),
    )


def _machine(noise: NoiseModel, plan: FaultPlan | None) -> TrinityAPU:
    apu = TrinityAPU(noise=noise, seed=7)
    if plan is not None:
        apu.inject_faults(plan)
    return apu


@settings(max_examples=150, deadline=None)
@given(
    kernel=kernels,
    noise=st.sampled_from(sorted(NOISE_MODELS)),
    plan=plans,
    stream=st.sampled_from(("generator", "blocks", "machine")),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 64),
    walks=walks,
)
def test_limiter_matches_per_step_reference(
    kernel, noise, plan, stream, seed, block, walks
):
    apu = _machine(NOISE_MODELS[noise], plan)
    ref_apu = _machine(NOISE_MODELS[noise], plan)
    limiter = FrequencyLimiter(apu)
    ref_rng = np.random.default_rng(seed)
    if stream == "generator":
        rng = np.random.default_rng(seed)
    elif stream == "blocks":
        rng = NormalStream(np.random.default_rng(seed))
    else:
        rng = ref_rng = None  # both walk their machine's own stream

    got, want = [], []
    # Small blocks so walks straddle refills.
    with mock.patch.object(rapl, "_BLOCK", block):
        for policy, start, cap in walks:
            if policy == "limit":
                got.append(limiter.limit(kernel, start, cap, rng=rng))
                want.append(_limit_reference(ref_apu, kernel, start, cap, ref_rng))
            elif policy == "cpu_all_cores":
                got.append(limiter.limit_cpu_all_cores(kernel, cap, rng=rng))
                want.append(
                    _limit_cpu_all_cores_reference(ref_apu, kernel, cap, ref_rng)
                )
            else:
                got.append(limiter.limit_gpu_with_headroom(kernel, cap, rng=rng))
                want.append(
                    _limit_gpu_with_headroom_reference(ref_apu, kernel, cap, ref_rng)
                )

    for result, expected in zip(got, want):
        assert result.final_config == expected["final_config"]
        assert result.trace == expected["trace"]
        assert result.met_cap == expected["met_cap"]
        assert _canon(result.final_measurement) == _canon(
            expected["final_measurement"]
        )

    if stream == "generator":
        assert rng.standard_normal() == ref_rng.standard_normal()
    elif stream == "blocks":
        buf, at = rng.take(1)
        assert buf[at] == ref_rng.standard_normal()
    else:
        assert apu._rng.standard_normal() == ref_apu._rng.standard_normal()
    if plan is not None:
        assert apu.fault_injector.runs_started == ref_apu.fault_injector.runs_started


def test_normal_stream_hands_out_the_generator_sequence():
    stream = NormalStream(np.random.default_rng(3))
    drawn = []
    with mock.patch.object(rapl, "_BLOCK", 5):
        for n in (1, 4, 7, 0, 2, 13):
            buf, at = stream.take(n)
            drawn.extend(buf[at : at + n])
    assert drawn == np.random.default_rng(3).standard_normal(len(drawn)).tolist()


def test_math_exp_matches_generator_lognormal():
    """The limiter's ``exp(mu + sigma * z)`` on standard normals equals
    ``Generator.lognormal`` bit for bit and leaves the same state."""
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        mu, sigma = -0.5 * 0.02 * 0.02, 0.02
        want = a.lognormal(mu, sigma, size=13).tolist()
        got = [math.exp(mu + sigma * z) for z in b.standard_normal(13).tolist()]
        assert got == want
        assert a.standard_normal() == b.standard_normal()


def test_consecutive_walks_follow_stream_and_fault_plan_changes():
    """Walks of one kernel in a row follow the noise stream and the
    fault plan each walk is given."""
    kernel = make_kernel()
    apu, ref_apu = _machine(NoiseModel(), None), _machine(NoiseModel(), None)
    limiter = FrequencyLimiter(apu)
    streams = [np.random.default_rng(1), np.random.default_rng(2)]
    ref_streams = [np.random.default_rng(1), np.random.default_rng(2)]
    start, cap = CONFIGS[23], 40.0
    # The plan changes between walks on the same stream.
    sequence = [(0, None), (1, None), (1, "dropout"), (None, None), (None, "clear")]
    for s, plan in sequence:
        for machine in (apu, ref_apu):
            if plan == "dropout":
                machine.inject_faults(FIXED_PLANS["dropout"])
            elif plan == "clear":
                machine.inject_faults(None)
        rng = None if s is None else streams[s]
        ref_rng = None if s is None else ref_streams[s]
        got = limiter.limit(kernel, start, cap, rng=rng)
        want = _limit_reference(ref_apu, kernel, start, cap, ref_rng)
        assert got.trace == want["trace"]
        assert _canon(got.final_measurement) == _canon(want["final_measurement"])
