"""Property-based tests (hypothesis) for the hardware backend zoo.

Physical invariants the analytical machine models must satisfy for
*arbitrary* kernels and knob settings, not just the suite's 65:

* DVFS power monotonicity — raising a block's frequency (voltage rises
  with it along the ladder) never lowers true power, on any backend;
* big.LITTLE migration cost is never negative, for any kernel and any
  valid calibration constants;
* lumos technology-node scaling is *uniform* per node, so it preserves
  Pareto dominance between any two configurations exactly.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.backend import characteristics_of, create_backend
from repro.hardware.biglittle import HMPConstants, migration_cost_s
from repro.hardware.counters import synthesize_counters
from repro.hardware.mpsoc import TECH_NODES_NM, MPSoC, dvfs_bounds
from repro.hardware.noise import NoiseModel
from repro.workloads import build_suite

BACKENDS = ("trinity", "biglittle", "mpsoc")

_SUITE = list(build_suite())
_MACHINES = {name: create_backend(name, seed=0) for name in BACKENDS}
_MPSOC_NODES = {nm: MPSoC(tech_nm=nm, seed=0) for nm in TECH_NODES_NM}

kernels = st.sampled_from(_SUITE)


def _ladder_neighbors(backend, kernel, data):
    """Draw one config and the same config one frequency step up."""
    descriptor = backend.descriptor
    configs = tuple(backend.config_space)
    cfg = data.draw(st.sampled_from(configs), label="config")
    block = descriptor.secondary if cfg.is_gpu else descriptor.primary
    freqs = block.freqs_ghz
    freq = cfg.gpu_freq_ghz if cfg.is_gpu else cfg.cpu_freq_ghz
    i = block.index(freq)
    if i + 1 >= len(freqs):
        return None
    if cfg.is_gpu:
        faster = [
            c
            for c in configs
            if c.is_gpu
            and c.n_threads == cfg.n_threads
            and c.cpu_freq_ghz == cfg.cpu_freq_ghz
            and block.index(c.gpu_freq_ghz) == i + 1
        ]
    else:
        faster = [
            c
            for c in configs
            if not c.is_gpu
            and c.n_threads == cfg.n_threads
            and c.gpu_freq_ghz == cfg.gpu_freq_ghz
            and block.index(c.cpu_freq_ghz) == i + 1
        ]
    if not faster:
        return None
    return cfg, faster[0]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BACKENDS), kernel=kernels, data=st.data())
def test_dvfs_power_is_monotone_in_frequency(name, kernel, data):
    """One ladder step up (frequency and voltage rise together) never
    lowers true power, at fixed thread count on the same block."""
    backend = _MACHINES[name]
    pair = _ladder_neighbors(backend, kernel, data)
    if pair is None:
        return
    slow, fast = pair
    table = backend.true_table(kernel)
    assert table[fast][0] >= table[slow][0], (
        f"{name}: power dropped stepping {slow.label()} -> {fast.label()}"
    )


@settings(max_examples=100, deadline=None)
@given(
    kernel=kernels,
    base_s=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    scale=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_migration_cost_is_never_negative(kernel, base_s, scale):
    constants = HMPConstants(
        migration_base_s=base_s, migration_launch_scale=scale
    )
    cost = migration_cost_s(characteristics_of(kernel), constants)
    assert math.isfinite(cost)
    assert cost >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    kernel=kernels,
    nodes=st.tuples(
        st.sampled_from(TECH_NODES_NM), st.sampled_from(TECH_NODES_NM)
    ),
    data=st.data(),
)
def test_node_scaling_preserves_pareto_dominance(kernel, nodes, data):
    """If config A dominates config B at one technology node, the same
    ladder positions dominate at every other node — node scaling
    multiplies every time by one constant and every power by another,
    which cannot reorder either axis."""
    nm_a, nm_b = nodes
    m_a, m_b = _MPSOC_NODES[nm_a], _MPSOC_NODES[nm_b]
    table_a = list(m_a.true_table(kernel).values())
    table_b = list(m_b.true_table(kernel).values())
    n = len(table_a)
    assert n == len(table_b)
    i = data.draw(st.integers(min_value=0, max_value=n - 1), label="i")
    j = data.draw(st.integers(min_value=0, max_value=n - 1), label="j")
    (pw_ai, pf_ai), (pw_aj, pf_aj) = table_a[i], table_a[j]
    (pw_bi, pf_bi), (pw_bj, pf_bj) = table_b[i], table_b[j]
    if pw_ai <= pw_aj and pf_ai >= pf_aj:
        assert pw_bi <= pw_bj and pf_bi >= pf_bj


@settings(max_examples=40, deadline=None)
@given(nm=st.sampled_from(TECH_NODES_NM))
def test_node_ladders_respect_dvfs_bounds(nm):
    """Every relative DVFS point of a node's ladders sits inside the
    node's (near-threshold, boost) voltage-scaling bounds."""
    machine = _MPSOC_NODES[nm]
    lo, hi = dvfs_bounds(nm)
    for rel in machine._rel_serial.values():
        assert lo <= rel <= hi
    for rel in machine._rel_tput.values():
        assert lo <= rel <= hi


@settings(max_examples=50, deadline=None)
@given(
    kernel=kernels,
    launch=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)
def test_migration_cost_scales_with_launch_overhead(kernel, launch):
    """The migration cost is monotone in the kernel's launch overhead
    (a heavier context costs at least as much to migrate)."""
    base = replace(characteristics_of(kernel), launch_overhead_s=launch)
    heavier = replace(base, launch_overhead_s=launch + 0.01)
    c = HMPConstants()
    assert migration_cost_s(heavier, c) >= migration_cost_s(base, c)


@pytest.mark.parametrize("nm", TECH_NODES_NM)
def test_every_node_measures_with_its_own_descriptor(nm):
    """A measured run works at every technology node — including the
    nodes whose descriptor has no registry entry — and its counters
    normalize to that node's own ladders."""
    machine = MPSoC(tech_nm=nm, seed=0, noise=NoiseModel.exact())
    chars = characteristics_of(_SUITE[0])
    for cfg in machine.descriptor.sample_configs():
        m = machine.run(chars, cfg)
        assert m.config == cfg
        assert m.total_power_w == machine.true_total_power_w(chars, cfg)
        assert m.counters == synthesize_counters(chars, cfg, machine.descriptor)
