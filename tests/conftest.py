"""Shared fixtures: representative kernels and machines."""

import numpy as np
import pytest

from repro.hardware import KernelCharacteristics, NoiseModel, TrinityAPU


def make_kernel(**overrides) -> KernelCharacteristics:
    """A mid-of-the-road kernel; override any latent characteristic."""
    base = dict(
        work_s=1.0,
        parallel_fraction=0.95,
        mem_fraction=0.4,
        gpu_affinity=3.0,
        gpu_mem_fraction=0.6,
        launch_overhead_s=0.02,
        activity=0.8,
        gpu_activity=0.8,
        vector_fraction=0.3,
        branch_rate=0.1,
        l1_miss_rate=0.02,
        l2_miss_ratio=0.3,
        tlb_miss_rate=0.001,
        dram_intensity=0.4,
    )
    base.update(overrides)
    return KernelCharacteristics(**base)


def config_rows(configs) -> tuple[np.ndarray, ...]:
    """Configurations as the parallel factor arrays the vectorized
    machine models take: ``(is_gpu, cpu_freq_ghz, n_threads,
    gpu_freq_ghz)``."""
    configs = list(configs)
    return (
        np.array([c.is_gpu for c in configs]),
        np.array([c.cpu_freq_ghz for c in configs]),
        np.array([c.n_threads for c in configs]),
        np.array([c.gpu_freq_ghz for c in configs]),
    )


@pytest.fixture
def kernel() -> KernelCharacteristics:
    return make_kernel()


@pytest.fixture
def compute_kernel() -> KernelCharacteristics:
    """Compute-bound, scales well with frequency and threads."""
    return make_kernel(mem_fraction=0.05, parallel_fraction=0.99, activity=1.2)


@pytest.fixture
def memory_kernel() -> KernelCharacteristics:
    """Memory-bound, nearly frequency-insensitive."""
    return make_kernel(mem_fraction=0.85, activity=0.5, dram_intensity=0.9)


@pytest.fixture
def gpu_friendly_kernel() -> KernelCharacteristics:
    """Large GPU speedup, as most LULESH kernels in the paper."""
    return make_kernel(gpu_affinity=8.0, gpu_mem_fraction=0.3)


@pytest.fixture
def cpu_friendly_kernel() -> KernelCharacteristics:
    """Poor GPU fit: divergent/serial code."""
    return make_kernel(gpu_affinity=0.6, parallel_fraction=0.7)


@pytest.fixture
def exact_apu() -> TrinityAPU:
    """Noise-free machine: measurements equal ground truth."""
    return TrinityAPU(noise=NoiseModel.exact(), seed=0)


@pytest.fixture
def noisy_apu() -> TrinityAPU:
    """Machine with realistic measurement noise."""
    return TrinityAPU(seed=0)
