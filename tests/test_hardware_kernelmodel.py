"""Tests for repro.hardware.kernelmodel (ground-truth timing model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CPU_FREQS_GHZ, GPU_FREQS_GHZ, Configuration
from repro.hardware import kernelmodel as km
from tests.conftest import config_rows, make_kernel


def times(k, configs):
    """The timing model over configuration rows, as python floats."""
    return km.time_s(k, *config_rows(configs)).tolist()


def cpu_time(k, freq_ghz, n_threads):
    (t,) = times(k, [Configuration.cpu(freq_ghz, n_threads)])
    return t


def gpu_time(k, gpu_freq_ghz, host_freq_ghz):
    (t,) = times(k, [Configuration.gpu(gpu_freq_ghz, host_freq_ghz)])
    return t


def test_characteristics_range_validation():
    with pytest.raises(ValueError):
        make_kernel(parallel_fraction=1.5)
    with pytest.raises(ValueError):
        make_kernel(mem_fraction=-0.1)
    with pytest.raises(ValueError):
        make_kernel(gpu_affinity=0.0)
    with pytest.raises(ValueError):
        make_kernel(work_s=0.0)


def test_amdahl_limits():
    assert km.amdahl_speedup(1, 0.9) == pytest.approx(1.0)
    assert km.amdahl_speedup(4, 0.0) == pytest.approx(1.0)  # serial kernel
    assert km.amdahl_speedup(4, 1.0) == pytest.approx(4.0)  # perfect scaling
    # 90% parallel at 4 threads: 1/(0.1+0.225)
    assert km.amdahl_speedup(4, 0.9) == pytest.approx(1 / 0.325)


def test_amdahl_monotone_in_threads():
    sp = [km.amdahl_speedup(n, 0.95) for n in range(1, 5)]
    assert sp == sorted(sp)


def test_bandwidth_factor_saturates():
    bw = [km.memory_bandwidth_factor(n) for n in range(1, 5)]
    assert bw[0] == pytest.approx(1.0)
    assert bw == sorted(bw)  # monotone...
    gains = np.diff(bw)
    assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))  # ...concave
    assert bw[-1] < 4.0  # strictly sub-linear


def test_invalid_thread_counts():
    with pytest.raises(ValueError):
        km.amdahl_speedup(0, 0.5)
    with pytest.raises(ValueError):
        km.memory_bandwidth_factor(0)
    # Arrays are rejected when any row is below one thread.
    with pytest.raises(ValueError):
        km.amdahl_speedup(np.array([4, 0]), 0.5)
    with pytest.raises(ValueError):
        km.memory_bandwidth_factor(np.array([0, 1]))
    with pytest.raises(ValueError):
        km.time_s(
            make_kernel(),
            np.array([False]),
            np.array([2.4]),
            np.array([0]),
            np.array([0.311]),
        )


def test_helpers_accept_arrays_elementwise():
    n = np.arange(1, 5)
    assert km.amdahl_speedup(n, 0.9).tolist() == [
        km.amdahl_speedup(int(i), 0.9) for i in n
    ]
    assert km.memory_bandwidth_factor(n).tolist() == [
        km.memory_bandwidth_factor(int(i)) for i in n
    ]


def test_cpu_time_decreases_with_frequency_for_compute_kernel():
    k = make_kernel(mem_fraction=0.05)
    times = [cpu_time(k, f, 1) for f in CPU_FREQS_GHZ]
    assert times == sorted(times, reverse=True)
    # Nearly ideal frequency scaling.
    assert times[0] / times[-1] == pytest.approx(3.7 / 1.4, rel=0.1)


def test_memory_bound_kernel_nearly_frequency_insensitive():
    k = make_kernel(mem_fraction=0.9)
    t_low = cpu_time(k, 1.4, 4)
    t_high = cpu_time(k, 3.7, 4)
    assert t_low / t_high < 1.3  # far from the 2.64x frequency ratio


def test_cpu_time_decreases_with_threads():
    k = make_kernel(parallel_fraction=0.95, mem_fraction=0.3)
    times = [cpu_time(k, 2.4, n) for n in range(1, 5)]
    assert times == sorted(times, reverse=True)


def test_serial_kernel_ignores_threads():
    k = make_kernel(parallel_fraction=0.0, mem_fraction=0.0)
    assert cpu_time(k, 2.4, 1) == pytest.approx(cpu_time(k, 2.4, 4))


def test_reference_config_time_equals_work():
    k = make_kernel(mem_fraction=0.0)
    assert cpu_time(k, 3.7, 1) == pytest.approx(k.work_s)


def test_gpu_time_decreases_with_gpu_frequency():
    k = make_kernel()
    times = [gpu_time(k, g, 1.4) for g in GPU_FREQS_GHZ]
    assert times == sorted(times, reverse=True)


def test_gpu_memory_bound_flattens_frequency_scaling():
    flat = make_kernel(gpu_mem_fraction=0.9)
    steep = make_kernel(gpu_mem_fraction=0.05)

    def ratio(k):
        return gpu_time(k, 0.311, 3.7) / gpu_time(k, 0.819, 3.7)

    assert ratio(steep) > ratio(flat)
    assert ratio(steep) == pytest.approx(0.819 / 0.311, rel=0.15)


def test_launch_overhead_scales_with_host_frequency():
    k = make_kernel(launch_overhead_s=0.5, gpu_affinity=10.0)
    t_slow = gpu_time(k, 0.819, 1.4)
    t_fast = gpu_time(k, 0.819, 3.7)
    assert t_slow > t_fast  # Table I: GPU rows differ by CPU frequency
    overhead_delta = 0.5 * (3.7 / 1.4) - 0.5
    assert t_slow - t_fast == pytest.approx(overhead_delta, rel=1e-9)


def test_gpu_affinity_divides_device_time():
    fast = make_kernel(gpu_affinity=8.0, launch_overhead_s=0.0)
    slow = make_kernel(gpu_affinity=0.5, launch_overhead_s=0.0)
    assert gpu_time(slow, 0.819, 3.7) / gpu_time(fast, 0.819, 3.7) == (
        pytest.approx(16.0)
    )


def test_true_time_dispatches_by_device():
    k = make_kernel()
    c_cpu = Configuration.cpu(2.4, 2)
    c_gpu = Configuration.gpu(0.649, 2.4)
    # Mixed rows take their own device's branch, bit for bit.
    assert times(k, [c_cpu, c_gpu]) == [cpu_time(k, 2.4, 2), gpu_time(k, 0.649, 2.4)]
    assert cpu_time(k, 2.4, 2) != gpu_time(k, 0.649, 2.4)


def test_gpu_busy_fraction_bounds():
    k = make_kernel(gpu_mem_fraction=0.6)
    for g in GPU_FREQS_GHZ:
        b = km.gpu_busy_fraction(k, g)
        assert 0.0 < b <= 1.0
    # Higher frequency -> more stalling -> lower busy fraction.
    assert km.gpu_busy_fraction(k, 0.311) > km.gpu_busy_fraction(k, 0.819)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.99),
    st.integers(min_value=1, max_value=4),
)
def test_property_cpu_time_positive_and_freq_monotone(p, beta, n):
    k = make_kernel(parallel_fraction=p, mem_fraction=beta)
    times = [cpu_time(k, f, n) for f in CPU_FREQS_GHZ]
    assert all(t > 0 for t in times)
    assert all(times[i] >= times[i + 1] - 1e-12 for i in range(len(times) - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_property_gpu_time_positive_and_monotone(aff, beta_g):
    k = make_kernel(gpu_affinity=aff, gpu_mem_fraction=beta_g)
    times = [gpu_time(k, g, 2.4) for g in GPU_FREQS_GHZ]
    assert all(t > 0 for t in times)
    assert all(times[i] >= times[i + 1] - 1e-12 for i in range(len(times) - 1))
