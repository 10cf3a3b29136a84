"""The hybrid batched Apply must agree with the reference Apply."""

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.mra.function import FunctionFactory
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import GaussianConvolution
from repro.operators.gaussian_fit import single_gaussian
from tests.conftest import gaussian_1d, gaussian_nd, make_runtime


@pytest.fixture(scope="module")
def problem_1d():
    fac = FunctionFactory(dim=1, k=8, thresh=1e-8)
    f = fac.from_callable(gaussian_1d(800.0))
    op = GaussianConvolution(1, 8, single_gaussian(1.0, 400.0), thresh=1e-8)
    return f, op, op.apply(f)


@pytest.fixture(scope="module")
def problem_2d():
    fac = FunctionFactory(dim=2, k=6, thresh=1e-5)
    f = fac.from_callable(gaussian_nd(2, alpha=150.0))
    op = GaussianConvolution(2, 6, single_gaussian(1.0, 250.0), thresh=1e-6)
    return f, op, op.apply(f)


@pytest.mark.parametrize("mode", ["cpu", "gpu", "hybrid"])
def test_1d_batched_equals_reference(problem_1d, mode):
    f, op, reference = problem_1d
    result = BatchedApply(op, make_runtime(mode)).apply(f)
    assert (reference - result.function).norm2() < 1e-10


def test_2d_batched_equals_reference(problem_2d):
    f, op, reference = problem_2d
    result = BatchedApply(op, make_runtime("hybrid")).apply(f)
    rel = (reference - result.function).norm2() / reference.norm2()
    assert rel < 1e-5


def test_gpu_kernel_choice_does_not_change_numerics(problem_1d):
    f, op, _ref = problem_1d
    custom = BatchedApply(op, make_runtime("gpu", gpu_kernel="custom")).apply(f)
    cublas = BatchedApply(op, make_runtime("gpu", gpu_kernel="cublas")).apply(f)
    assert (custom.function - cublas.function).norm2() < 1e-12


def test_timeline_accounts_batches_and_items(problem_2d):
    f, op, _ref = problem_2d
    result = BatchedApply(op, make_runtime("hybrid")).apply(f)
    tl = result.timeline
    assert tl.n_batches > 0
    assert tl.n_cpu_items + tl.n_gpu_items == tl.n_tasks
    assert tl.total_seconds > 0
    assert result.stats.tasks > 0


def test_gpu_mode_ships_bytes(problem_2d):
    f, op, _ref = problem_2d
    result = BatchedApply(op, make_runtime("gpu")).apply(f)
    assert result.timeline.bytes_to_gpu > 0
    assert result.timeline.block_bytes_shipped > 0
    assert result.timeline.n_cpu_items == 0


def test_cpu_mode_ships_nothing(problem_2d):
    f, op, _ref = problem_2d
    result = BatchedApply(op, make_runtime("cpu")).apply(f)
    assert result.timeline.bytes_to_gpu == 0
    assert result.timeline.n_gpu_items == 0


def test_block_cache_dedups_transfers(problem_2d):
    """Within one run, repeated blocks cross PCIe once (write-once cache).

    A small batch cap forces several batches per kind so that later
    batches find their blocks already resident.
    """
    f, op, _ref = problem_2d
    runtime = make_runtime("gpu", max_batch_size=4)
    result = BatchedApply(op, runtime).apply(f)
    cache = runtime.gpu_cache
    assert cache.stats.hits > 0
    assert result.timeline.block_bytes_shipped == cache.stats.bytes_inserted


def test_dimension_mismatch_rejected(problem_1d):
    _f, op, _ref = problem_1d
    fac = FunctionFactory(dim=2, k=8, thresh=1e-4)
    with pytest.raises(OperatorError):
        BatchedApply(op, make_runtime()).apply(fac.zero())


def test_hybrid_time_between_pure_modes(problem_2d):
    """Simulated hybrid time must not exceed either pure mode."""
    f, op, _ref = problem_2d
    times = {}
    for mode in ("cpu", "gpu", "hybrid"):
        times[mode] = BatchedApply(op, make_runtime(mode)).apply(f).timeline.total_seconds
    assert times["hybrid"] <= 1.15 * min(times["cpu"], times["gpu"])


def test_coulomb_hybrid_node_run_is_pinned():
    """A real Coulomb apply on one hybrid Titan node reproduces its pinned
    transfer ledger and makespan.  It is the one real-numerics run whose
    GPU shares hold items with repeated block keys, so it pins that the
    node aggregates each GPU share by a forward fold of its items."""
    from repro.apps.coulomb import CoulombApplication
    from repro.hardware.cpu_model import CpuModel
    from repro.hardware.gpu_model import GpuModel
    from repro.hardware.specs import TITAN_NODE
    from repro.kernels.cpu_kernel import CpuMtxmKernel
    from repro.kernels.custom_gpu import CustomGpuKernel
    from repro.runtime.dispatcher import HybridDispatcher
    from repro.runtime.node import NodeRuntime

    density, operator, _exact = CoulombApplication.real_instance(
        k=3, thresh=1e-2, eps=1e-2, alpha=150.0
    )
    dispatcher = HybridDispatcher(
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        cpu_threads=10,
        gpu_streams=5,
        mode="hybrid",
    )
    runtime = NodeRuntime(
        TITAN_NODE, dispatcher, flush_interval=0.005, max_batch_size=60
    )
    tl = BatchedApply(operator, runtime).apply(density).timeline
    assert (tl.n_tasks, tl.n_gpu_items) == (3457, 108)
    assert tl.block_bytes_shipped == 38_073
    assert tl.bytes_to_gpu == 224_697
    assert tl.total_seconds.hex() == "0x1.918a931054fecp-7"
