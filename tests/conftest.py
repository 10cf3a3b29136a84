"""Shared fixtures.

Expensive objects (operators with their block caches, projected
functions) are session-scoped: the underlying objects are immutable or
copied by the tests that mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.base import FormulaPayload
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.mra.function import FunctionFactory
from repro.operators.convolution import CoulombOperator, GaussianConvolution
from repro.operators.gaussian_fit import single_gaussian
from repro.runtime.dispatcher import HybridDispatcher
from repro.runtime.node import NodeRuntime


def gaussian_1d(alpha: float = 300.0, center: float = 0.5):
    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(-alpha * (x[:, 0] - center) ** 2)

    return f


def gaussian_nd(dim: int, alpha: float = 100.0):
    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(-alpha * ((x - 0.5) ** 2).sum(axis=1))

    return f


@pytest.fixture(scope="session")
def factory_1d() -> FunctionFactory:
    return FunctionFactory(dim=1, k=8, thresh=1e-8)


@pytest.fixture(scope="session")
def f1d(factory_1d) -> "MultiresolutionFunction":
    return factory_1d.from_callable(gaussian_1d())


@pytest.fixture(scope="session")
def factory_2d() -> FunctionFactory:
    return FunctionFactory(dim=2, k=6, thresh=1e-5)


@pytest.fixture(scope="session")
def f2d(factory_2d):
    return factory_2d.from_callable(gaussian_nd(2, alpha=150.0))


@pytest.fixture(scope="session")
def factory_3d() -> FunctionFactory:
    return FunctionFactory(dim=3, k=6, thresh=1e-4)


@pytest.fixture(scope="session")
def f3d(factory_3d):
    return factory_3d.from_callable(gaussian_nd(3, alpha=100.0))


@pytest.fixture(scope="session")
def gauss_op_1d() -> GaussianConvolution:
    return GaussianConvolution(1, 8, single_gaussian(1.0, 400.0), thresh=1e-8)


@pytest.fixture(scope="session")
def gauss_op_2d() -> GaussianConvolution:
    return GaussianConvolution(2, 6, single_gaussian(1.0, 250.0), thresh=1e-6)


@pytest.fixture(scope="session")
def coulomb_op_small() -> CoulombOperator:
    return CoulombOperator(dim=3, k=6, eps=1e-3, r_lo=3e-3)


@pytest.fixture()
def cpu_model() -> CpuModel:
    return CpuModel(TITAN_NODE.cpu)


@pytest.fixture()
def gpu_model() -> GpuModel:
    return GpuModel(TITAN_NODE.gpu)


def payload_from_factors(s, factors, coeffs) -> FormulaPayload:
    """A payload from per-term factor tuples (``factors[mu][axis]``)."""
    q = s.shape[0]
    stacks = tuple(
        np.stack([hs[axis] for hs in factors]) if factors else np.empty((0, q, q))
        for axis in range(s.ndim)
    )
    return FormulaPayload(s=s, stacks=stacks, coeffs=coeffs)


def make_runtime(
    mode: str = "hybrid",
    *,
    cpu_threads: int = 10,
    gpu_streams: int = 5,
    gpu_kernel: str = "custom",
    rank_reduction: bool = False,
    flush_interval: float = 0.005,
    max_batch_size: int = 60,
    **runtime_kwargs,
) -> NodeRuntime:
    cpu = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu), rank_reduction=rank_reduction)
    gm = GpuModel(TITAN_NODE.gpu)
    gpu = CustomGpuKernel(gm) if gpu_kernel == "custom" else CublasKernel(gm)
    dispatcher = HybridDispatcher(
        cpu, gpu, cpu_threads=cpu_threads, gpu_streams=gpu_streams, mode=mode
    )
    return NodeRuntime(
        TITAN_NODE,
        dispatcher,
        flush_interval=flush_interval,
        max_batch_size=max_batch_size,
        **runtime_kwargs,
    )


@pytest.fixture()
def hybrid_runtime() -> NodeRuntime:
    return make_runtime("hybrid")


def pytest_addoption(parser):
    """``--update-golden`` regenerates the committed golden trace
    fixtures under ``tests/obs/golden/`` instead of comparing against
    them (see docs/OBSERVABILITY.md for the update workflow)."""
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden trace fixtures from the current runtime",
    )


@pytest.fixture()
def update_golden(request) -> bool:
    """Whether this run should rewrite golden fixtures."""
    return bool(request.config.getoption("--update-golden"))
