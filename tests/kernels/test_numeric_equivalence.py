"""All three kernels must produce identical numbers — only timing differs.

The non-reduced kernels share one evaluator whose output must equal the
per-term ``mtxmq`` chain (``FormulaPayload.reference_result``) exactly;
only CPU rank reduction is allowed to differ, within its tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.coulomb import CoulombApplication
from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.base import evaluate_formula
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.mra.tree import FunctionTree
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import ApplyStats
from repro.runtime.task import TaskKind, WorkItem
from repro.tensor.flops import flop_counter
from tests.conftest import make_runtime, payload_from_factors


def payload_item(seed: int, dim: int = 2, q: int = 6, rank: int = 3) -> WorkItem:
    rng = np.random.default_rng(seed)
    payload = payload_from_factors(
        s=rng.standard_normal((q,) * dim),
        factors=[
            tuple(rng.standard_normal((q, q)) for _ in range(dim))
            for _ in range(rank)
        ],
        coeffs=rng.standard_normal(rank),
    )
    return WorkItem(kind=TaskKind("t", 0), payload=payload)


def exact_kernels():
    """The kernels that run the shared evaluator (no rank reduction)."""
    return [
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        CublasKernel(GpuModel(TITAN_NODE.gpu)),
    ]


def reduced_cpu_kernel():
    return CpuMtxmKernel(
        CpuModel(TITAN_NODE.cpu), rank_reduction=True, reduction_tol=1e-14
    )


def all_kernels():
    return exact_kernels() + [reduced_cpu_kernel()]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernels_agree_with_reference(dim):
    item = payload_item(7, dim=dim)
    reference = item.payload.reference_result()
    for kernel in exact_kernels():
        assert np.array_equal(kernel.run_item(item), reference), kernel.name
    reduced = reduced_cpu_kernel().run_item(item)
    assert np.allclose(reduced, reference, atol=1e-10)


def test_fast_evaluator_matches_reference():
    item = payload_item(11, dim=3, q=5, rank=4)
    assert np.array_equal(
        evaluate_formula(item.payload), item.payload.reference_result()
    )


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 8), st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_equivalence_property(seed, dim, q, rank):
    item = payload_item(seed, dim=dim, q=q, rank=rank)
    reference = item.payload.reference_result()
    for kernel in exact_kernels():
        assert np.array_equal(kernel.run_item(item), reference), kernel.name


@pytest.mark.parametrize("dim, rank", [(1, 20), (3, 0), (4, 20)])
def test_edge_shapes_exact(dim, rank):
    """d=1, M=0 (zero output) and the largest d and M."""
    item = payload_item(13, dim=dim, q=5, rank=rank)
    reference = item.payload.reference_result()
    assert reference.any() == (rank > 0)
    for kernel in exact_kernels():
        assert np.array_equal(kernel.run_item(item), reference), kernel.name


@pytest.fixture(scope="module")
def coulomb_items():
    """The first NS and first corner work item of a real Coulomb apply."""
    density, operator, _exact = CoulombApplication.real_instance(
        k=4, thresh=5e-3, eps=5e-3
    )
    src = density.copy()
    src.nonstandard()
    tasks = BatchedApply(operator, make_runtime("cpu")).generate_tasks(
        src, FunctionTree(operator.dim), ApplyStats()
    )
    first: dict[str, WorkItem] = {}
    for task in tasks:
        item = task.preprocess()
        first.setdefault(item.kind.compute_name, item)
        if len(first) == 2:
            break
    return list(first.values())


def test_flop_counter_sees_every_kernel(coulomb_items):
    """Each kernel is exact on real Coulomb items and credits exactly
    the FLOPs the work item declares."""
    assert len(coulomb_items) == 2
    for item in coulomb_items:
        assert item.payload.rank > 0
        reference = item.payload.reference_result()
        for kernel in exact_kernels():
            with flop_counter() as fc:
                out = kernel.run_item(item)
            assert np.array_equal(out, reference), kernel.name
            assert fc.by_label == {"mtxmq": item.flops}, kernel.name
            assert fc.flops == item.flops, kernel.name


def test_rank_reduced_cpu_close_but_cheaper():
    """With decaying factors, the rank-reduced path matches within
    tolerance while multiplying less."""
    rng = np.random.default_rng(3)
    q, dim, rank = 10, 2, 3
    scale = 0.2 ** np.arange(q)
    factors = [
        tuple(rng.standard_normal((q, q)) * np.outer(scale, scale) for _ in range(dim))
        for _ in range(rank)
    ]
    payload = payload_from_factors(
        s=rng.standard_normal((q,) * dim),
        factors=factors,
        coeffs=np.ones(rank),
    )
    item = WorkItem(kind=TaskKind("t", 0), payload=payload)
    full = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)).run_item(item)
    reduced = CpuMtxmKernel(
        CpuModel(TITAN_NODE.cpu), rank_reduction=True, reduction_tol=1e-8
    ).run_item(item)
    assert np.allclose(full, reduced, atol=1e-5)


def test_cost_only_items_return_none():
    item = WorkItem(kind=TaskKind("t", 0), flops=100)
    for kernel in all_kernels():
        assert kernel.run_item(item) is None


def test_wrong_payload_type_rejected():
    item = WorkItem(kind=TaskKind("t", 0), payload="garbage")
    for kernel in all_kernels():
        with pytest.raises(TypeError):
            kernel.run_item(item)
