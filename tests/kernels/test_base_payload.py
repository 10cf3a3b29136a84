"""FormulaPayload and KernelTiming edge cases."""

import numpy as np
import pytest

from repro.errors import TensorShapeError
from repro.kernels.base import FormulaPayload, KernelTiming, evaluate_formula
from tests.conftest import payload_from_factors


def test_payload_validates_rank_consistency():
    with pytest.raises(TensorShapeError):
        payload_from_factors(
            s=np.zeros((3, 3)),
            factors=[(np.eye(3), np.eye(3))],
            coeffs=np.ones(2),
        )


def test_payload_needs_one_stack_per_axis():
    with pytest.raises(TensorShapeError):
        FormulaPayload(s=np.zeros((3, 3)), stacks=(np.zeros((1, 3, 3)),), coeffs=np.ones(1))


def test_payload_properties():
    p = payload_from_factors(
        s=np.zeros((4, 4, 4)),
        factors=[tuple(np.eye(4) for _ in range(3))],
        coeffs=np.ones(1),
    )
    assert p.rank == 1
    assert p.dim == 3


def test_evaluate_formula_zero_rank():
    p = payload_from_factors(s=np.ones((3, 3)), factors=[], coeffs=np.zeros(0))
    out = evaluate_formula(p)
    assert np.all(out == 0.0)
    assert out.shape == (3, 3)


def test_evaluate_formula_identity_factors():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((5, 5))
    p = payload_from_factors(
        s=s, factors=[(np.eye(5), np.eye(5))], coeffs=np.array([2.0])
    )
    assert np.allclose(evaluate_formula(p), 2.0 * s)


def test_kernel_timing_gflops():
    t = KernelTiming(seconds=0.5, flops=10**9, launches=1)
    assert t.gflops() == pytest.approx(2.0)
    assert KernelTiming(seconds=0.0, flops=1, launches=0).gflops() == 0.0

