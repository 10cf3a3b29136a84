"""The operator's build-once tables equal a per-call evaluation bit for bit.

Each test keeps a local copy of the straightforward evaluation the tables
replace (a fresh quadrature window per block, one SVD per matrix, one
displacement's norms at a time, factor matrices stacked per item) and
asserts ``np.array_equal`` against the shared, read-only tables.
"""

import math

import numpy as np
import pytest

from repro.kernels.base import FormulaPayload, evaluate_formula
from repro.mra.quadrature import gauss_legendre
from repro.operators.blocks import (
    _NW,
    _TAIL,
    full_windows,
    gaussian_block_1d,
    phi_correlation,
)
from repro.operators.convolution import CoulombOperator, GaussianConvolution
from repro.operators.displacements import displacement_ring
from repro.operators.gaussian_fit import GaussianExpansion
from tests.conftest import payload_from_factors

# -- per-call copies of the evaluation the tables replace -----------------------


def block_per_call(k, a, level, delta):
    """``gaussian_block_1d`` with every quadrature window built afresh."""
    beta = a * 4.0 ** (-level)
    halfwidth = _TAIL / math.sqrt(beta)
    center = -float(delta)
    out = np.zeros((k, k))
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        wlo = max(lo, center - halfwidth)
        whi = min(hi, center + halfwidth)
        if whi <= wlo:
            continue
        x, wt = gauss_legendre(_NW)
        w_q = wlo + (whi - wlo) * x
        w_wt = (whi - wlo) * wt
        gauss = np.exp(-beta * (w_q + delta) ** 2)
        corr = phi_correlation(k, w_q)
        out += np.einsum("q,q,qij->ij", w_wt, gauss, corr)
    return out * 2.0 ** (-level)


def norms_per_matrix(op, level, dabs):
    """One spectral norm per NS block and per corner-removed NS block."""
    rank = op.expansion.rank
    n_full = np.empty(rank)
    n_coup = np.empty(rank)
    for mu in range(rank):
        t = op.ns_block(level, dabs, mu)
        n_full[mu] = np.linalg.norm(t, 2)
        td = t.copy()
        td[: op.k, : op.k] -= op.r_block(level, dabs, mu)
        n_coup[mu] = np.linalg.norm(td, 2)
    return n_full, n_coup


def term_norms_per_delta(op, level, delta, subtracted):
    """One displacement's per-mu norm estimates, axis by axis."""
    full = [op._norms_1d(level, abs(d))[0] for d in delta]
    if not subtracted:
        out = np.abs(op.expansion.coeffs).copy()
        for nf in full:
            out = out * nf
        return out
    coup = [op._norms_1d(level, abs(d))[1] for d in delta]
    total = np.zeros(op.expansion.rank)
    for i in range(len(delta)):
        term = coup[i].copy()
        for j in range(len(delta)):
            if j != i:
                term = term * full[j]
        total += term
    return np.abs(op.expansion.coeffs) * total


def level_displacements_per_delta(op, level):
    """The ring screening with one norm evaluation per displacement."""
    floor = op.thresh * 1e-3
    out = []
    for radius in range(op.max_radius + 1):
        ring = []
        for delta in displacement_ring(op.dim, radius):
            norm = float(term_norms_per_delta(op, level, delta, level > 0).sum())
            if norm > floor:
                ring.append((delta, norm))
        if radius > 0 and not ring:
            break
        out.extend(ring)
    return out


# -- quadrature windows ---------------------------------------------------------------

EXPONENTS = (1e-7, 1e-3, 0.5, 37.0, 2e3, 1e5, 1e6)


@pytest.mark.parametrize("k", range(1, 11))
def test_blocks_equal_per_call_windows(k):
    """Full and clipped windows alike: every block is bit-identical."""
    full_windows.cache_clear()
    for a in EXPONENTS:
        for level in range(9):
            for delta in range(-9, 10):
                assert np.array_equal(
                    gaussian_block_1d(k, a, level, delta),
                    block_per_call(k, a, level, delta),
                ), (k, a, level, delta)


# -- batched spectral norms ---------------------------------------------------------


@pytest.fixture(scope="module")
def coulomb():
    return CoulombOperator(dim=3, k=5, eps=1e-3, r_lo=3e-3, max_radius=3)


@pytest.mark.parametrize("level", [0, 1, 3, 6])
def test_batched_norms_equal_per_matrix_svds(coulomb, level):
    for dabs in range(5):
        batched = coulomb._norms_1d(level, dabs)
        for got, want in zip(batched, norms_per_matrix(coulomb, level, dabs)):
            assert np.array_equal(got, want), (level, dabs)


# -- ring rows and the displacement screening ----------------------------------------


def seeded_tables(dim, rank, seed, max_radius=2):
    """An operator whose 1-D norm tables are random and decay with |delta|.

    Magnitudes spread over many decades so any change in the order of
    the products or the sums shows up in the last bits.
    """
    rng = np.random.default_rng(seed)
    expansion = GaussianExpansion(
        rng.standard_normal(rank) * 10.0 ** rng.uniform(-6, 2, rank),
        np.geomspace(1.0, 1e6, rank),
    )
    op = GaussianConvolution(dim, 2, expansion, thresh=1e-4, max_radius=max_radius)
    for level in range(3):
        for dabs in range(max_radius + 1):
            decay = 10.0 ** (-4.0 * dabs)
            op._norm1d[(level, dabs)] = tuple(
                rng.uniform(0.0, 1.0, rank) * 10.0 ** rng.uniform(-12, 1, rank) * decay
                for _ in range(2)
            )
    return op


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("rank", [1, 7, 8, 9, 127, 128, 129, 140])
def test_ring_rows_equal_per_delta(dim, rank):
    """Rank 140 crosses the 8-wide unrolled and 128-element pairwise
    blocks of NumPy's summation."""
    op = seeded_tables(dim, rank, seed=1000 * dim + rank)
    for level in range(3):
        got = op.level_displacements(level)
        assert got == level_displacements_per_delta(op, level)
        for radius in range(op.max_radius + 1):
            for delta in displacement_ring(dim, radius):
                for subtracted in (False, True):
                    row = op.term_norms(level, delta, subtracted=subtracted)
                    want = term_norms_per_delta(op, level, delta, subtracted)
                    assert np.array_equal(row, want), (level, delta, subtracted)
                    assert row.sum() == want.sum()


def test_real_operator_screening_equals_per_delta(coulomb):
    for level in range(6):
        assert coulomb.level_displacements(level) == level_displacements_per_delta(
            coulomb, level
        ), level


# -- per-signature payload stacks -----------------------------------------------------


def test_payload_stacks_equal_per_item_stacking(coulomb):
    rng = np.random.default_rng(5)
    q = 2 * coulomb.k
    for level, delta, ns in (
        (0, (0, 0, 0), True),
        (2, (1, -1, 0), True),
        (2, (1, -1, 0), False),
        (4, (-2, 2, 1), False),
    ):
        keep = np.nonzero(coulomb.term_norms(level, delta, subtracted=level > 0) > 1e-9)[0]
        assert keep.size > 0
        terms = coulomb.formula_terms(level, delta, keep, ns=ns)
        block = coulomb.ns_block if ns else coulomb.r_block
        factors = [
            tuple(block(level, delta[axis], int(mu)).T for axis in range(3))
            for mu in keep
        ]
        for axis in range(3):
            want = np.stack([hs[axis] for hs in factors])
            assert np.array_equal(terms.stacks[axis], want)
        sign = 1.0 if ns else -1.0
        assert np.array_equal(terms.coeffs, sign * coulomb.expansion.coeffs[keep])
        assert terms.block_keys == tuple(
            (level, delta[axis], int(mu), ns) for mu in keep for axis in range(3)
        )
        side = q if ns else coulomb.k
        s = rng.standard_normal((side,) * 3)
        shared = FormulaPayload(s=s, stacks=terms.stacks, coeffs=terms.coeffs)
        fresh = payload_from_factors(s, factors, sign * coulomb.expansion.coeffs[keep])
        assert np.array_equal(evaluate_formula(shared), evaluate_formula(fresh))
        assert np.array_equal(evaluate_formula(shared), shared.reference_result())


def test_payload_terms_are_built_once_per_signature(coulomb):
    keep = np.arange(3)
    coulomb.terms_cache.clear()
    first = coulomb.formula_terms(1, (0, 1, 0), keep, ns=True)
    again = coulomb.formula_terms(1, (0, 1, 0), keep.copy(), ns=True)
    corner = coulomb.formula_terms(1, (0, 1, 0), keep, ns=False)
    assert again is first and corner is not first
    assert (coulomb.terms_cache.stats.hits, coulomb.terms_cache.stats.misses) == (1, 2)


# -- shared arrays are read-only ----------------------------------------------------------


def test_shared_arrays_reject_writes(coulomb):
    keep = np.arange(2)
    terms = coulomb.formula_terms(1, (1, 0, 0), keep, ns=True)
    payload = FormulaPayload(
        s=np.ones((2 * coulomb.k,) * 3), stacks=terms.stacks, coeffs=terms.coeffs
    )
    shared = [
        *(arr for window in full_windows(coulomb.k) for arr in window),
        *coulomb._norms_1d(1, 1),
        coulomb.term_norms(1, (1, 0, 0), subtracted=True),
        coulomb.term_norms(1, (1, 0, 0), subtracted=False),
        *terms.stacks,
        terms.coeffs,
        *payload.stacks,
        *payload.factors[0],
    ]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
