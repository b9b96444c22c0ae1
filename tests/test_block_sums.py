"""The blocked sums over the sample Jacobian (``basis._block_sums``).

Up to _SUM_ROWS samples a sum is one matrix product over the whole
Jacobian, bit for bit; beyond, it matches an extended-precision per-sample
sum within the worst-case bound of floating-point summation; and the sums
allocate a block, not a second Jacobian.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfeat.basis import (_SUM_ROWS, FeatureBasis, GramMatrix, Hermite,
                            Legendre, LogHermite, assemble_gram,
                            build_index_set)
from gradfeat.benchmarks import make_benchmark, sample_inputs
from gradfeat.geometry import _orthobasis_batch
from gradfeat.surrogate import (SampleSet, SurrogateMatrices,
                                _feature_jacobians,
                                coordinate_surrogate_matrices,
                                surrogate_matrices)


# three dimensions, K = 19 at (1, 3): small enough for a per-sample
# extended-precision reference at n = 1200
SMALL = (Legendre(-1.0, 2.0), Hermite(0.3, 1.5), LogHermite(0.1, 0.5))


def _case(n, seed, families=make_benchmark("u4").families, p=1.0, k=2.0):
    """Random values and gradients at points drawn from the families' laws,
    the basis, its Jacobian, and two random prior feature columns."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([fam.sample(rng, n) for fam in families])
    samples = SampleSet(X, rng.standard_normal(n), rng.standard_normal(X.shape))
    basis = FeatureBasis(build_index_set(len(families), p, k), families)
    others = rng.standard_normal((basis.size, 2))
    return samples, basis, basis.jacobian_batch(X), others


def _projected(samples, basis, jac, others):
    """The gradients with the other features' spans deflated out, over
    every sample at once, and those spans."""
    Q = _orthobasis_batch(
        _feature_jacobians(basis, others, samples.points, jac))
    grads = samples.gradients - np.einsum(
        "ndr,nr->nd", Q, np.einsum("ndr,nd->nr", Q, samples.gradients))
    return grads, Q


def _operators(grads, Q, d, dtype=float):
    """|v_i| (I - u_i u_i^T - Q_i Q_i^T), u_i = v_i / |v_i|: the operator
    that deflates and weights sample i's Jacobian (Q = None: no span)."""
    grads = grads.astype(dtype)
    norm = np.sqrt(np.sum(grads ** 2, axis=1))
    unit = grads / norm[:, None]
    P = np.eye(d, dtype=dtype) - unit[:, :, None] * unit[:, None, :]
    if Q is not None:
        Q = Q.astype(dtype)
        P -= Q @ Q.transpose(0, 2, 1)
    return P * norm[:, None, None]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# every desk-sweep cell (n <= 250) keeps its bits up to this many samples
ONE_BLOCK = [1, 37, 200, 255, 256]


class TestOneBlock:
    """n <= 256: the single-product arithmetic of a whole-array sum."""

    @staticmethod
    def single_product(grads, Q, jac, n):
        """h as one product of the deflated, weighted Jacobian."""
        _, d, K = jac.shape
        M = (_operators(grads, Q, d) @ jac).reshape(-1, K)
        return SurrogateMatrices(h=M.T @ M / n)

    @pytest.mark.filterwarnings("ignore:Gram estimate from")
    @pytest.mark.parametrize("n", ONE_BLOCK)
    def test_gram_is_one_product(self, n):
        samples, basis, jac, _ = _case(n, seed=n)
        M = (jac * np.sqrt(1.0 / n)).reshape(-1, basis.size)
        gram = assemble_gram(basis, samples, jac=jac)
        assert np.array_equal(_bits(gram.matrix), _bits(GramMatrix(M.T @ M).matrix))

    @pytest.mark.parametrize("n", ONE_BLOCK)
    def test_surrogate_matrices_are_one_product(self, n):
        samples, basis, jac, others = _case(n, seed=n)
        mats = surrogate_matrices(samples, basis, jac)
        ref = self.single_product(samples.gradients, None, jac, n)
        assert np.array_equal(_bits(mats.h), _bits(ref.h))
        mats = coordinate_surrogate_matrices(samples, basis, others, jac)
        ref = self.single_product(*_projected(samples, basis, jac, others),
                                  jac, n)
        assert np.array_equal(_bits(mats.h), _bits(ref.h))


def _bound(abs_sum, n, d, roundings):
    """Worst-case roundoff of a blocked sum over n samples whose terms'
    absolute values add up to ``abs_sum``, each term a product of per-sample
    factors whose roundings add up to at most ``roundings`` units.

    A block's product sums at most d * _SUM_ROWS products in an order BLAS
    chooses, and the blocks add up in ceil(n / _SUM_ROWS) - 1 more steps;
    any summation order of N terms is within gamma_{N-1} of the exact sum,
    relative to the sum of absolute values (Higham, Accuracy and Stability,
    section 4.2), and the factors' own roundings add their count of units
    per term.  gamma_N = N u / (1 - N u), u = eps / 2.
    """
    u = np.finfo(float).eps / 2
    steps = d * _SUM_ROWS + -(-n // _SUM_ROWS) + roundings
    return steps * u / (1 - steps * u) * abs_sum


class TestManyBlocks:
    """257 <= n <= 1200: against a per-sample sum in np.longdouble."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(n=st.one_of(st.sampled_from([_SUM_ROWS + 1, 2 * _SUM_ROWS - 1,
                                        2 * _SUM_ROWS, 2 * _SUM_ROWS + 1,
                                        3 * _SUM_ROWS, 1200]),
                       st.integers(257, 1200)),
           seed=st.integers(0, 2 ** 16))
    def test_sums_within_roundoff_of_extended_precision(self, n, seed):
        samples, basis, jac, others = _case(n, seed, SMALL, p=1.0, k=3.0)
        d = basis.dim
        J = jac.astype(np.longdouble)
        gram = assemble_gram(basis, samples, jac=jac)
        ref = np.einsum("ndk,ndl->kl", J, J) / n
        bound = _bound(np.einsum("ndk,ndl->kl", abs(J), abs(J)) / n, n, d,
                       roundings=2 * d + 6)
        assert np.all(np.abs(gram.matrix - ref) <= bound)

        pairs = [(surrogate_matrices(samples, basis, jac),
                  (samples.gradients, None)),
                 (coordinate_surrogate_matrices(samples, basis, others, jac),
                  _projected(samples, basis, jac, others))]
        for mats, (grads, Q) in pairs:
            M = _operators(grads, Q, d, np.longdouble) @ J
            # an operator entry, from the gradient's norm and direction and
            # the span's r columns, errs by at most 1.5 d + r + 9 units of
            # |v_i| (I + |u_i| |u_i|^T + |Q_i| |Q_i|^T), and a factor, d of
            # its products summed, by 2.5 d + r + 9 units of that times
            # |J_i|; a term's two factors, its product and the division by
            # n round 5 d + 2 r + 20 times at most
            r = 0 if Q is None else Q.shape[2]
            g = np.abs(grads.astype(np.longdouble))
            norm = np.sqrt(np.sum(g ** 2, axis=1))
            A = np.eye(d) + g[:, :, None] * g[:, None, :] / norm[:, None, None] ** 2
            if Q is not None:
                A += abs(Q) @ abs(Q).transpose(0, 2, 1)
            A = (A * norm[:, None, None]) @ abs(J)
            ref = np.einsum("ndk,ndl->kl", M, M) / n
            bound = _bound(np.einsum("ndk,ndl->kl", A, A) / n, n, d,
                           roundings=5 * d + 2 * r + 20)
            assert np.all(np.abs(mats.h - ref) <= bound)


class TestMemory:
    """At n = 2000, K = 164 (d = 8), the 21 MB size of learn-cli's
    Jacobian, a sum allocates blocks, not a second Jacobian."""

    @pytest.fixture(scope="class")
    def case(self):
        bench = make_benchmark("u4")
        n = 2000
        X = sample_inputs(bench, n, 5)
        rng = np.random.default_rng(5)
        samples = SampleSet(X, rng.standard_normal(n), rng.standard_normal(X.shape))
        basis = FeatureBasis(build_index_set(8, 1.0, 3.0), bench.families)
        assert basis.size == 164
        others = rng.standard_normal((basis.size, 1))
        return samples, basis, basis.jacobian_batch(X), others

    @staticmethod
    def traced_peak(call):
        """Peak traced bytes above those held when ``call`` starts."""
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    def test_assemble_gram(self, case):
        samples, basis, jac, _ = case
        peak = self.traced_peak(lambda: assemble_gram(basis, samples, jac=jac))
        assert peak <= jac.nbytes / 2

    def test_coordinate_surrogate_matrices(self, case):
        samples, basis, jac, others = case
        peak = self.traced_peak(
            lambda: coordinate_surrogate_matrices(samples, basis, others, jac))
        assert peak <= jac.nbytes / 2
