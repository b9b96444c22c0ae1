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


def _projected(samples, jac, others):
    """The other features' spans deflated out of the gradients and the
    Jacobian, over every sample at once."""
    Q = _orthobasis_batch(np.einsum("ndk,kr->ndr", jac, others))
    grads = samples.gradients - np.einsum(
        "ndr,nr->nd", Q, np.einsum("ndr,nd->nr", Q, samples.gradients))
    jac = jac - np.einsum("ndr,nre->nde", Q, np.einsum("ndr,nde->nre", Q, jac))
    return grads, jac


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# every desk-sweep cell (n <= 250) keeps its bits up to this many samples
ONE_BLOCK = [1, 37, 200, 255, 256]


class TestOneBlock:
    """n <= 256: the single-product arithmetic of a whole-array sum."""

    @staticmethod
    def single_product(grads, jac, n):
        K = jac.shape[2]
        W = (jac * np.sqrt(np.sum(grads ** 2, axis=1))[:, None, None]).reshape(-1, K)
        C = np.einsum("nda,nd->na", jac, grads)
        return SurrogateMatrices(h1=W.T @ W / n, h2=C.T @ C / n)

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
        ref = self.single_product(samples.gradients, jac, n)
        for name in ("h1", "h2", "h"):
            assert np.array_equal(_bits(getattr(mats, name)),
                                  _bits(getattr(ref, name)))
        mats = coordinate_surrogate_matrices(samples, basis, others, jac)
        ref = self.single_product(*_projected(samples, jac, others), n)
        for name in ("h1", "h2", "h"):
            assert np.array_equal(_bits(getattr(mats, name)),
                                  _bits(getattr(ref, name)))


def _bound(abs_sum, n, d):
    """Worst-case roundoff of a blocked sum over n samples whose terms'
    absolute values add up to ``abs_sum``, each term a product of per-sample
    factors computed with at most 2 d + 6 roundings.

    A block's product sums at most d * _SUM_ROWS products in an order BLAS
    chooses, and the blocks add up in ceil(n / _SUM_ROWS) - 1 more steps;
    any summation order of N terms is within gamma_{N-1} of the exact sum,
    relative to the sum of absolute values (Higham, Accuracy and Stability,
    section 4.2), and the factors' own roundings add their count of units
    per term.  gamma_N = N u / (1 - N u), u = eps / 2.
    """
    u = np.finfo(float).eps / 2
    steps = d * _SUM_ROWS + -(-n // _SUM_ROWS) + 2 * d + 6
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
        bound = _bound(np.einsum("ndk,ndl->kl", abs(J), abs(J)) / n, n, d)
        assert np.all(np.abs(gram.matrix - ref) <= bound)

        pairs = [(surrogate_matrices(samples, basis, jac),
                  (samples.gradients, jac)),
                 (coordinate_surrogate_matrices(samples, basis, others, jac),
                  _projected(samples, jac, others))]
        for mats, (grads, B) in pairs:
            g = grads.astype(np.longdouble)
            B = B.astype(np.longdouble)
            w2 = np.sum(g ** 2, axis=1)
            C = np.einsum("ndk,nd->nk", B, g)
            # C's own d-term sums count among the factor roundings
            A = np.einsum("ndk,nd->nk", abs(B), abs(g))
            checks = ((mats.h1, np.einsum("n,ndk,ndl->kl", w2, B, B),
                       np.einsum("n,ndk,ndl->kl", w2, abs(B), abs(B))),
                      (mats.h2, C.T @ C, A.T @ A))
            for got, ref, abs_sum in checks:
                assert np.all(np.abs(got - ref / n) <= _bound(abs_sum / n, n, d))


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
