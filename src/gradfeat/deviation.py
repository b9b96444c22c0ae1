"""Suboptimality constants for the convex surrogates and empirical verifiers
of the small/large-deviation bounds they rest on.

The calculators evaluate closed-form constants for feature classes whose
squared gradient norm obeys a Remez-type growth inequality with exponent ``k``
and factor ``A`` (polynomial features of total degree ell+1 give k = 2*ell,
A = 4), on inputs whose law is s-concave.  The checkers draw no conclusions
from proofs: they compare empirical tail probabilities of a sample of the
squared gradient norm against the stated bounds, widened by three Monte-Carlo
standard errors, pivoting on the empirical median.

All calculators are pure; checkers parallelize trivially over grid points.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericError

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Profiles and Remez constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationProfile:
    """Everything the constant calculators need about a feature class.

    s  -- concavity parameter of the input law (uniform on a convex body in
          R^d has s = 1/d; log-concave laws have s = 0; s < 0 is heavy-tailed)
    k  -- Remez exponent of the squared-gradient functions
    A  -- Remez factor
    ell -- feature total degree minus one (so k = 2*ell, A = 4 for polynomials)
    m  -- number of features
    p_u, p1 -- Holder exponents for the function gradient and the feature
          gradient moments (p_u = inf whenever the input has compact support)
    nu_lower / nu_upper -- uniform lower/upper moment bounds over the class;
          both equal 1 under gradient-Gram normalization

    Every field must be a real number other than NaN, with k and A finite
    and >= 1, ell and m integers >= 1 (not bool), p_u > 1, p1 >= 1 and the
    nu bounds finite and > 0; anything else raises ``InvalidInputError``.
    """

    s: float
    k: float
    A: float
    ell: int
    m: int = 1
    p_u: float = math.inf
    p1: float = 1.0
    nu_lower: float = 1.0
    nu_upper: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, numbers.Real) or math.isnan(value):
                raise InvalidInputError(
                    f"{f.name} must be a number other than NaN, got {value!r}")
        if not (1 <= self.k < math.inf and 1 <= self.A < math.inf):
            raise InvalidInputError(
                f"Remez constants must be finite with k >= 1, A >= 1, "
                f"got k={self.k!r}, A={self.A!r}")
        for name in ("ell", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < 1:
                raise InvalidInputError(
                    f"{name} must be an integer >= 1, got {value!r}")
        if not self.p_u > 1:
            raise InvalidInputError("p_u must exceed 1")
        if self.p1 < 1:
            raise InvalidInputError("p1 must be >= 1")
        for name in ("nu_lower", "nu_upper"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidInputError(
                    f"{name} must be finite and > 0, got {value!r}")

    @property
    def p(self):
        """Conjugate exponent 1 / (1 - 1/p_u); equals 1 for p_u = inf."""
        return 1.0 / (1.0 - 1.0 / self.p_u)

    @property
    def r(self):
        """1 / (1 - 1/p_u - 1/p1), or inf when the denominator vanishes."""
        denom = 1.0 - 1.0 / self.p_u - 1.0 / self.p1
        return 1.0 / denom if denom > 0.0 else math.inf

    @classmethod
    def uniform_polynomial(cls, d, ell, m=1):
        """Profile for polynomial features of degree ell+1 on a uniform law in R^d."""
        k, A = polynomial_remez_constants(ell)
        return cls(s=1.0 / d, k=k, A=A, ell=ell, m=m)


class RemezPair(NamedTuple):
    exponent: float
    factor: float


def polynomial_remez_constants(ell):
    """Remez pair (2*ell, 4) for squared gradients of degree-(ell+1) polynomials."""
    if ell < 1:
        raise InvalidInputError("ell must be >= 1 (constant features are excluded)")
    return RemezPair(2.0 * ell, 4.0)


def trig_remez_constants(n_terms):
    """Upper-bound Remez pair (2K+1, 316) for K-term trigonometric features."""
    if n_terms < 1:
        raise InvalidInputError("need at least one trigonometric term")
    return RemezPair(2.0 * n_terms + 1.0, 316.0)


# ---------------------------------------------------------------------------
# Deviation rate constants
# ---------------------------------------------------------------------------

class EtaConstants(NamedTuple):
    lower: float | None   # small-deviation rate; only available for s > 0
    upper: float          # large-deviation rate


def eta_constants(A, s):
    """Small/large-deviation rate constants for Remez factor A and concavity s.

    The large-deviation constant exists for every s; the small-deviation one
    is only stated for s > 0, so ``lower`` is None otherwise (the checker for
    small deviations refuses s <= 0 accordingly).
    """
    if A < 1:
        raise InvalidInputError("A must be >= 1")
    if s > 0:
        upper = A / (1.0 - 2.0 ** -s)
        lower = A * (1.0 - 2.0 ** -s) / s
    elif s == 0:
        upper = A / LN2
        lower = None
    else:
        upper = max(1.0, A / (2.0 ** -s - 1.0)) ** (-1.0 / s)
        lower = None
    return EtaConstants(lower, upper)


def _eta_lower_extended(A, s):
    # Continuous extension of the s > 0 small-deviation rate; the s <= 0
    # closed form is not independently established, so this is only used
    # inside the constant calculators, never by the empirical checkers.
    if s == 0:
        return A * LN2
    return A * (1.0 - 2.0 ** -s) / s


# ---------------------------------------------------------------------------
# Suboptimality constants
# ---------------------------------------------------------------------------

class SuboptimalityConstants(NamedTuple):
    """Suboptimality constants, for one feature or for several (the
    coordinate surrogate case), or closed upper bounds on them."""

    gamma1: float   # loss <= gamma1 * nu_lower^(-1/(1+pk)) * surrogate^(1/(1+pk))
    gamma2: float   # surrogate <= gamma2 * nu_upper * f(loss), per s-case
    gamma3: float   # combined: loss at the surrogate minimizer vs the best loss


def suboptimality_constants(profile):
    """Exact case-split constants relating the loss and the convex surrogate."""
    s, k, A, p1 = profile.s, profile.k, profile.A, profile.p1
    p, r = profile.p, profile.r
    expo = k / (1.0 + p * k)
    eta_lo = _eta_lower_extended(A, s)
    eta_up = eta_constants(A, s).upper
    if s > 0:
        gamma1 = 2.0 * (eta_lo * A * min(3.0 * k * p1, 1.0 / (1.0 - 2.0 ** -s))) ** expo
        gamma2 = 2.0 * eta_up ** k
    elif s == 0:
        if math.isinf(r):
            raise InvalidInputError("s = 0 requires finite r (p_u and p1 both finite enough)")
        gamma1 = 2.0 * (3.0 * eta_lo * A * k * p1) ** expo
        gamma2 = 2.0 * (eta_up * r) ** k
    else:
        if s <= -1.0 / k:
            raise InvalidInputError(f"s={s} <= -1/k makes the surrogate unbounded")
        if s * k * p1 <= -1.0:
            raise InvalidInputError("need s*k*p1 > -1")
        if math.isinf(r):
            raise InvalidInputError("s < 0 requires finite r")
        inner = 1.0 - (2.0 ** -s - 1.0) ** (1.0 / s) / (1.0 + 1.0 / (s * k * p1))
        gamma1 = 2.0 * (eta_lo * A * inner ** (1.0 / (k * p1))) ** expo
        gamma2 = 4.0 * eta_up ** (1.0 / r)
    gamma3 = gamma1 * gamma2 ** (1.0 / (1.0 + p * k))
    return SuboptimalityConstants(gamma1, gamma2, gamma3)


def uniform_suboptimality_bounds(d, ell):
    """Closed upper bounds for the uniform-law polynomial case (s = 1/d, k = 2*ell)."""
    if d < 1 or ell < 1:
        raise InvalidInputError("need d >= 1 and ell >= 1")
    expo = 2.0 * ell / (1.0 + 2.0 * ell)
    b1 = 2.0 * (32.0 * min(3.0 * ell, float(d))) ** expo
    b2 = 2.0 * (8.0 * d) ** (2.0 * ell)
    b3 = 4.0 * (256.0 * d * min(3.0 * ell, float(d))) ** expo
    return SuboptimalityConstants(b1, b2, b3)


def multifeature_constants(profile):
    """Exact multi-feature suboptimality constants (coordinate surrogate case).

    Requires a polynomial-style profile (k = 2*ell) on an s > 0 law.  The
    returned values are checked against their displayed closed bounds; an
    exceedance would mean a broken formula, so it raises.
    """
    s, A, ell, m, p1 = profile.s, profile.A, profile.ell, profile.m, profile.p1
    if s <= 0:
        raise InvalidInputError("multi-feature constants are stated for s > 0 only")
    if profile.k != 2.0 * ell:
        raise InvalidInputError("multi-feature constants require k = 2*ell")
    eta_lo, eta_up = eta_constants(A, s)
    expo = 2.0 * ell * m / (1.0 + 2.0 * ell * m)
    gt2 = 2.0 * eta_up ** (2.0 * ell)
    inner = (2.0 * eta_lo * eta_up ** (1.0 - 1.0 / m) * m ** (1.0 / (4.0 * ell))
             * min(eta_up, 6.0 * A * p1 * ell * m))
    gt1 = 2.0 * inner ** expo
    gt3 = gt1 * gt2 ** (1.0 / (1.0 + 2.0 * ell * m))
    exact = SuboptimalityConstants(gt1, gt2, gt3)
    bounds = multifeature_bounds(profile)
    for name, value, bound in zip(exact._fields, exact, bounds):
        if value > bound * (1.0 + 1e-12):
            raise NumericError(
                f"multi-feature constant {name}={value:.6g} exceeds its bound {bound:.6g}")
    return exact


def multifeature_bounds(profile):
    """Displayed closed upper bounds for the multi-feature constants."""
    s, ell, m, p1 = profile.s, profile.ell, profile.m, profile.p1
    if s <= 0:
        raise InvalidInputError("multi-feature bounds are stated for s > 0 only")
    head = m ** (1.0 / (4.0 * ell)) / s * min(1.0 / s, 3.0 * ell * p1 * m)
    return SuboptimalityConstants(2.0 ** 9 * head,
                                  2.0 ** (1 + 6 * ell) * s ** (-2.0 * ell),
                                  2.0 ** 10 * head)


def objective_envelope(surrogate_value, profile):
    """Upper bound on the Poincare loss implied by a surrogate value.

    envelope = gamma1 * nu_lower^(-1/(1+pk)) * surrogate^(1/(1+pk)); zero
    surrogate gives a zero bound.
    """
    if surrogate_value < 0:
        raise InvalidInputError("surrogate value must be nonnegative")
    if surrogate_value == 0.0:
        return 0.0
    gamma1 = suboptimality_constants(profile).gamma1
    expo = 1.0 / (1.0 + profile.p * profile.k)
    return gamma1 * profile.nu_lower ** -expo * surrogate_value ** expo


def gamma_moment_constant(y):
    """(1 + 2^y Gamma(y+1))^(1/y), computed in log space; bounded by 3y for y >= 1."""
    if y < 1:
        raise InvalidInputError("stated for y >= 1")
    from scipy.special import gammaln
    a = y * LN2 + gammaln(y + 1.0)
    return math.exp((a + math.log1p(math.exp(-a))) / y)


# ---------------------------------------------------------------------------
# Empirical checkers
# ---------------------------------------------------------------------------

def empirical_quantile(values, omega):
    """Order-statistic quantile with the lower-interpolation convention."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InvalidInputError("empty sample")
    if not 0.0 < omega < 1.0:
        raise InvalidInputError("omega must lie in (0, 1)")
    ordered = np.sort(values)
    idx = max(int(math.ceil(omega * values.size)) - 1, 0)
    return float(ordered[idx])


@dataclass(frozen=True)
class CheckRow:
    threshold: float   # epsilon (small deviations) or t (large deviations)
    empirical: float
    bound: float
    slack: float
    violated: bool

    def to_dict(self):
        return {"threshold": self.threshold, "empirical": self.empirical,
                "bound": self.bound, "slack": self.slack, "violated": self.violated}


@dataclass(frozen=True)
class DeviationReport:
    kind: str
    quantile: float
    n_samples: int
    rows: tuple

    @property
    def n_violations(self):
        return sum(row.violated for row in self.rows)

    def to_dict(self):
        return {"kind": self.kind, "quantile": self.quantile,
                "n_samples": self.n_samples,
                "n_violations": self.n_violations,
                "rows": [row.to_dict() for row in self.rows]}


def _check_inputs(k, A, s, grid, name):
    """The checkers' constants and threshold grid as floats; a non-finite
    constant, k <= 0, or a grid that is empty or holds an entry that is not
    a finite positive real raises ``InvalidInputError``."""
    k, A, s = float(k), float(A), float(s)
    for key, value in (("k", k), ("A", A), ("s", s)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{key}={value} must be finite")
    if not k > 0:
        raise InvalidInputError(f"k={k} must be positive")
    grid = [float(v) for v in grid]
    if not grid or not all(math.isfinite(v) and v > 0 for v in grid):
        raise InvalidInputError(
            f"{name} must be a nonempty list of positive finite reals")
    return k, A, s, grid


def _prepare_samples(h_samples):
    h = np.abs(np.asarray(h_samples, dtype=float).ravel())
    if h.size == 0 or not np.all(np.isfinite(h)):
        raise InvalidInputError("deviation checker needs a finite, nonempty sample")
    q = empirical_quantile(h, 0.5)
    if q <= 0.0:
        raise NumericError("empirical median is zero; the bounds are vacuous here")
    return h, q


def check_small_deviation(h_samples, k, A, s, eps_grid):
    """Compare empirical P(h <= median * eps) against the small-deviation bound.

    Only s > 0 is supported: the small-deviation rate constant for s <= 0 is
    not available in closed form here.  A row is flagged violated when the
    empirical probability exceeds the bound by more than three standard errors.
    k, A and s must be finite with k > 0, and every grid entry a finite
    positive real; otherwise ``InvalidInputError`` is raised.
    """
    k, A, s, eps_grid = _check_inputs(k, A, s, eps_grid, "eps_grid")
    if s <= 0:
        raise InvalidInputError(
            "small-deviation checking is unsupported for s <= 0 "
            "(no closed-form rate constant available)")
    h, q = _prepare_samples(h_samples)
    eta_lo = eta_constants(A, s).lower
    rows = []
    for eps in eps_grid:
        emp = float(np.mean(h <= q * eps))
        bound = eta_lo * eps ** (1.0 / k)
        slack = 3.0 * math.sqrt(emp * (1.0 - emp) / h.size)
        rows.append(CheckRow(eps, emp, bound, slack, emp > bound + slack))
    return DeviationReport("small", q, h.size, tuple(rows))


def check_large_deviation(h_samples, k, A, s, t_grid):
    """Compare empirical P(h > median * t) against the s-case large-deviation bound.

    For s > 0 the linearized bound goes negative once t exceeds the essential
    range; it is clamped at zero there (any mass above would be a genuine
    violation).  The inputs are checked as in ``check_small_deviation``.
    """
    k, A, s, t_grid = _check_inputs(k, A, s, t_grid, "t_grid")
    h, q = _prepare_samples(h_samples)
    eta_up = eta_constants(A, s).upper
    rows = []
    for t in t_grid:
        emp = float(np.mean(h > q * t))
        if s > 0:
            bound = max(0.0, 1.0 - (t ** (1.0 / k) - 1.0) / eta_up)
        elif s == 0:
            bound = math.exp(-(t ** (1.0 / k) - 1.0) / eta_up)
        else:
            bound = eta_up * t ** (1.0 / (s * k))
        slack = 3.0 * math.sqrt(emp * (1.0 - emp) / h.size)
        rows.append(CheckRow(t, emp, bound, slack, emp > bound + slack))
    return DeviationReport("large", q, h.size, tuple(rows))
