"""Log-space evaluation of the binomial, beta, and beta-binomial families.

All masses and densities are assembled from log-gamma terms and exponentiated
as the final step, so that trial counts in the hundreds never overflow an
intermediate binomial coefficient or beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BinomialModel",
    "BetaPrior",
    "log_gamma",
    "log_beta",
    "binom_pmf",
    "binom_log_pmf_support",
    "binom_pmf_support",
    "beta_pdf",
    "beta_log_pdf",
    "beta_binom_log_pmf_support",
    "beta_binom_pmf_support",
    "posterior_density_support",
    "check_outcome",
    "check_probability",
    "check_level",
    "check_open_unit",
]


@dataclass(frozen=True)
class BinomialModel:
    """Binomial likelihood family with a fixed number of trials.

    The outcome support is the integers ``0..n`` inclusive.
    """

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"trial count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"trial count must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def outcomes(self) -> np.ndarray:
        """All outcomes 0..n as an integer array."""
        return np.arange(self.n + 1)


@dataclass(frozen=True)
class BetaPrior:
    """Beta(a, b) weighting measure over the success probability."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and a > 0.0) or not (math.isfinite(b) and b > 0.0):
            raise ValueError(f"beta shapes must be positive and finite, got a={self.a!r}, b={self.b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for z > 0."""
    z = float(z)
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"log_gamma requires a positive finite argument, got {z!r}")
    return math.lgamma(z)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for positive a, b."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


@lru_cache(maxsize=128)
def _log_choose_support(n: int) -> np.ndarray:
    """ln C(n, x) for x = 0..n. Cached per n; callers must not mutate."""
    lg = math.lgamma(n + 1)
    return np.array([lg - math.lgamma(x + 1) - math.lgamma(n - x + 1) for x in range(n + 1)])


def check_outcome(x: int, model: BinomialModel) -> int:
    """An observed outcome: an integer in 0..n."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"outcome must be an integer, got {x!r}")
    if not 0 <= x <= model.n:
        raise ValueError(f"outcome {x} outside support 0..{model.n}")
    return int(x)


def check_level(level: float) -> float:
    """A test level, strictly inside (0, 1)."""
    value = float(level)
    if not (math.isfinite(value) and 0.0 < value < 1.0):
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    return value


def check_open_unit(eta: float) -> float:
    """A null value, strictly inside (0, 1)."""
    eta = float(eta)
    if not (math.isfinite(eta) and 0.0 < eta < 1.0):
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta!r}")
    return eta


def check_probability(theta: float, name: str = "theta") -> float:
    """A probability in [0, 1], endpoints included."""
    theta = float(theta)
    if not (math.isfinite(theta) and 0.0 <= theta <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {theta!r}")
    return theta


def binom_log_pmf_support(model: BinomialModel, theta: float) -> np.ndarray:
    """Log pmf of Binomial(n, theta) over the whole support 0..n.

    theta = 0 and theta = 1 are honoured as degenerate point masses, with
    -inf log mass on impossible outcomes.
    """
    theta = check_probability(theta)
    n = model.n
    if theta == 0.0 or theta == 1.0:
        out = np.full(n + 1, -math.inf)
        out[0 if theta == 0.0 else n] = 0.0
        return out
    x = np.arange(n + 1)
    return _log_choose_support(n) + x * math.log(theta) + (n - x) * math.log1p(-theta)


def binom_pmf_support(model: BinomialModel, theta: float) -> np.ndarray:
    """Pmf of Binomial(n, theta) over the whole support 0..n."""
    return np.exp(binom_log_pmf_support(model, theta))


def binom_pmf(x: int, model: BinomialModel, theta: float) -> float:
    """C(n,x) theta^x (1-theta)^(n-x), computed in log space."""
    x = check_outcome(x, model)
    theta = check_probability(theta)
    if theta == 0.0:
        return 1.0 if x == 0 else 0.0
    if theta == 1.0:
        return 1.0 if x == model.n else 0.0
    lp = _log_choose_support(model.n)[x] + x * math.log(theta) + (model.n - x) * math.log1p(-theta)
    return math.exp(lp)


def beta_log_pdf(t: float, prior: BetaPrior) -> float:
    """Log density of Beta(a, b) at t; -inf where the density vanishes."""
    t = check_probability(t, "t")
    a, b = prior.a, prior.b
    if t == 0.0 or t == 1.0:
        if a < 1.0 or b < 1.0:
            raise ValueError(f"beta density unbounded at t={t} for shapes a={a}, b={b}")
        edge_shape = a if t == 0.0 else b
        if edge_shape > 1.0:
            return -math.inf
        # shape exactly 1 at this endpoint: density limit is the other shape
        return math.log(b if t == 0.0 else a)
    return (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - log_beta(a, b)


def beta_pdf(t: float, prior: BetaPrior) -> float:
    """Density of Beta(a, b) at t in [0, 1]."""
    return math.exp(beta_log_pdf(t, prior))


def beta_binom_log_pmf_support(model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    """Log pmf of the beta-binomial mixture marginal over outcomes 0..n."""
    n, a, b = model.n, prior.a, prior.b
    lb = log_beta(a, b)
    lbet = np.array([log_beta(x + a, b + n - x) for x in range(n + 1)])
    return _log_choose_support(n) + lbet - lb


def beta_binom_pmf_support(model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    """Pmf of the beta-binomial mixture marginal over outcomes 0..n."""
    return np.exp(beta_binom_log_pmf_support(model, prior))


def posterior_density_support(eta: float, model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    """Posterior density of eta relative to the prior, for every outcome 0..n.

    f_eta(x) / P_mix(x), where P_mix is the beta-binomial marginal; this
    equals the ratio of beta densities Beta(eta; a+x, b+n-x) / Beta(eta; a, b).
    """
    eta = check_open_unit(eta)
    return np.exp(binom_log_pmf_support(model, eta) - beta_binom_log_pmf_support(model, prior))
