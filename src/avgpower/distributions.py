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
    "log_beta",
    "binom_pmf",
    "binom_log_pmf_support",
    "binom_pmf_support",
    "binom_log_pmf_rows",
    "binom_pmf_rows",
    "beta_pdf",
    "beta_log_pdf",
    "beta_binom_log_pmf_support",
    "beta_binom_pmf_support",
    "posterior_density_support",
    "check_integer",
    "check_count",
    "check_outcome",
    "check_outcomes",
    "check_probability",
    "check_open_unit",
]


@dataclass(frozen=True)
class BinomialModel:
    """Binomial likelihood family with a fixed number of trials.

    The outcome support is the integers ``0..n`` inclusive.
    """

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_count(self.n, "trial count"))

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


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for positive finite a, b.

    Raises ValueError when a log-gamma term exceeds the double range: a, b
    or a + b above about 2.55e305.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and a > 0.0) or not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"log_beta requires positive finite arguments, got a={a!r}, b={b!r}")
    try:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:
        raise ValueError(f"log_beta overflows the double range at a={a!r}, b={b!r}") from None


@lru_cache(maxsize=128)
def _support_table(n: int) -> tuple:
    """(ln C(n, x), x, n - x) over x = 0..n, all float. Cached per n and read-only.

    The counts are exact as floats (n < 2**53), so products with them round
    as products with the integers would.
    """
    lg = math.lgamma(n + 1)
    log_choose = np.array([lg - math.lgamma(x + 1) - math.lgamma(n - x + 1) for x in range(n + 1)])
    x = np.arange(n + 1)
    table = (log_choose, x.astype(float), (n - x).astype(float))
    for arr in table:
        arr.flags.writeable = False
    return table


def check_integer(value: int, what: str) -> int:
    """A Python or numpy integer, not a bool, as a Python int; ``what`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_count(value: int, what: str) -> int:
    """An integer of at least 1, as a Python int; ``what`` names it in the error."""
    value = check_integer(value, what)
    if value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def check_outcome(x: int, model: BinomialModel) -> int:
    """An observed outcome: an integer in 0..n."""
    x = check_integer(x, "outcome")
    if not 0 <= x <= model.n:
        raise ValueError(f"outcome {x} outside support 0..{model.n}")
    return x


def check_outcomes(x: np.ndarray, model: BinomialModel) -> np.ndarray:
    """An array of observed outcomes: integer dtype, every value in 0..n.

    Checked before use as an index, where a negative value would wrap around.
    """
    if x.dtype.kind not in "iu":
        raise ValueError(f"outcomes must be an integer array, got dtype {x.dtype}")
    outside = (x < 0) | (x > model.n)
    if outside.any():
        raise ValueError(f"outcome {x[outside].flat[0]} outside support 0..{model.n}")
    return x


def check_open_unit(value: float, name: str) -> float:
    """A level or a null value, strictly inside (0, 1), as a float; ``name`` names it in the error."""
    value = float(value)
    if not (math.isfinite(value) and 0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value


def check_probability(theta: float, name: str = "theta") -> float:
    """A probability in [0, 1], endpoints included."""
    theta = float(theta)
    if not (math.isfinite(theta) and 0.0 <= theta <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {theta!r}")
    return theta


def _open_unit_logs(values: np.ndarray, name: str) -> tuple:
    """(ln v, ln(1 - v)) arrays for a 1-d array of values each strictly inside (0, 1).

    Each log comes from a per-value ``math`` call, so an element equals the
    scalar log bit for bit.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all((values > 0.0) & (values < 1.0)):
        raise ValueError(f"{name} must be a 1-d array of values strictly inside (0, 1)")
    vs = values.tolist()
    return np.array([math.log(v) for v in vs]), np.array([math.log1p(-v) for v in vs])


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
    return _binom_log_pmf_open(n, math.log(theta), math.log1p(-theta))


def _binom_log_pmf_open(n: int, log_theta, log1m_theta) -> np.ndarray:
    """ln C(n, x) + x ln(theta) + (n - x) ln(1 - theta) over x = 0..n.

    The logs are floats, or (T, 1) columns that give one row per theta.
    """
    log_choose, x, n_minus_x = _support_table(n)
    return log_choose + x * log_theta + n_minus_x * log1m_theta


def binom_pmf_support(model: BinomialModel, theta: float) -> np.ndarray:
    """Pmf of Binomial(n, theta) over the whole support 0..n."""
    return np.exp(binom_log_pmf_support(model, theta))


def binom_log_pmf_rows(model: BinomialModel, thetas: np.ndarray) -> np.ndarray:
    """Log pmf of Binomial(n, t) over 0..n for every t strictly inside (0, 1), as a (T, n+1) array.

    Row i is bit-identical to ``binom_log_pmf_support(model, thetas[i])``:
    the per-theta logs come from the same ``math`` calls.
    """
    log_theta, log1m_theta = _open_unit_logs(thetas, "thetas")
    return _binom_log_pmf_open(model.n, log_theta[:, None], log1m_theta[:, None])


def binom_pmf_rows(model: BinomialModel, thetas: np.ndarray) -> np.ndarray:
    """Pmf of Binomial(n, t) over 0..n for every t strictly inside (0, 1), as a (T, n+1) array.

    Row i is bit-identical to ``binom_pmf_support(model, thetas[i])``.
    """
    return np.exp(binom_log_pmf_rows(model, thetas))


def binom_pmf(x: int | np.ndarray, model: BinomialModel, theta: float) -> float | np.ndarray:
    """C(n,x) theta^x (1-theta)^(n-x), computed in log space.

    x is one outcome or an integer array of outcomes; an array gives an
    array of the same shape. Both index binom_log_pmf_support.
    """
    if isinstance(x, np.ndarray):
        x = check_outcomes(x, model)
        return np.exp(binom_log_pmf_support(model, theta)[x])
    x = check_outcome(x, model)
    return math.exp(binom_log_pmf_support(model, theta)[x])


def beta_log_pdf(t: float | np.ndarray, prior: BetaPrior) -> float | np.ndarray:
    """Log density of Beta(a, b) at t; -inf where the density vanishes.

    t is one value in [0, 1], or a 1-d float array of values strictly inside
    (0, 1) that gives an array. A scalar inside (0, 1) is evaluated as a
    one-element array, so each element equals the scalar call bit for bit.
    """
    a, b = prior.a, prior.b
    scalar = not isinstance(t, np.ndarray)
    if scalar:
        t = check_probability(t, "t")
        if t == 0.0 or t == 1.0:
            if a < 1.0 or b < 1.0:
                raise ValueError(f"beta density unbounded at t={t} for shapes a={a}, b={b}")
            edge_shape = a if t == 0.0 else b
            if edge_shape > 1.0:
                return -math.inf
            # shape exactly 1 at this endpoint: density limit is the other shape
            return math.log(b if t == 0.0 else a)
    log_t, log1m_t = _open_unit_logs(np.array([t]) if scalar else t, "t")
    # Python floats overflow to inf without a warning; so do these.
    with np.errstate(over="ignore", invalid="ignore"):
        log_pdf = (a - 1.0) * log_t + (b - 1.0) * log1m_t - log_beta(a, b)
    return float(log_pdf[0]) if scalar else log_pdf


def beta_pdf(t: float, prior: BetaPrior) -> float:
    """Density of Beta(a, b) at t in [0, 1].

    Raises ValueError when the density exceeds the double range.
    """
    log_pdf = beta_log_pdf(t, prior)
    try:
        return math.exp(log_pdf)
    except OverflowError:
        raise ValueError(
            f"beta density at t={t!r} overflows a double for shapes a={prior.a!r}, b={prior.b!r}"
        ) from None


def beta_binom_log_pmf_support(model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    """Log pmf of the beta-binomial mixture marginal over outcomes 0..n."""
    n, a, b = model.n, prior.a, prior.b
    lb = log_beta(a, b)
    lbet = np.array([log_beta(x + a, b + (n - x)) for x in range(n + 1)])
    return _support_table(n)[0] + lbet - lb


def beta_binom_pmf_support(model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    """Pmf of the beta-binomial mixture marginal over outcomes 0..n."""
    return np.exp(beta_binom_log_pmf_support(model, prior))


def _log_f_and_g(model: BinomialModel, prior: BetaPrior, etas: np.ndarray) -> tuple:
    """ln f_eta and ln g = ln f_eta - ln P_mix over 0..n, as (T, n+1) arrays with one row per null in ``etas``."""
    log_f = binom_log_pmf_rows(model, etas)
    return log_f, log_f - beta_binom_log_pmf_support(model, prior)


def posterior_density_support(eta: float, model: BinomialModel, prior: BetaPrior) -> np.ndarray:
    """Posterior density of eta relative to the prior, for every outcome 0..n.

    f_eta(x) / P_mix(x), where P_mix is the beta-binomial marginal; this
    equals the ratio of beta densities Beta(eta; a+x, b+n-x) / Beta(eta; a, b).
    Raises ValueError when a density exceeds the double range.
    """
    eta = check_open_unit(eta, "eta")
    with np.errstate(over="ignore"):
        density = np.exp(_log_f_and_g(model, prior, np.array([eta]))[1][0])
    over = np.flatnonzero(np.isinf(density))
    if over.size:
        raise ValueError(
            f"posterior density at eta={eta!r} overflows a double at x={over[0]} "
            f"for shapes a={prior.a!r}, b={prior.b!r}"
        )
    return density
