"""Independent reference implementations for the test suite.

Everything here is computed with mpmath at 40 significant digits through
routes deliberately different from the library's: direct arbitrary-precision
products instead of cached log-gamma tables, true numerical integration
instead of closed forms, and regularized-incomplete-beta tails instead of
pmf summation. Test tolerances then measure real disagreement, not shared
bugs. Two exceptions are float-exact references that the library must
match bit for bit: ``oracle_matrix_csv``, a plain per-line formatter for the
whole-array CSV writer, and ``oracle_admit_tie_groups``, the plain tie-group
admission on the rejected side that the library's array passes must
reproduce. A third,
``oracle_bisect_cp``, is the plain bisection on the same float tail sums; the
library's endpoints must fall inside its final bracket. A fourth,
``_data_rng``, is the Monte Carlo data row's stream built the documented way,
numpy's own ``Philox.jumped``; the library's one generator, whose counter it
sets through the state dict, must draw the same values. The type I audit,
``oracle_rejected_mass``, sums at 50 digits, and ``oracle_cp_root``
bisects for a baseline endpoint at 50 digits in log space.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from avgpower.distributions import BinomialModel, binom_pmf_support

mp.mp.dps = 40

TIE_RTOL = mp.mpf("1e-12")


def oracle_log_gamma(z: float) -> float:
    return float(mp.loggamma(mp.mpf(z)))


def _mp_binom_pmf(x: int, n: int, theta) -> mp.mpf:
    theta = mp.mpf(theta)
    if theta == 0:
        return mp.mpf(1 if x == 0 else 0)
    if theta == 1:
        return mp.mpf(1 if x == n else 0)
    return mp.binomial(n, x) * theta**x * (1 - theta) ** (n - x)


def oracle_binom_pmf(x: int, n: int, theta: float) -> float:
    return float(_mp_binom_pmf(x, n, theta))


def oracle_beta_pdf(t: float, a: float, b: float) -> float:
    t, a, b = mp.mpf(t), mp.mpf(a), mp.mpf(b)
    return float(t ** (a - 1) * (1 - t) ** (b - 1) / mp.beta(a, b))


def oracle_beta_log_pdf(t: float, a: float, b: float) -> float:
    """ln of the Beta(a, b) density at t, from mpmath's own logs and beta function."""
    t, a, b = mp.mpf(t), mp.mpf(a), mp.mpf(b)
    return float((a - 1) * mp.log(t) + (b - 1) * mp.log1p(-t) - mp.log(mp.beta(a, b)))


def oracle_beta_binom_pmf(x: int, n: int, a: float, b: float) -> float:
    """Prior predictive mass by true quadrature of the binomial-beta product."""
    a, b = mp.mpf(a), mp.mpf(b)

    def integrand(t: mp.mpf) -> mp.mpf:
        return _mp_binom_pmf(x, n, t) * t ** (a - 1) * (1 - t) ** (b - 1)

    return float(mp.quad(integrand, [0, mp.mpf("0.5"), 1]) / mp.beta(a, b))


def oracle_beta_binom_log_pmf(x: int, n: int, a: float, b: float) -> float:
    """ln of the prior predictive mass from the closed form C(n, x) B(x + a, n - x + b) / B(a, b)."""
    a, b = mp.mpf(a), mp.mpf(b)
    return float(mp.log(mp.binomial(n, x)) + mp.log(mp.beta(x + a, (n - x) + b)) - mp.log(mp.beta(a, b)))


def oracle_mixed_power(included, n: int, a: float, b: float) -> float:
    """1 minus the true integral of the accepted-set coverage against the prior."""
    a, b = mp.mpf(a), mp.mpf(b)
    idx = [x for x, flag in enumerate(included) if flag]

    def integrand(t: mp.mpf) -> mp.mpf:
        cov = mp.fsum(_mp_binom_pmf(x, n, t) for x in idx)
        return cov * t ** (a - 1) * (1 - t) ** (b - 1)

    return float(1 - mp.quad(integrand, [0, mp.mpf("0.5"), 1]) / mp.beta(a, b))


def oracle_cp_interval(x: int, n: int, level: float) -> tuple:
    """Equal-tail endpoints via regularized incomplete beta tails.

    P(X >= x | t) = I_t(x, n-x+1) and P(X <= x | t) = I_{1-t}(n-x, x+1);
    each endpoint solves tail = level/2 by bisection to 1e-12.
    """
    half = mp.mpf(level) / 2

    def bisect(tail, increasing: bool) -> float:
        lo, hi = mp.mpf(0), mp.mpf(1)
        while hi - lo > mp.mpf("1e-12"):
            mid = (lo + hi) / 2
            above = tail(mid) > half
            if above == increasing:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)

    if x == 0:
        lower = 0.0
    else:
        lower = bisect(lambda t: mp.betainc(x, n - x + 1, 0, t, regularized=True), True)
    if x == n:
        upper = 1.0
    else:
        upper = bisect(lambda t: mp.betainc(n - x, x + 1, 0, 1 - t, regularized=True), False)
    return lower, upper


def oracle_cp_root(x: int, n: int, level: float) -> tuple:
    """(lower endpoint for x, upper endpoint for n - x) at ``level``, from one 50-digit root.

    Bisects ln(theta) until the bracket is 2**-60 wide, comparing the log of
    the regularized incomplete beta tail P(X >= x | theta) = I_theta(x, n-x+1)
    with ln(level / 2), so that a level below the normal floats keeps every
    digit. The bracket starts at ln 1 and at (ln(level / 2) - ln C(n, x)) / x,
    which lies below the root since P(X >= x) <= C(n, x) theta^x. The upper
    endpoint for n - x is one minus the root, by the reflection of the law.
    """
    with mp.workdps(50):
        log_half = mp.log(mp.mpf(level) / 2)
        lo, hi = (log_half - mp.log(mp.binomial(n, x))) / x, mp.mpf(0)
        while hi - lo > mp.mpf(2) ** -60:
            mid = (lo + hi) / 2
            if mp.log(mp.betainc(x, n - x + 1, 0, mp.exp(mid), regularized=True)) > log_half:
                hi = mid
            else:
                lo = mid
        root = mp.exp((lo + hi) / 2)
        return float(root), float(1 - root)


def _posterior_values(eta, n: int, a, b) -> list:
    """g(x) = f_eta(x) / P_mix(x) for all outcomes, fully in mpmath."""
    eta, a, b = mp.mpf(eta), mp.mpf(a), mp.mpf(b)
    values = []
    for x in range(n + 1):
        f = _mp_binom_pmf(x, n, eta)
        pmix = mp.binomial(n, x) * mp.beta(a + x, b + n - x) / mp.beta(a, b)
        values.append(f / pmix)
    return values


def oracle_posterior_density(eta: float, x: int, n: int, a: float, b: float) -> float:
    return float(_posterior_values(eta, n, a, b)[x])


def oracle_greedy_row(eta: float, n: int, level: float, a: float, b: float) -> frozenset:
    """Re-sort by posterior value and take the shortest covering prefix.

    Independent restatement of the construction: descending posterior order,
    tie groups (relative gap within 1e-12) admitted whole, stop once the
    accumulated null mass reaches 1 - level.
    """
    g = _posterior_values(eta, n, a, b)
    pmf = [_mp_binom_pmf(x, n, mp.mpf(eta)) for x in range(n + 1)]
    order = sorted(range(n + 1), key=lambda x: (-g[x], x))
    groups = _tie_groups([g[x] for x in order])
    target = 1 - mp.mpf(level)
    included: set = set()
    cum = mp.mpf(0)
    for start, stop in groups:
        if cum >= target:
            break
        for pos in range(start, stop):
            included.add(order[pos])
            cum += pmf[order[pos]]
    return frozenset(included)


def _tie_groups(sorted_desc) -> list:
    groups = []
    start = 0
    m = len(sorted_desc)
    while start < m:
        stop = start + 1
        while stop < m and (sorted_desc[stop - 1] - sorted_desc[stop]) <= TIE_RTOL * sorted_desc[stop - 1]:
            stop += 1
        groups.append((start, stop))
        start = stop
    return groups


def oracle_threshold_rows(eta: float, n: int, level: float, a: float, b: float) -> list:
    """Every threshold row with its exact coverage and mixed power.

    Threshold rows are the distinct sets {x : g(x) >= c}; sweeping c over the
    posterior values yields them as tie-group prefixes of the descending
    order. Coverage and mixed power come from the arbitrary-precision closed
    forms. Returns (frozenset, coverage, mixed_power) triples; the caller
    decides which coverages count as feasible, since rows landing within a
    few ulps of the target are resolved arbitrarily by double arithmetic.
    """
    eta, a, b = mp.mpf(eta), mp.mpf(a), mp.mpf(b)
    g = _posterior_values(eta, n, a, b)
    pmf = [_mp_binom_pmf(x, n, eta) for x in range(n + 1)]
    bb = [mp.binomial(n, x) * mp.beta(a + x, b + n - x) / mp.beta(a, b) for x in range(n + 1)]
    order = sorted(range(n + 1), key=lambda x: (-g[x], x))
    groups = _tie_groups([g[x] for x in order])

    rows = []
    members: list = []
    for start, stop in groups:
        members.extend(order[start:stop])
        cov = float(mp.fsum(pmf[x] for x in members))
        mixed = float(1 - mp.fsum(bb[x] for x in members))
        rows.append((frozenset(members), cov, mixed))
    return rows


def oracle_matrix_csv(points, included, threshold) -> str:
    """The decision-matrix CSV written one line at a time with %-formatting."""
    lines = ["eta,x,included,threshold"]
    for eta, flags, thr in zip(points, included, threshold):
        for x, flag in enumerate(flags):
            lines.append("%.6f,%d,%d,%.12g" % (eta, x, 1 if flag else 0, thr))
    return "".join(line + "\n" for line in lines)


def oracle_admit_tie_groups(log_g, mass, allowance: float) -> tuple:
    """Tie-group admission on the rejected side, with every ranked group built explicitly.

    Returns (inclusion flags, rejected mass summed in outcome order, smallest
    admitted density). Outcomes are ranked ascending in log density, and
    groups chain while adjacent ranked values lie within -log1p(-1e-12) of
    each other. Groups below the top one are rejected from the bottom while
    the rank-order running sum at each group's last outcome stays within
    allowance, then handed back one at a time while the outcome-order sum of
    the rejected masses passes it. Rejecting nothing always fits.
    """
    tol = -math.log1p(-1e-12)
    order = np.argsort(log_g, kind="stable")
    ranked = log_g[order]
    # How many outcomes lie at or below each group's last one.
    ends = np.append(np.flatnonzero(ranked[:-1] < ranked[1:] - tol), order.size - 1) + 1
    rising = np.cumsum(mass[order])
    taken = min(int(np.count_nonzero(rising[ends - 1] <= allowance)), ends.size - 1)
    while True:
        included = np.ones(order.size, dtype=bool)
        included[order[: ends[taken - 1] if taken else 0]] = False
        rejected = float(mass[~included].sum())
        if rejected <= allowance:
            with np.errstate(over="ignore"):
                return included, rejected, float(np.exp(log_g[included].min()))
        taken -= 1


def oracle_rejected_mass(included, n: int, eta: float) -> float:
    """The Binomial(n, eta) mass of a row's excluded outcomes, summed at 50 digits.

    Excluded outcomes between the row's first and last admitted ones are
    summed term by term. Each tail beyond them is walked outward from its
    inner end with the term ratio x / (n - x + 1) * (1 - eta) / eta downward,
    or its inverse upward, and stops once the terms fall and one is below
    1e-40 of the sum so far. A row that admits nothing rejects everything.
    """
    admitted = np.flatnonzero(included)
    if admitted.size == 0:
        return 1.0
    lo, hi = int(admitted[0]), int(admitted[-1])
    with mp.workdps(50):
        eta = mp.mpf(eta)
        odds = eta / (1 - eta)
        total = mp.fsum(_mp_binom_pmf(x, n, eta) for x in range(lo + 1, hi) if not included[x])
        for x, step in ((lo - 1, -1), (hi + 1, 1)):
            term = _mp_binom_pmf(x, n, eta) if 0 <= x <= n else mp.mpf(0)
            while term:
                total += term
                ratio = x / ((n - x + 1) * odds) if step < 0 else (n - x) * odds / (x + 1)
                x += step
                term *= ratio
                if ratio < 1 and term < total * mp.mpf("1e-40"):
                    break
        return float(total)


def _upper_tail(model: BinomialModel, x: int, theta: float) -> float:
    return float(binom_pmf_support(model, theta)[x:].sum())


def _lower_tail(model: BinomialModel, x: int, theta: float) -> float:
    return float(binom_pmf_support(model, theta)[: x + 1].sum())


def _bisect(predicate) -> float:
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def oracle_bisect_cp(x: int, n: int, level: float) -> tuple:
    """Equal-tail endpoints by plain bisection on the float tail sums.

    Every one of the 34 midpoints is decided by its own tail sum:
    P(X >= x) > level/2 for the lower endpoint, P(X <= x) <= level/2 for the
    upper one, each the midpoint of its final bracket of width 1e-10.
    """
    model = BinomialModel(n)
    half = level / 2.0
    lower = 0.0 if x == 0 else _bisect(lambda t: _upper_tail(model, x, t) > half)
    upper = 1.0 if x == n else _bisect(lambda t: _lower_tail(model, x, t) <= half)
    return lower, upper


def _data_rng(cfg, i: int) -> Generator:
    """The stream of Monte Carlo data row i: the i-th jump of Philox keyed by SeedSequence((seed, 1))."""
    return Generator(Philox(SeedSequence((cfg.seed, 1))).jumped(i))
