"""Reference computations the benchmark checks the program against.

Everything here is written from the paper's equations in plain Python
floats and imports nothing from ``repro``, so a fault in the program's
numerics cannot hide behind a shared helper.  Elasticities are given as
lists of per-agent rows ``alpha[i][r]``; allocations as lists of
bundles ``shares[i][r]``.

* :func:`rescale` and :func:`ref_shares` — Eq. 12 and Eq. 13;
* :func:`log_utility` — Cobb-Douglas log-utility ``log s + sum a_r log x_r``;
* :func:`weighted_log_utilities` — ``log U_i = log u_i(x_i) - log u_i(C)``
  (Eq. 17's normalisation, in which the scale cancels);
* :func:`sharing_incentive_ok`, :func:`envy_free_ok` — SI and EF;
* :func:`log_nash_welfare`, :func:`egalitarian_welfare`,
  :func:`weighted_system_throughput` — the welfare measures of §4.5;
* :func:`fit_log_linear` — the log-linear least-squares fit of Eq. 16,
  solved through the normal equations by Gaussian elimination.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

Matrix = List[List[float]]

#: The Cobb-Douglas domain needs strictly positive exponents; a fitted
#: exponent at or below this is reported as this value.
MIN_ELASTICITY = 1e-6


def rescale(alpha: Sequence[Sequence[float]]) -> Matrix:
    """Eq. 12: each agent's elasticities divided by their sum."""
    rows = []
    for row in alpha:
        total = math.fsum(row)
        rows.append([a / total for a in row])
    return rows


def ref_shares(
    alpha: Sequence[Sequence[float]], capacities: Sequence[float]
) -> Matrix:
    """Eq. 13: ``x_ir = C_r * a^_ir / sum_j a^_jr`` on rescaled elasticities.

    A resource nobody has a positive elasticity for is split equally.
    """
    hat = rescale(alpha)
    n = len(hat)
    shares = [[0.0] * len(capacities) for _ in range(n)]
    for r, capacity in enumerate(capacities):
        total = math.fsum(hat[i][r] for i in range(n))
        for i in range(n):
            if total > 0.0 and math.isfinite(total):
                shares[i][r] = capacity * hat[i][r] / total
            else:
                shares[i][r] = capacity / n
    return shares


def log_utility(alpha: Sequence[float], scale: float, bundle: Sequence[float]) -> float:
    """``log(s * prod_r x_r ** a_r)``."""
    return math.log(scale) + math.fsum(a * math.log(x) for a, x in zip(alpha, bundle))


def weighted_log_utilities(
    alpha: Sequence[Sequence[float]],
    shares: Sequence[Sequence[float]],
    capacities: Sequence[float],
) -> List[float]:
    """``log U_i = log u_i(x_i) - log u_i(C)`` for every agent."""
    return [
        math.fsum(a * math.log(x / c) for a, x, c in zip(row, bundle, capacities))
        for row, bundle in zip(alpha, shares)
    ]


def sharing_incentive_ok(
    alpha: Sequence[Sequence[float]],
    shares: Sequence[Sequence[float]],
    capacities: Sequence[float],
    rtol: float,
) -> bool:
    """SI (Eq. 3): every agent values her bundle at least as ``C / N``."""
    n = len(alpha)
    equal = [c / n for c in capacities]
    slack = math.log1p(-rtol)
    return all(
        log_utility(row, 1.0, bundle) - log_utility(row, 1.0, equal) >= slack
        for row, bundle in zip(alpha, shares)
    )


def envy_free_ok(
    alpha: Sequence[Sequence[float]], shares: Sequence[Sequence[float]], rtol: float
) -> bool:
    """EF: no agent values another's bundle above her own."""
    slack = math.log1p(rtol)
    for row, own in zip(alpha, shares):
        mine = log_utility(row, 1.0, own)
        for other in shares:
            if log_utility(row, 1.0, other) - mine > slack:
                return False
    return True


def log_nash_welfare(
    alpha: Sequence[Sequence[float]],
    shares: Sequence[Sequence[float]],
    capacities: Sequence[float],
) -> float:
    """``log prod_i U_i``."""
    return math.fsum(weighted_log_utilities(alpha, shares, capacities))


def egalitarian_welfare(
    alpha: Sequence[Sequence[float]],
    shares: Sequence[Sequence[float]],
    capacities: Sequence[float],
) -> float:
    """``min_i U_i``."""
    return math.exp(min(weighted_log_utilities(alpha, shares, capacities)))


def weighted_system_throughput(
    alpha: Sequence[Sequence[float]],
    shares: Sequence[Sequence[float]],
    capacities: Sequence[float],
) -> float:
    """Eq. 17: ``sum_i U_i``."""
    return math.fsum(
        math.exp(v) for v in weighted_log_utilities(alpha, shares, capacities)
    )


def _solve(a: Matrix, b: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting on a small dense system."""
    n = len(b)
    m = [list(a[i]) + [b[i]] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda row: abs(m[row][col]))
        if m[pivot][col] == 0.0:
            raise ValueError("singular normal equations")
        m[col], m[pivot] = m[pivot], m[col]
        for row in range(col + 1, n):
            factor = m[row][col] / m[col][col]
            for k in range(col, n + 1):
                m[row][k] -= factor * m[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        tail = math.fsum(m[row][k] * x[k] for k in range(row + 1, n))
        x[row] = (m[row][n] - tail) / m[row][row]
    return x


def fit_log_linear(
    bundles: Sequence[Sequence[float]],
    values: Sequence[float],
) -> Tuple[float, List[float]]:
    """Least-squares fit of ``log v = log s + sum_r a_r log x_r`` (Eq. 16).

    Returns ``(scale, alpha)`` with each exponent floored at
    :data:`MIN_ELASTICITY`, the Cobb-Douglas domain.
    """
    rows = [[1.0] + [math.log(x) for x in bundle] for bundle in bundles]
    target = [math.log(v) for v in values]
    k = len(rows[0])
    normal = [
        [math.fsum(row[p] * row[q] for row in rows) for q in range(k)]
        for p in range(k)
    ]
    rhs = [math.fsum(row[p] * t for row, t in zip(rows, target)) for p in range(k)]
    coef = _solve(normal, rhs)
    return math.exp(coef[0]), [max(a, MIN_ELASTICITY) for a in coef[1:]]
