"""Hand-worked checks of the benchmark's reference computations.

The example is the paper's two-agent Edgeworth box (Figs. 1-7): 24 GB/s
of bandwidth and 12 MB of cache shared by ``u1 = x^0.6 y^0.4`` and
``u2 = x^0.2 y^0.8``.  Run with ``python3 -m pytest perfbench``.
"""

import math

import pytest

import reference as ref

ALPHA = [[0.6, 0.4], [0.2, 0.8]]
CAPACITY = [24.0, 12.0]


def flat(rows):
    return [value for row in rows for value in row]


def test_rescale_sums_to_one():
    assert flat(ref.rescale([[1.2, 0.8], [0.1, 0.4]])) == pytest.approx([0.6, 0.4, 0.2, 0.8])


def test_eq13_shares_match_hand_computation():
    # Bandwidth: 0.6 / 0.8 and 0.2 / 0.8 of 24; cache: 0.4 / 1.2 and 0.8 / 1.2 of 12.
    assert flat(ref.ref_shares(ALPHA, CAPACITY)) == pytest.approx([18.0, 4.0, 6.0, 8.0])


def test_eq13_is_invariant_to_scaling_an_agent():
    doubled = [[1.2, 0.8], [0.2, 0.8]]
    expected = flat(ref.ref_shares(ALPHA, CAPACITY))
    assert flat(ref.ref_shares(doubled, CAPACITY)) == pytest.approx(expected)


def test_eq13_splits_a_degenerate_column_equally():
    shares = ref.ref_shares([[1.0, 0.0], [1.0, 0.0]], CAPACITY)
    assert flat(shares) == pytest.approx([12.0, 6.0, 12.0, 6.0])


def test_log_utility():
    value = ref.log_utility([0.6, 0.4], 2.0, [18.0, 4.0])
    assert value == pytest.approx(math.log(2.0 * 18.0**0.6 * 4.0**0.4))


def test_ref_allocation_is_si_and_ef():
    shares = ref.ref_shares(ALPHA, CAPACITY)
    assert ref.sharing_incentive_ok(ALPHA, shares, CAPACITY, rtol=1e-12)
    assert ref.envy_free_ok(ALPHA, shares, rtol=1e-12)


def test_giving_everything_to_one_agent_breaks_si_and_ef():
    shares = [[23.0, 11.0], [1.0, 1.0]]
    assert not ref.sharing_incentive_ok(ALPHA, shares, CAPACITY, rtol=1e-6)
    assert not ref.envy_free_ok(ALPHA, shares, rtol=1e-6)


def test_welfare_measures_at_the_ref_allocation():
    shares = [[18.0, 4.0], [6.0, 8.0]]
    u1 = 0.75**0.6 * (1 / 3) ** 0.4
    u2 = 0.25**0.2 * (2 / 3) ** 0.8
    assert math.exp(ref.log_nash_welfare(ALPHA, shares, CAPACITY)) == pytest.approx(u1 * u2)
    assert ref.egalitarian_welfare(ALPHA, shares, CAPACITY) == pytest.approx(min(u1, u2))
    assert ref.weighted_system_throughput(ALPHA, shares, CAPACITY) == pytest.approx(u1 + u2)


def test_equal_split_welfare():
    shares = [[12.0, 6.0], [12.0, 6.0]]
    assert ref.egalitarian_welfare(ALPHA, shares, CAPACITY) == pytest.approx(0.5)
    assert ref.weighted_system_throughput(ALPHA, shares, CAPACITY) == pytest.approx(1.0)


def test_fit_recovers_exact_cobb_douglas():
    bundles = [(b, c) for b in (2.0, 4.0, 8.0) for c in (1.0, 3.0, 9.0)]
    values = [1.5 * b**0.6 * c**0.4 for b, c in bundles]
    scale, alpha = ref.fit_log_linear(bundles, values)
    assert scale == pytest.approx(1.5, rel=1e-12)
    assert alpha == pytest.approx([0.6, 0.4], rel=1e-12)


def test_fit_floors_negative_exponents():
    bundles = [(b, c) for b in (1.0, 2.0, 4.0) for c in (1.0, 2.0, 4.0)]
    values = [b**-0.3 * c**0.5 for b, c in bundles]
    _, alpha = ref.fit_log_linear(bundles, values)
    assert alpha[0] == ref.MIN_ELASTICITY
    assert alpha[1] == pytest.approx(0.5)
