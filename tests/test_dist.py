import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collitest.dist import (Distribution, l1_distance, make_bump, make_heavy,
                            make_uniform)
from collitest.rng import Stream


def direct_mu(probs):
    return sum(p * p for p in probs)


def direct_gamma(probs):
    return sum(p**3 for p in probs)


def direct_l1(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


class TestUniform:
    def test_n4(self):
        assert make_uniform(4).probs.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_degenerate_domain(self):
        assert make_uniform(1).probs.tolist() == [1.0]

    def test_mu_is_one_over_n(self):
        assert make_uniform(100).collision_probability() == pytest.approx(0.01, abs=1e-15)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            make_uniform(0)


class TestBump:
    def test_values(self):
        assert make_bump(4, 0.5).probs.tolist() == [0.375, 0.375, 0.125, 0.125]

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            make_bump(4, 0.0)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            make_bump(5, 0.5)

    def test_distance_and_mu_match_direct_sums(self):
        p = make_bump(4, 0.5)
        u = make_uniform(4)
        assert l1_distance(p, u) == pytest.approx(direct_l1(p.probs, u.probs))
        assert l1_distance(p, u) == pytest.approx(0.5)
        assert p.collision_probability() == pytest.approx(direct_mu(p.probs))
        assert p.collision_probability() == pytest.approx(0.3125)
        assert p.collision_probability() == pytest.approx((1 + 0.5**2) / 4, abs=1e-12)


class TestHeavy:
    def test_distance_is_eps(self):
        for n, eps in [(4, 1.0), (10, 0.5), (2, 1.0), (7, 0.25)]:
            p = make_heavy(n, eps)
            assert l1_distance(p, make_uniform(n)) == pytest.approx(eps, abs=1e-12)

    def test_mu_clears_far_bound(self):
        p = make_heavy(8, 0.5)
        assert p.collision_probability() >= (1 + 0.5**2) / 8

    def test_rejects_tiny_domain(self):
        with pytest.raises(ValueError):
            make_heavy(1, 0.5)


class TestMoments:
    def test_uniform_collision(self):
        assert make_uniform(4).collision_probability() == pytest.approx(0.25)

    def test_point_mass_collision(self):
        p = Distribution([0.0, 0.0, 1.0])
        assert p.collision_probability() == 1.0
        assert p.three_way_collision_probability() == 1.0

    def test_uniform_three_way(self):
        p = make_uniform(6)
        assert p.three_way_collision_probability() == pytest.approx(1 / 36)

    def test_bump_three_way_matches_direct_sum(self):
        p = make_bump(4, 0.5)
        assert p.three_way_collision_probability() == pytest.approx(direct_gamma(p.probs))
        assert p.three_way_collision_probability() == pytest.approx(0.109375)


class TestL1:
    def test_identical_is_zero(self):
        u = make_uniform(5)
        assert l1_distance(u, u) == 0.0

    def test_point_mass_vs_uniform(self):
        p = Distribution([1.0, 0.0, 0.0, 0.0])
        assert l1_distance(p, make_uniform(4)) == pytest.approx(1.5)
        assert l1_distance(p, make_uniform(4)) == pytest.approx(2 * (1 - 1 / 4))

    def test_rejects_mismatched_domains(self):
        with pytest.raises(ValueError):
            l1_distance(make_uniform(3), make_uniform(4))


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([0.5, -0.1, 0.6])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_accepts_and_normalizes_near_one(self):
        probs = [0.1] * 10
        probs[0] += 1e-13
        p = Distribution(probs)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_probs_are_read_only(self):
        p = make_uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestSampling:
    def test_point_mass_always_hits(self):
        p = Distribution([0.0, 0.0, 1.0, 0.0])
        values = p.sample(200, Stream(1).rng())
        assert np.all(values == 3)

    def test_empty_draw(self):
        values = make_uniform(3).sample(0, Stream(0).rng())
        assert values.size == 0

    def test_values_live_in_domain(self):
        p = make_heavy(7, 0.5)
        values = p.sample(5000, Stream(2).rng())
        assert values.min() >= 1 and values.max() <= 7

    def test_uniform_frequency_concentrates(self):
        values = make_uniform(2).sample(10**5, Stream(11).rng())
        freq = np.mean(values == 1)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10**5)

    def test_reproducible_per_stream(self):
        p = make_bump(10, 0.5)
        a = p.sample(1000, Stream(5).child(3).rng())
        b = p.sample(1000, Stream(5).child(3).rng())
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        p = make_uniform(50)
        a = p.sample(1000, Stream(5).child(0).rng())
        b = p.sample(1000, Stream(5).child(1).rng())
        assert not np.array_equal(a, b)

    def test_alias_table_matches_probabilities(self):
        # skewed vector; empirical frequencies within 5 sigma each
        p = Distribution([0.5, 0.2, 0.15, 0.1, 0.05])
        trials = 2 * 10**5
        values = p.sample(trials, Stream(17).rng())
        counts = np.bincount(values, minlength=6)[1:]
        for i, prob in enumerate(p.probs):
            sigma = np.sqrt(prob * (1 - prob) / trials)
            assert abs(counts[i] / trials - prob) <= 5 * sigma

    def test_labeling_length_matches_request(self):
        values = make_uniform(3).sample(17, Stream(0).rng())
        assert values.shape == (17,) and values.dtype == np.int64


prob_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1, max_size=40,
).filter(lambda xs: sum(xs) > 1e-6)


@settings(max_examples=200, deadline=None)
@given(prob_vectors)
def test_moment_bounds_hold_everywhere(raw):
    p = Distribution(np.array(raw) / np.sum(raw))
    mu = p.collision_probability()
    gamma = p.three_way_collision_probability()
    n = p.n
    assert 1 / n - 1e-12 <= mu <= 1 + 1e-12
    assert mu * mu - 1e-12 <= gamma <= mu + 1e-12


@settings(max_examples=200, deadline=None)
@given(prob_vectors)
def test_far_distributions_have_inflated_mu(raw):
    p = Distribution(np.array(raw) / np.sum(raw))
    u = make_uniform(p.n)
    eps = l1_distance(p, u)
    assert p.collision_probability() >= (1 + eps * eps) / p.n - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=1e-3, max_value=1.0, allow_nan=False))
def test_bump_mu_is_exact(half, eps):
    p = make_bump(2 * half, eps)
    assert abs(p.collision_probability() - (1 + eps * eps) / (2 * half)) <= 1e-12
