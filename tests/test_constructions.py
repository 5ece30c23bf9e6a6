import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily,
    augmented_chain,
    check_hypothesis,
    column_chain,
    count_pairs,
    min_pairwise_distance,
    random_separated,
    three_column,
    two_column,
)

from _oracles import oracle_count, oracle_min_distance


def _recount(built):
    pts = [tuple(p) for p in built.ps.coords]
    total, _ = oracle_count(pts, list(built.iv.t), built.iv.alpha)
    return total


class TestTwoColumn:
    @pytest.mark.parametrize(
        "n,k,t,eps,expected",
        [
            (4, 1, 100, 0.5, 4),
            (20, 2, 500, 0.1, 118),
            (20, 3, 500, 0.1, 132),
            (100, 2, 12500, 0.1, 2598),
            (8, 1, 50, 0.5, 16),
            (7, 2, 300, 0.4, 12 + 3 + 2),
        ],
    )
    def test_predicted_counts(self, n, k, t, eps, expected):
        built = two_column(n, k, t, eps)
        assert built.predicted_count == expected
        assert _recount(built) == expected
        assert built.ps.n == n
        assert built.iv.k == k
        assert built.iv.alpha == eps

    def test_interval_values_are_powers_of_three_then_t(self):
        built = two_column(12, 4, 10_000, 0.2)
        assert built.iv.t == (1.0, 3.0, 9.0, 10_000.0)

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            two_column(20, 2, 10, 0.1)
        # threshold is (ceil(n/2) - 1)^2 / (2 eps) here
        two_column(20, 2, 405.0, 0.1)
        with pytest.raises(ValueError):
            two_column(20, 2, 404.9, 0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            two_column(1, 1, 100, 0.5)
        with pytest.raises(ValueError):
            two_column(4, 0, 100, 0.5)
        with pytest.raises(ValueError):
            two_column(4, 1, 100, 1.0)

    def test_rejects_k_past_the_coordinate_limit(self):
        # 3**(k - 1) > 2**510 from k = 323 on; at k >= 648 the float power
        # overflows, so k must be refused by name before it is taken.
        for k in (323, 2000, 10**12):
            with pytest.raises(ValueError, match=f"k={k}$"):
                two_column(10, k, 500, 0.5)
        with pytest.raises(ValueError, match="needs t >= "):
            two_column(10, 322, 500, 0.5)

    @given(
        n=st.integers(2, 60),
        k=st.integers(2, 5),
        eps=st.floats(0.05, 0.45),
        slack=st.floats(1.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_near_sum_check_holds(self, n, k, eps, slack):
        h = (n + 1) // 2
        t = max(3.0 ** (k - 1), float(h), (h - 1) ** 2 / (2 * eps)) * slack
        built = two_column(n, k, t, eps)
        for delta in (0.05, 0.2):
            assert check_hypothesis(built.iv, delta).holds


class TestThreeColumn:
    @pytest.mark.parametrize(
        "n,t1,t2,expected",
        [(30, 2000, 2000, 300), (3, 2000, 2000, 3), (30, 2000, 3000, 300)],
    )
    def test_predicted_counts(self, n, t1, t2, expected):
        built = three_column(n, t1, t2)
        assert built.predicted_count == expected
        assert _recount(built) == expected

    def test_equal_gaps_merge_interval_values(self):
        built = three_column(30, 2000, 2000)
        assert built.iv.t == (2000.0, 4000.0)

    def test_distinct_gaps_keep_three_values(self):
        built = three_column(30, 2000, 3000)
        assert built.iv.t == (2000.0, 3000.0, 5000.0)

    def test_exceeds_quarter_bound(self):
        built = three_column(30, 2000, 2000)
        assert built.predicted_count == 300 > 30 * 30 / 4 + 2 * 30

    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    def test_near_sum_violation_always_reported(self, delta):
        built = three_column(30, 2000, 2000)
        report = check_hypothesis(built.iv, delta)
        assert not report.holds
        # the top value is exactly the sum of the two smaller gaps
        assert any(
            built.iv.t[v.l3 - 1] == built.iv.t[v.l1 - 1] + built.iv.t[v.l2 - 1]
            for v in report.violations
        )

    def test_distinct_gaps_violate_on_top_triple(self):
        built = three_column(30, 2000, 3000)
        report = check_hypothesis(built.iv, 0.1)
        assert not report.holds
        assert [(v.l1, v.l2, v.l3) for v in report.violations] == [(1, 2, 3)]
        # 5000 sits inside [0.9 * 5000, 5002]
        assert report.violations[0].forbidden_low == pytest.approx(4500.0)
        assert report.violations[0].forbidden_high == 5002.0

    def test_rejects_small_gaps(self):
        with pytest.raises(ValueError):
            three_column(30, 30, 2000)
        with pytest.raises(ValueError):
            three_column(30, 2000, 30)


class TestColumnChain:
    @pytest.mark.parametrize(
        "n,k,t,expected",
        [(30, 2, 2000, 300), (3, 2, 2000, 3), (31, 2, 2000, 320)],
    )
    def test_predicted_counts(self, n, k, t, expected):
        built = column_chain(n, k, t)
        assert built.predicted_count == expected
        assert _recount(built) == expected

    def test_interval_values(self):
        built = column_chain(12, 3, 100)
        assert built.iv.t == (100.0, 200.0, 300.0)
        assert built.iv.alpha == 1.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            column_chain(2, 2, 2000)
        with pytest.raises(ValueError):
            column_chain(30, 2, 2)


class TestAugmentedChain:
    @pytest.mark.parametrize(
        "n,k,t,expected",
        [(30, 3, 2000, 351), (2, 2, 2000, 1), (40, 2, 2000, 474)],
    )
    def test_predicted_counts(self, n, k, t, expected):
        built = augmented_chain(n, k, t)
        assert built.predicted_count == expected
        assert _recount(built) == expected

    def test_matches_closed_form(self):
        # (n^2 / 2) (1 - 1/k) + 2n - 9 at n = 30, k = 3
        built = augmented_chain(30, 3, 2000)
        assert built.predicted_count == (30**2 // 2) * 2 // 3 + 2 * 30 - 9

    def test_interval_values_start_at_one(self):
        built = augmented_chain(12, 3, 50)
        assert built.iv.t == (1.0, 50.0, 100.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            augmented_chain(10, 1, 2000)
        with pytest.raises(ValueError):
            augmented_chain(1, 2, 2000)
        with pytest.raises(ValueError):
            augmented_chain(30, 3, 3)


class TestGeneratorInvariants:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: two_column(17, 2, 900, 0.3),
            lambda: three_column(23, 700, 900),
            lambda: column_chain(22, 3, 300),
            lambda: augmented_chain(26, 4, 400),
        ],
    )
    def test_separated_and_consistent(self, build):
        built = build()
        dist, separated = min_pairwise_distance(built.ps)
        assert separated and dist == 1.0
        assert count_pairs(built.ps, built.iv, "pruned").total == built.predicted_count

    # Small n, with columns shorter than some within-column distances, so the
    # max(0, n_mu - d) terms clip.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: two_column(2, 1, 1, 0.5),
            lambda: two_column(9, 4, 27, 0.4),
            lambda: two_column(31, 5, 1200, 0.1),
            lambda: three_column(3, 1, 1),
            lambda: three_column(11, 9, 14),
            lambda: column_chain(2, 1, 1),
            lambda: column_chain(13, 4, 6),
            lambda: augmented_chain(2, 2, 3),
            lambda: augmented_chain(5, 2, 5.5),
            lambda: augmented_chain(19, 3, 20),
        ],
    )
    def test_brute_equals_pruned_equals_predicted(self, build):
        built = build()
        brute = count_pairs(built.ps, built.iv, "brute").total
        assert brute == count_pairs(built.ps, built.iv, "pruned").total == built.predicted_count

    @pytest.mark.parametrize("within", [[], [1, 2]])
    def test_builder_rejects_a_wrong_prediction(self, within):
        from neardist.constructions import _column_output

        # Two columns of 10 at gap 500 with intervals at 1 and 500: the count is
        # 100 cross pairs plus 9 per column at vertical distance 1, so within=[1].
        predicted = 100 + sum(max(0, 10 - d) for d in within) * 2
        message = f"two-column self-check failed: predicted {predicted}, counted 118"
        with pytest.raises(RuntimeError, match=message):
            _column_output("two-column", {}, [0.0, 500.0], [10, 10], [1.0, 500.0], 0.1, within)
        assert _column_output(
            "two-column", {}, [0.0, 500.0], [10, 10], [1.0, 500.0], 0.1, [1]
        ).predicted_count == 118

    @pytest.mark.parametrize("n,parts", [(30, 3), (31, 3), (32, 3), (7, 4), (9, 2)])
    def test_balanced_split_sizes(self, n, parts):
        from neardist.constructions import _balanced_split

        sizes = _balanced_split(n, parts)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestRandomSeparated:
    def test_single_point(self):
        ps = random_separated(1, 2.0, 0)
        assert ps.n == 1

    def test_separation_at_spec_box(self):
        ps = random_separated(100, 40.0, 7)
        dist = oracle_min_distance([tuple(p) for p in ps.coords])
        assert dist >= 1.0

    def test_deterministic(self):
        a = random_separated(100, 40.0, 7)
        b = random_separated(100, 40.0, 7)
        assert (a.coords == b.coords).all()

    def test_different_seeds_differ(self):
        a = random_separated(50, 20.0, 1)
        b = random_separated(50, 20.0, 2)
        assert not (a.coords == b.coords).all()

    def test_rejects_small_box(self):
        with pytest.raises(ValueError):
            random_separated(100, 19.0, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            random_separated(4, 4.0, -1)

    @given(n=st.integers(1, 150), seed=st.integers(0, 1000), slack=st.floats(1.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_always_separated(self, n, seed, slack):
        ps = random_separated(n, 2.0 * math.sqrt(n) * slack, seed)
        _, separated = min_pairwise_distance(ps)
        assert separated
