import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily,
    MoveCounts,
    PointSet,
    SearchConfig,
    anneal,
    count_pairs,
    local_opt_check,
    min_pairwise_distance,
    search,
    two_column,
)
from neardist.search import _placement_hits

from _oracles import oracle_label

IV50 = IntervalFamily([50.0], 1.0)
# Five labels, the first two overlapping ([3, 4] and [3.5, 4.5]).
IV_K5 = IntervalFamily([3.0, 3.5, 13.0, 45.0, 150.0], 1.0)
LIMIT = 2.0**510


@st.composite
def placements(draw):
    """(iv, xs, ys, idx, x, y): a proposed position (x, y) for point idx.

    Partners sit on interval ends (t, t + alpha, exact at integer positions),
    at distance 1 or one ulp below, or anywhere; idx's own old position may
    lie within 1 of (x, y), which must not block the move.
    """
    iv = draw(st.sampled_from([IV50, IV_K5, IntervalFamily([2.0, 2.5], 0.5)]))
    coordinate = st.one_of(
        st.integers(-200, 200).map(float),
        st.sampled_from([LIMIT, -LIMIT, math.nextafter(LIMIT, math.inf),
                         math.nextafter(-LIMIT, -math.inf)]),
    )
    x, y = draw(coordinate), draw(coordinate)
    ends = [v for t in iv.t for v in (t, t + iv.alpha)] + [1.0, math.nextafter(1.0, 0.0)]
    offset = st.one_of(
        st.tuples(st.sampled_from(ends), st.just(0.0)),
        st.tuples(st.just(0.0), st.sampled_from(ends).map(lambda d: -d)),
        st.tuples(st.floats(-160.0, 160.0), st.floats(-160.0, 160.0)),
    )
    partners = [(x + dx, y + dy) for dx, dy in draw(st.lists(offset, max_size=12))]
    idx = draw(st.integers(0, len(partners)))
    own = draw(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)))
    partners.insert(idx, (x + own[0], y + own[1]))
    xs, ys = (list(c) for c in zip(*partners))
    return iv, xs, ys, idx, x, y


class TestSearchConfig:
    def test_resolved_defaults(self):
        cfg = SearchConfig(n=8, iv=IV50, iterations=1000, seed=0).resolved()
        assert cfg.initial_temperature == 2.0
        assert cfg.cooling_factor == 1 - 10 / 1000
        assert cfg.jitter_sigma == 0.5
        assert cfg.teleport_probability == 0.1
        assert cfg.restarts == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=0, iv=IV50, iterations=10, seed=0)
        with pytest.raises(ValueError):
            SearchConfig(n=4, iv=IV50, iterations=-1, seed=0)
        with pytest.raises(ValueError):
            SearchConfig(n=4, iv=IV50, iterations=10, seed=0, cooling_factor=1.0)
        with pytest.raises(ValueError):
            SearchConfig(n=4, iv=IV50, iterations=10, seed=0, teleport_probability=1.5)
        with pytest.raises(ValueError):
            SearchConfig(n=4, iv=IV50, iterations=10, seed=0, jitter_sigma=0.0)
        with pytest.raises(ValueError):
            SearchConfig(n=4, iv=IV50, iterations=10, seed=0, restarts=0)
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(n=4, iv=IV50, iterations=10, seed=-1)

    def test_default_cooling_rounding_to_one_names_iterations(self):
        # 1 - 10 / iterations rounds to 1.0 from 180143985094819824 iterations
        # on; the error names iterations, which the caller set, not the
        # cooling factor, which it did not.
        SearchConfig(n=4, iv=IV50, iterations=180143985094819823, seed=0).resolved()
        cfg = SearchConfig(n=4, iv=IV50, iterations=180143985094819824, seed=0)
        message = r"^iterations=180143985094819824 .*set cooling_factor"
        with pytest.raises(ValueError, match=message):
            cfg.resolved()
        assert SearchConfig(n=4, iv=IV50, iterations=10**18, seed=0,
                            cooling_factor=0.5).resolved().cooling_factor == 0.5

    @pytest.mark.parametrize(
        "field, value",
        [("n", True), ("iterations", 10.5), ("seed", "x"), ("restarts", None),
         ("jitter_sigma", "x"), ("cooling_factor", float("nan")),
         ("initial_temperature", float("inf")), ("teleport_probability", False)],
    )
    def test_field_types(self, field, value):
        fields = {"n": 4, "iv": IV50, "iterations": 10, "seed": 0} | {field: value}
        with pytest.raises(ValueError, match=field):
            SearchConfig(**fields)


class TestPlacementHits:
    @given(case=placements())
    @settings(max_examples=300, deadline=None)
    def test_bits_match_oracle(self, case):
        iv, xs, ys, idx, x, y = case
        d2 = {j: (xs[j] - x) * (xs[j] - x) + (ys[j] - y) * (ys[j] - y)
              for j in range(len(xs)) if j != idx}
        lo2, hi2 = iv.sq_bounds
        got = _placement_hits(xs, ys, idx, x, y, list(zip(lo2.tolist(), hi2.tolist())))
        if max(abs(x), abs(y)) > LIMIT or any(v < 1.0 for v in d2.values()):
            assert got is None
        else:
            expected = {j for j, v in d2.items() if oracle_label(v, iv.t, iv.alpha) is not None}
            assert {j for j in range(len(xs)) if got >> j & 1} == expected

    def test_separation_is_closed_at_one(self):
        bounds = [(1.0, 4.0)]
        assert _placement_hits([0.0, 1.0], [0.0, 0.0], 0, 0.0, 0.0, bounds) == 0b10
        below = math.nextafter(1.0, 0.0)
        assert _placement_hits([0.0, below], [0.0, 0.0], 0, 0.0, 0.0, bounds) is None
        beyond = math.nextafter(LIMIT, math.inf)
        assert _placement_hits([0.0], [0.0], 0, beyond, 0.0, bounds) is None
        assert _placement_hits([0.0], [0.0], 0, LIMIT, 0.0, bounds) == 0


class TestAnneal:
    def test_zero_iterations_returns_initial(self):
        initial = PointSet([(0.0, 0.0), (0.0, 50.5), (10.0, 0.0), (10.0, 50.5)])
        cfg = SearchConfig(n=4, iv=IV50, iterations=0, seed=9)
        result = anneal(cfg, initial)
        assert (result.best_ps.coords == initial.coords).all()
        assert result.best_count == count_pairs(initial, IV50).total == 2
        assert result.accepted_moves == 0 and result.rejected_moves == 0
        assert result.trajectory == ((0, 2),)

    def test_deterministic(self):
        cfg = SearchConfig(n=8, iv=IV50, iterations=1500, seed=3)
        a = anneal(cfg)
        b = anneal(cfg)
        assert a.best_count == b.best_count
        assert (a.best_ps.coords == b.best_ps.coords).all()
        assert a.trajectory == b.trajectory
        assert a.accepted_moves == b.accepted_moves

    def test_seeds_change_outcomes(self):
        r1 = anneal(SearchConfig(n=8, iv=IV50, iterations=800, seed=1))
        r2 = anneal(SearchConfig(n=8, iv=IV50, iterations=800, seed=2))
        assert not (r1.best_ps.coords == r2.best_ps.coords).all()

    def test_never_loses_construction_start(self):
        built = two_column(12, 2, 500, 0.1)
        cfg = SearchConfig(n=12, iv=built.iv, iterations=2500, seed=5)
        result = anneal(cfg, built.ps)
        assert result.best_count >= built.predicted_count == 46

    def test_best_matches_independent_recount(self):
        cfg = SearchConfig(n=10, iv=IntervalFamily([4.0], 1.0), iterations=3000, seed=2)
        result = anneal(cfg)
        recount = count_pairs(result.best_ps, cfg.iv, "brute").total
        assert result.best_count == recount

    def test_best_state_is_separated(self):
        for seed in (0, 1, 2):
            result = anneal(SearchConfig(n=9, iv=IntervalFamily([3.0], 1.0),
                                         iterations=2000, seed=seed))
            _, separated = min_pairwise_distance(result.best_ps)
            assert separated

    def test_trajectory_monotone_best(self):
        cfg = SearchConfig(n=8, iv=IV50, iterations=4000, seed=7)
        result = anneal(cfg)
        best = -1
        for _, count in result.trajectory:
            best = max(best, count)
        assert best == result.best_count or result.best_count >= best

    def test_restarts_track_best_across(self):
        one = anneal(SearchConfig(n=8, iv=IV50, iterations=1200, seed=4, restarts=1))
        three = anneal(SearchConfig(n=8, iv=IV50, iterations=1200, seed=4, restarts=3))
        assert three.best_count >= one.best_count

    def test_restarts_deterministic(self):
        cfg = SearchConfig(n=6, iv=IV50, iterations=700, seed=4, restarts=3)
        a = anneal(cfg)
        b = anneal(cfg)
        assert a.best_count == b.best_count
        assert (a.best_ps.coords == b.best_ps.coords).all()
        assert a.trajectory == b.trajectory

    def test_rejects_mismatched_initial(self):
        cfg = SearchConfig(n=5, iv=IV50, iterations=10, seed=0)
        with pytest.raises(ValueError):
            anneal(cfg, PointSet([(0, 0), (5, 0)]))

    def test_rejects_unseparated_initial(self):
        cfg = SearchConfig(n=2, iv=IV50, iterations=10, seed=0)
        with pytest.raises(ValueError):
            anneal(cfg, PointSet([(0, 0), (0.5, 0)]))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_accepted_plus_rejected_equals_iterations(self, seed):
        cfg = SearchConfig(n=6, iv=IntervalFamily([5.0], 1.0), iterations=600, seed=seed)
        result = anneal(cfg)
        assert result.accepted_moves + result.rejected_moves == 600

    @pytest.mark.parametrize("iv", [IV_K5, IV50], ids=["k5", "k1"])
    @pytest.mark.parametrize("n", [1, 2, 8, 40, 70])
    def test_hit_rows_never_go_stale(self, monkeypatch, n, iv):
        # Recount after every iteration: a bitmask row left stale by an
        # accepted move raises "incremental count drifted". At n = 70 a row is
        # wider than one 64-bit word.
        monkeypatch.setattr(search, "_RECOUNT_PERIOD", 1)
        cfg = SearchConfig(n=n, iv=iv, iterations=3000, seed=n, jitter_sigma=2.0,
                           teleport_probability=0.5)
        result = anneal(cfg)
        assert result.accepted_moves > 0
        assert result.best_count == count_pairs(result.best_ps, iv, "brute").total

    @pytest.mark.parametrize("teleport_probability", [0.0, 0.3, 1.0])
    def test_move_counts_add_up(self, teleport_probability):
        cfg = SearchConfig(n=8, iv=IV_K5, iterations=1000, seed=5, restarts=2,
                           jitter_sigma=2.0, teleport_probability=teleport_probability)
        result = anneal(cfg)
        jitter, teleport = result.moves["jitter"], result.moves["teleport"]
        for m in (jitter, teleport):
            assert m.proposed == m.accepted + m.blocked + m.declined
        assert jitter.proposed + teleport.proposed == 1000 * 2
        assert jitter.accepted + teleport.accepted == result.accepted_moves
        assert (jitter.blocked + jitter.declined + teleport.blocked + teleport.declined
                == result.rejected_moves)
        assert (teleport.proposed == 0) == (teleport_probability == 0.0)
        assert (jitter.proposed == 0) == (teleport_probability == 1.0)
        resolved = cfg.resolved()
        assert result.final_temperature == pytest.approx(
            resolved.initial_temperature * resolved.cooling_factor**1000, rel=1e-9)

    def test_move_counts_see_blocked_moves(self):
        # Jitters of sigma 2 between points 1 apart often break separation.
        initial = PointSet([(float(i), 0.0) for i in range(6)])
        cfg = SearchConfig(n=6, iv=IntervalFamily([2.0], 1.0), iterations=500, seed=0,
                           jitter_sigma=2.0, teleport_probability=0.0)
        result = anneal(cfg, initial)
        assert result.moves["jitter"].blocked > 0
        assert result.moves["teleport"] == MoveCounts(0, 0, 0, 0)

    def test_teleports_stay_within_coordinate_limit(self):
        # t is within the 2**511 limit, but each teleport box reaches 2 * t past
        # the points, so proposals beyond 2**510 must count as rejected moves.
        cfg = SearchConfig(n=3, iv=IntervalFamily([2e153], 1.0), iterations=16384, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = anneal(cfg)
        assert np.all(np.abs(result.best_ps.coords) <= 2.0**510)
        assert result.accepted_moves + result.rejected_moves == 16384


class TestLocalOptCheck:
    def test_single_point_is_locally_optimal(self):
        report = local_opt_check(PointSet([(0.0, 0.0)]), IV50, 1.0, 20, 0)
        assert report.locally_optimal

    def test_pair_inside_interval_stays_optimal(self):
        iv = IntervalFamily([2.0], 1.0)
        ps = PointSet([(0.0, 0.0), (2.5, 0.0)])  # mid-interval distance
        report = local_opt_check(ps, iv, 0.2, 60, 1)
        assert report.locally_optimal

    def test_pair_below_interval_improvable(self):
        iv = IntervalFamily([2.0], 1.0)
        ps = PointSet([(0.0, 0.0), (1.6, 0.0)])  # distance 0.4 below the interval
        report = local_opt_check(ps, iv, 1.0, 200, 1)
        assert not report.locally_optimal
        move = report.moves[0]
        coords = ps.coords.copy()
        coords[move.point] = (move.new_x, move.new_y)
        assert count_pairs(PointSet(coords), iv).total == 1
        assert move.count_gain == 1

    def test_deterministic(self):
        iv = IntervalFamily([2.0], 1.0)
        ps = PointSet([(0.0, 0.0), (1.6, 0.0)])
        a = local_opt_check(ps, iv, 1.0, 50, 3)
        b = local_opt_check(ps, iv, 1.0, 50, 3)
        assert a == b

    def test_rejects_unseparated(self):
        with pytest.raises(ValueError):
            local_opt_check(PointSet([(0, 0), (0.2, 0)]), IV50, 1.0, 10, 0)

    def test_rejects_bad_params(self):
        ps = PointSet([(0, 0), (5, 0)])
        for radius in (0.0, float("nan"), float("inf"), True, "1", None):
            with pytest.raises(ValueError, match="probe_radius"):
                local_opt_check(ps, IV50, radius, 10, 0)
        with pytest.raises(ValueError):
            local_opt_check(ps, IV50, 1.0, 0, 0)
        for probes in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="probes_per_point"):
                local_opt_check(ps, IV50, 1.0, probes, 0)
        for seed in (False, 1.5, "0", -1):
            with pytest.raises(ValueError, match="seed"):
                local_opt_check(ps, IV50, 1.0, 10, seed)
