import tracemalloc

import numpy as np
import pytest

from postgrasp import ranking
from postgrasp import (
    GraspScorecard,
    build_report,
    normalize,
    scalarize,
)

from oracles import brute_force_pareto


def card(gid, h_tov, h_tme, h_tem, feasible=True):
    return GraspScorecard(
        grasp_id=gid, feasible=feasible, h_tov=h_tov, h_tme=h_tme, h_tem=h_tem
    )


def random_cards(rng, n=10):
    return [
        card(f"g{i:02d}", rng.uniform(0.1, 2.0), rng.uniform(1.0, 100.0), rng.uniform(0.5, 5.0))
        for i in range(n)
    ]


class TestNormalize:
    def test_single_grasp_all_ones(self):
        scores = normalize([card("g1", 0.7, 12.0, 3.0)])
        assert scores.tov[0] == 1.0 and scores.tme[0] == 1.0 and scores.tem[0] == 1.0

    def test_simple_ratio(self):
        scores = normalize([card("a", 2.0, 2.0, 2.0), card("b", 4.0, 4.0, 4.0)])
        assert np.array_equal(scores.tov, np.array([0.5, 1.0]))
        assert np.array_equal(scores.tme, np.array([0.5, 1.0]))

    def test_maximum_is_exactly_one(self, rng):
        scores = normalize(random_cards(rng))
        assert scores.tov.max() == 1.0
        assert scores.tme.max() == 1.0
        assert scores.tem.max() == 1.0

    def test_preserves_ordering(self, rng):
        cards = random_cards(rng)
        scores = normalize(cards)
        raw = np.array([c.h_tov for c in cards])
        assert np.array_equal(np.argsort(raw), np.argsort(scores.tov))

    def test_infeasible_excluded(self):
        cards = [card("a", 1.0, 10.0, 2.0), card("b", 9.9, 99.0, 9.9, feasible=False)]
        scores = normalize(cards)
        assert scores.grasp_ids == ("a",)
        assert scores.tov[0] == 1.0

    def test_no_feasible_rejected(self):
        with pytest.raises(ValueError):
            normalize([card("a", 1.0, 1.0, 1.0, feasible=False)])


class TestParetoFront:
    def test_dominant_grasp_singleton(self):
        cards = [
            card("best", 2.0, 1.0, 1.0),
            card("mid", 1.5, 2.0, 2.0),
            card("worst", 1.0, 3.0, 3.0),
        ]
        assert build_report(cards).pareto == ("best",)

    def test_two_specialists_both_on_front(self):
        cards = [card("a", 2.0, 5.0, 1.0), card("b", 1.0, 1.0, 5.0)]
        assert build_report(cards).pareto == ("a", "b")

    def test_exact_ties_kept(self):
        cards = [card("a", 1.0, 2.0, 3.0), card("b", 1.0, 2.0, 3.0)]
        assert build_report(cards).pareto == ("a", "b")

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(300):
            cards = random_cards(rng, n=10)
            points = [(c.h_tov, c.h_tme, c.h_tem) for c in cards]
            expected = brute_force_pareto(points, ("max", "min", "min"))
            front = set(build_report(cards).pareto)
            got = set(i for i, c in enumerate(cards) if c.grasp_id in front)
            assert got == expected

    @pytest.mark.parametrize("k, block", [(40, 7), (300, 256)])
    def test_blocks_match_brute_force_oracle_with_ties(self, rng, monkeypatch, k, block):
        # small integer scalars repeat, so exact ties and duplicate points
        # straddle the blocks of candidate dominators
        monkeypatch.setattr(ranking, "_FRONT_BLOCK", block)
        for _ in range(20 if k < 100 else 2):
            points = rng.integers(1, 6, size=(k, 3)).astype(float)
            cards = [card(f"g{i:03d}", *row) for i, row in enumerate(points.tolist())]
            expected = brute_force_pareto(points, ("max", "min", "min"))
            assert build_report(cards).pareto == tuple(cards[i].grasp_id for i in sorted(expected))

    def test_front_memory_bounded(self, rng):
        # 4,000 feasible grasps: the comparisons take O(k * block) memory;
        # all k x k pairs at once peaked at 76.7 MiB
        cards = [card(f"g{i}", *row) for i, row in enumerate(rng.uniform(0.1, 2.0, size=(4000, 3)).tolist())]
        tracemalloc.start()
        try:
            build_report(cards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_never_empty(self, rng):
        for _ in range(50):
            assert len(build_report(random_cards(rng, n=5)).pareto) >= 1


class TestDetectConflict:
    def test_dominant_grasp_no_conflict(self):
        cards = [card("best", 2.0, 1.0, 1.0), card("other", 1.0, 2.0, 2.0)]
        report = build_report(cards)
        assert not report.conflict
        assert report.argbest == {"tov": "best", "tme": "best", "tem": "best"}

    def test_split_argbest_is_conflict(self):
        cards = [
            card("g1", 2.0, 5.0, 1.0),
            card("g2", 1.0, 1.0, 5.0),
        ]
        report = build_report(cards)
        assert report.conflict
        assert report.argbest == {"tov": "g1", "tme": "g2", "tem": "g1"}

    def test_exact_ties_resolve_low_index(self):
        cards = [card("a", 1.0, 1.0, 1.0), card("b", 1.0, 1.0, 1.0)]
        report = build_report(cards)
        assert not report.conflict
        assert report.argbest == {"tov": "a", "tme": "a", "tem": "a"}


class TestScalarize:
    def test_pure_tov_weight_sorts_descending(self, rng):
        cards = random_cards(rng)
        scores = normalize(cards)
        order = [gid for gid, _ in scalarize(scores, (1.0, 0.0, 0.0))]
        raw = {c.grasp_id: c.h_tov for c in cards}
        assert order == sorted(order, key=lambda g: -raw[g])

    def test_dominant_grasp_wins_equal_weights(self):
        cards = [card("best", 2.0, 1.0, 1.0), card("other", 1.0, 2.0, 2.0)]
        order = scalarize(normalize(cards), (1 / 3, 1 / 3, 1 / 3))
        assert order[0][0] == "best"

    def test_winner_is_pareto_optimal(self, rng):
        # strictly positive weights can only select a non-dominated grasp
        for _ in range(1000):
            cards = random_cards(rng, n=8)
            winner = scalarize(normalize(cards), (0.4, 0.35, 0.25))[0][0]
            assert winner in build_report(cards).pareto

    def test_invalid_weights_rejected(self, rng):
        scores = normalize(random_cards(rng, n=3))
        with pytest.raises(ValueError):
            scalarize(scores, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            scalarize(scores, (-0.2, 0.6, 0.6))
        with pytest.raises(ValueError):
            scalarize(scores, (1.0, 0.0))


class TestBuildReport:
    def test_argbest_members_of_front(self, rng):
        for _ in range(100):
            report = build_report(random_cards(rng, n=7))
            for gid in report.argbest.values():
                assert gid in report.pareto

    def test_single_feasible_grasp(self):
        report = build_report([card("only", 1.0, 1.0, 1.0)])
        assert report.pareto == ("only",)
        assert not report.conflict
        assert set(report.argbest.values()) == {"only"}

    def test_conflict_false_when_front_singleton(self, rng):
        for _ in range(100):
            cards = random_cards(rng, n=6)
            report = build_report(cards)
            if len(report.pareto) == 1:
                assert not report.conflict

    def test_weights_produce_scalarized_order(self, rng):
        report = build_report(random_cards(rng, n=5), weights=(0.5, 0.25, 0.25))
        assert report.scalarized is not None
        assert len(report.scalarized) == 5

    def test_argmax_names_the_normalization_maximum(self, rng):
        for _ in range(50):
            cards = random_cards(rng, n=6) + [card("off", 9.0, 900.0, 9.0, feasible=False)]
            report = build_report(cards)
            for name, gid in report.argmax.items():
                sc = next(c for c in cards if c.grasp_id == gid)
                assert getattr(report.scores, name)[report.scores.grasp_ids.index(gid)] == 1.0
                assert sc.feasible

    def test_argmax_ties_go_to_the_first(self):
        report = build_report([card("a", 1.0, 2.0, 0.0), card("b", 1.0, 2.0, 0.0), card("c", 0.5, 1.0, 0.0)])
        assert report.argmax == {"tov": "a", "tme": "a", "tem": "a"}
