"""Normalization, Pareto-front extraction and conflict detection over a set
of grasp scorecards.

Tie-breaking is always by ascending position in the input grasp list so
reports are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .metrics import OBJECTIVES, GraspScorecard

_SENSES = np.array(list(OBJECTIVES.values()))


def _feasible_table(scorecards) -> tuple[list[GraspScorecard], np.ndarray]:
    """The feasible scorecards, in input order, and their (k, objectives)
    scalar table; raises ValueError when there is none."""
    cards = [sc for sc in scorecards if sc.feasible]
    if not cards:
        raise ValueError("no feasible grasps")
    table = np.array([[getattr(sc, f"h_{name}") for name in OBJECTIVES] for sc in cards], dtype=float)
    for name, column in zip(OBJECTIVES, table.T):
        if not np.all(np.isfinite(column)):
            raise ValueError(f"non-finite {name} scalar among feasible grasps")
    return cards, table


@dataclass(frozen=True, eq=False)
class NormalizedScores:
    """Per-grasp objectives divided by their maximum over feasible grasps."""

    grasp_ids: tuple[str, ...]
    tov: np.ndarray
    tme: np.ndarray
    tem: np.ndarray


def _normalized(cards, table) -> NormalizedScores:
    top = table.max(axis=0)
    # all-zero column: every grasp is equal, define the ratio as 1
    norm = np.divide(table, top, out=np.ones_like(table), where=top > 0.0)
    return NormalizedScores(tuple(sc.grasp_id for sc in cards), **dict(zip(OBJECTIVES, norm.T)))


def _front(cards, signed) -> list[str]:
    """Ids of the non-dominated grasps, in input order: a grasp is
    dominated when another is at least as good in every objective and
    strictly better in one, so exact ties are kept.

    One sort and one sweep (Kung, Luccio & Preparata, J. ACM 1975): a
    row's dominators all sort before it, so it is dominated exactly when an
    earlier, different row is as good in the last two objectives, which a
    staircase of their minima answers; exact duplicates share one verdict."""
    order = np.lexsort(signed.T[::-1])
    on_front = np.zeros(len(cards), dtype=bool)
    seconds, neg_thirds = [], []  # the staircase; -third ascends with second
    previous = None
    for i, row in zip(order.tolist(), signed[order].tolist()):
        if row != previous:
            _, second, third = previous = row
            at = bisect_right(seconds, second)
            kept = at == 0 or neg_thirds[at - 1] < -third
            if kept:  # it replaces the steps it covers
                at = bisect_left(seconds, second)
                end = bisect_right(neg_thirds, -third, at)
                seconds[at:end] = [second]
                neg_thirds[at:end] = [-third]
        on_front[i] = kept
    return [sc.grasp_id for sc, keep in zip(cards, on_front) if keep]


def _argbest(cards, signed) -> dict[str, str]:
    return {name: cards[i].grasp_id for name, i in zip(OBJECTIVES, np.argmin(signed, axis=0).tolist())}


def _argmax(cards, table) -> dict[str, str]:
    return {name: cards[i].grasp_id for name, i in zip(OBJECTIVES, np.argmax(table, axis=0).tolist())}


def normalize(scorecards) -> NormalizedScores:
    """Divide each objective by its maximum over the feasible grasps.

    Infeasible grasps are excluded so an unreachable candidate cannot
    distort the scale; the per-objective maximum normalizes to exactly 1.
    """
    return _normalized(*_feasible_table(scorecards))


def check_weights(weights) -> np.ndarray:
    """Scalarization weights as an array; raises ValueError unless there are
    three, finite, non-negative and summing to 1."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != 3:
        raise ValueError("need exactly three weights")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must be finite, non-negative and sum to 1, got {w.tolist()}")
    return w


def scalarize(scores: NormalizedScores, weights) -> list[tuple[str, float]]:
    """Affine combination w1*(1 - Htov) + w2*Htme + w3*Htem, minimized.

    Returns (grasp_id, score) sorted best first, stable in grasp order on
    ties.  Offered as a baseline only; a singleton Pareto front is the
    robust notion of agreement.
    """
    w = check_weights(weights)
    values = w[0] * (1.0 - scores.tov) + w[1] * scores.tme + w[2] * scores.tem
    order = np.argsort(values, kind="stable")
    return [(scores.grasp_ids[i], float(values[i])) for i in order]


@dataclass(frozen=True, eq=False)
class RankingReport:
    """Per-objective argbest ids (ties go to the first grasp), the Pareto
    set, the conflict flag (whether the argbest ids disagree), the
    normalized scores, the per-objective id of the grasp whose raw scalar
    is the normalization maximum (``argmax``; ties go to the first) and an
    optional scalarized ordering."""

    argbest: dict
    pareto: tuple[str, ...]
    conflict: bool
    scores: NormalizedScores
    argmax: dict
    weights: tuple | None = None
    scalarized: tuple | None = None


def build_report(scorecards, weights=None) -> RankingReport:
    """Assemble the decision-support summary for a completed grasp set; two
    scorecards (feasible or not) sharing a grasp id raise ValueError naming
    it, as the report and every writer key by id."""
    shared = [gid for gid, n in Counter(sc.grasp_id for sc in scorecards).items() if n > 1]
    if shared:
        raise ValueError(f"grasp id {shared[0]!r} names two scorecards")
    cards, table = _feasible_table(scorecards)
    signed = table * _SENSES
    argbest = _argbest(cards, signed)
    scores = _normalized(cards, table)
    return RankingReport(
        argbest=argbest,
        pareto=tuple(_front(cards, signed)),
        conflict=len(set(argbest.values())) > 1,
        scores=scores,
        argmax=_argmax(cards, table),
        scalarized=None if weights is None else tuple(scalarize(scores, weights)),
        weights=None if weights is None else tuple(float(w) for w in weights),
    )
