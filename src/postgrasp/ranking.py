"""Normalization, Pareto-front extraction and conflict detection over a set
of grasp scorecards.

Sense convention: manipulability is maximized, torque effort and effective
mass are minimized.  Internally everything is mapped to minimization.
Tie-breaking is always by ascending position in the input grasp list so
reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import GraspScorecard

_METRIC_ATTRS = {"tov": "h_tov", "tme": "h_tme", "tem": "h_tem"}


def _feasible(scorecards) -> list[GraspScorecard]:
    return [sc for sc in scorecards if sc.feasible]


def _scalar_table(cards: list[GraspScorecard]) -> dict[str, np.ndarray]:
    table = {}
    for metric, attr in _METRIC_ATTRS.items():
        vals = np.array([getattr(sc, attr) for sc in cards], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite {metric} scalar among feasible grasps")
        table[metric] = vals
    return table


@dataclass(frozen=True, eq=False)
class NormalizedScores:
    """Per-grasp objectives divided by their maximum over feasible grasps."""

    grasp_ids: tuple[str, ...]
    tov: np.ndarray
    tme: np.ndarray
    tem: np.ndarray
    maxima: dict


def normalize(scorecards) -> NormalizedScores:
    """Divide each objective by its maximum over the feasible grasps.

    Infeasible grasps are excluded so an unreachable candidate cannot
    distort the scale; the per-objective maximum normalizes to exactly 1.
    """
    cards = _feasible(scorecards)
    if not cards:
        raise ValueError("no feasible grasps to normalize")
    table = _scalar_table(cards)
    norm = {}
    maxima = {}
    for metric, vals in table.items():
        top = float(vals.max())
        maxima[metric] = top
        # all-zero column: every grasp is equal, define the ratio as 1
        norm[metric] = vals / top if top > 0.0 else np.ones_like(vals)
    return NormalizedScores(
        grasp_ids=tuple(sc.grasp_id for sc in cards),
        tov=norm["tov"],
        tme=norm["tme"],
        tem=norm["tem"],
        maxima=maxima,
    )


def pareto_front(scorecards) -> list[str]:
    """Ids of the non-dominated feasible grasps, in input order.

    A grasp is dominated when another is at least as good in every
    objective and strictly better in at least one; exact ties are kept.
    """
    cards = _feasible(scorecards)
    if not cards:
        raise ValueError("no feasible grasps")
    table = _scalar_table(cards)
    vals = np.column_stack([-table["tov"], table["tme"], table["tem"]])
    weak = np.all(vals[:, None, :] <= vals[None, :, :], axis=-1)
    strict = np.any(vals[:, None, :] < vals[None, :, :], axis=-1)
    dominated = np.any(weak & strict, axis=0)
    return [sc.grasp_id for sc, dom in zip(cards, dominated) if not dom]


def detect_conflict(scorecards) -> tuple[bool, dict[str, str]]:
    """Whether the three per-objective best grasps disagree.

    Ties resolve to the lowest grasp index.  Returns the conflict flag and
    the per-objective argbest table.
    """
    cards = _feasible(scorecards)
    if len(cards) < 2:
        raise ValueError("conflict detection needs at least two feasible grasps")
    table = _scalar_table(cards)
    argbest = {
        "tov": cards[int(np.argmax(table["tov"]))].grasp_id,
        "tme": cards[int(np.argmin(table["tme"]))].grasp_id,
        "tem": cards[int(np.argmin(table["tem"]))].grasp_id,
    }
    conflict = len(set(argbest.values())) > 1
    return conflict, argbest


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
    """Per-objective argbest ids, the Pareto set, the conflict flag and an
    optional scalarized ordering."""

    argbest: dict
    pareto: tuple[str, ...]
    conflict: bool
    weights: tuple | None = None
    scalarized: tuple | None = None


def build_report(scorecards, weights=None) -> RankingReport:
    """Assemble the decision-support summary for a completed grasp set."""
    cards = _feasible(scorecards)
    if not cards:
        raise ValueError("no feasible grasps")
    if len(cards) == 1:
        only = cards[0].grasp_id
        argbest = {"tov": only, "tme": only, "tem": only}
        conflict = False
    else:
        conflict, argbest = detect_conflict(scorecards)
    pareto = tuple(pareto_front(scorecards))
    scalarized = None
    wtuple = None
    if weights is not None:
        scalarized = tuple(scalarize(normalize(scorecards), weights))
        wtuple = tuple(float(w) for w in weights)
    return RankingReport(
        argbest=argbest,
        pareto=pareto,
        conflict=conflict,
        weights=wtuple,
        scalarized=scalarized,
    )
