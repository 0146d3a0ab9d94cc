"""Rank-based classification metrics.

AUC is the Mann-Whitney statistic P(score_pos > score_neg) + 0.5 P(tie),
computed by rank summation; ROC curves are threshold sweeps whose trapezoidal
area equals that statistic exactly.  Operating points convert an ROC point
plus a prevalence and a false-negative:false-positive cost ratio into
likelihood ratios, post-test probabilities and expected cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: a subgroup with fewer positives than this carries a caution note
SUBGROUP_MIN_POSITIVES = 5


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    n = x.size
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    group_rank = starts + (counts + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, counts)
    return ranks


def _check_binary(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must be the same length")
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos + n_neg != labels.size:
        raise ValueError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    return scores, labels, n_pos, n_neg


def auc(scores, labels) -> float:
    """Probability that a positive outscores a negative, ties half-weighted."""
    scores, labels, n_pos, n_neg = _check_binary(scores, labels)
    ranks = _average_ranks(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class RocCurve:
    """ROC points from a descending threshold sweep, (0,0) through (1,1).

    ``thresholds[0]`` is +inf (the predict-nothing corner); point i predicts
    positive when score >= thresholds[i].
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    n_pos: int
    n_neg: int

    def area(self) -> float:
        """Trapezoidal area under (fpr, tpr), equal to auc(); needs no NumPy trapezoid helper."""
        return float(np.sum(np.diff(self.fpr) * (self.tpr[1:] + self.tpr[:-1])) / 2.0)


def roc_curve(scores, labels) -> RocCurve:
    scores, labels, n_pos, n_neg = _check_binary(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    last_of_group = np.empty(scores.size, dtype=bool)
    last_of_group[:-1] = sorted_scores[1:] != sorted_scores[:-1]
    last_of_group[-1] = True
    tp = np.cumsum(sorted_labels == 1)[last_of_group]
    fp = np.cumsum(sorted_labels == 0)[last_of_group]
    return RocCurve(
        thresholds=np.concatenate([[np.inf], sorted_scores[last_of_group]]),
        fpr=np.concatenate([[0.0], fp / n_neg]),
        tpr=np.concatenate([[0.0], tp / n_pos]),
        n_pos=n_pos,
        n_neg=n_neg,
    )


@dataclass
class OperatingPoint:
    threshold: float
    tpr: float
    fpr: float
    lr_pos: float
    lr_neg: float
    p_injury_given_pos: float
    p_injury_given_neg: float
    expected_cost: float
    cost_ratio: float
    prevalence: float


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        if num == 0.0:
            return float("nan")
        return float("inf")
    return num / den


def operating_metrics(tpr: float, fpr: float, prevalence: float,
                      cost_ratio: float = float("nan"),
                      threshold: float = float("nan")) -> OperatingPoint:
    """Derived quantities for a single (TPR, FPR) point at a given prevalence."""
    if not 0.0 < prevalence < 1.0:
        raise ValueError("prevalence must be in (0, 1)")
    p = prevalence
    lr_pos = _safe_ratio(tpr, fpr)
    lr_neg = _safe_ratio(1.0 - tpr, 1.0 - fpr)
    pos_mass = tpr * p + fpr * (1.0 - p)
    neg_mass = (1.0 - tpr) * p + (1.0 - fpr) * (1.0 - p)
    p_pos = tpr * p / pos_mass if pos_mass > 0 else float("nan")
    p_neg = (1.0 - tpr) * p / neg_mass if neg_mass > 0 else float("nan")
    cost = cost_ratio * p * (1.0 - tpr) + (1.0 - p) * fpr
    return OperatingPoint(threshold, tpr, fpr, lr_pos, lr_neg, p_pos, p_neg,
                          cost, cost_ratio, p)


def optimal_operating_point(curve: RocCurve, cost_fn_over_fp: float,
                            prevalence: float) -> OperatingPoint:
    """ROC point minimizing expected cost; cost ties resolve to lower FPR.

    Expected cost = cost_fn_over_fp * prevalence * (1 - TPR)
                    + (1 - prevalence) * FPR.
    """
    if cost_fn_over_fp <= 0:
        raise ValueError("cost ratio must be positive")
    if not 0.0 < prevalence < 1.0:
        raise ValueError("prevalence must be in (0, 1)")
    costs = (cost_fn_over_fp * prevalence * (1.0 - curve.tpr)
             + (1.0 - prevalence) * curve.fpr)
    best = int(np.argmin(costs))  # first minimum = lowest FPR among ties
    return operating_metrics(float(curve.tpr[best]), float(curve.fpr[best]),
                             prevalence, cost_ratio=cost_fn_over_fp,
                             threshold=float(curve.thresholds[best]))


@dataclass
class SubgroupResult:
    group: object
    n: int
    n_pos: int
    n_neg: int
    auc: float | None
    note: str = ""


def subgroup_auc(scores, labels, group) -> dict:
    """AUC computed independently within each value of a boolean group flag.

    Groups missing a class are reported with ``auc=None`` and a note; small
    positive counts carry a caution note rather than being suppressed.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    group = np.asarray(group)
    results: dict = {}
    for value in (True, False):
        mask = group == value
        n = int(mask.sum())
        n_pos = int(np.count_nonzero(labels[mask] == 1))
        n_neg = n - n_pos
        if n == 0:
            results[value] = SubgroupResult(value, 0, 0, 0, None, "empty group")
            continue
        if n_pos == 0 or n_neg == 0:
            results[value] = SubgroupResult(value, n, n_pos, n_neg, None,
                                            "insufficient data")
            continue
        note = f"only {n_pos} positives" if n_pos < SUBGROUP_MIN_POSITIVES else ""
        results[value] = SubgroupResult(value, n, n_pos, n_neg,
                                        auc(scores[mask], labels[mask]), note)
    return results


def rank_biserial(sample_a, sample_b) -> float:
    """Effect size 2*AUC - 1 for P(a > b) with ties half-weighted."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    scores = np.concatenate([a, b])
    labels = np.concatenate([np.ones(a.size, dtype=int), np.zeros(b.size, dtype=int)])
    return 2.0 * auc(scores, labels) - 1.0


def binomial_sign_test_p(successes: int, trials: int) -> float:
    """One-sided sign test: P(X >= successes) for X ~ Binomial(trials, 1/2)."""
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    total = sum(math.comb(trials, k) for k in range(successes, trials + 1))
    return total / 2.0 ** trials
