"""Imputation, standardization, PCA with a variance cut-off, and the two
class-imbalance sampling schemes (random under-sampling and SMOTE).

Every fit/transform pair is leakage-free: parameters, donor pools, loadings
and neighbours come from the data passed to fit, never from data passed to
transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

PMM_DONORS = 5
SMOTE_NEIGHBORS = 5
PCA_THRESHOLD = 0.95
_ZERO_VAR = 1e-12


# ---------------------------------------------------------------------------
# Predictive mean matching


@dataclass
class PmmImputer:
    """Predictive-mean-matching imputer fitted on a training matrix.

    For each column, the observed values are regressed on the fully observed
    columns; a missing entry is replaced by the observed value of one of the
    `donors` rows whose predicted value is closest to the missing row's
    prediction, chosen uniformly at random.  Imputed values are therefore
    always members of the observed support of their column.

    A column's regression is solved the first time it is needed, from the
    copy of the fit matrix kept in ``train``: `fit` solves the columns that
    have a missing value in that matrix, `transform` solves any other column
    the first time a matrix has a gap there, and `to_dict` solves the rest,
    so a serialized imputer is complete.  A solve writes ``coefs[j]`` after
    both donor arrays, so a thread that finds ``coefs[j]`` finds the whole
    entry; two threads that solve the same column write equal arrays.  `fit`
    draws no random numbers, so one fitted imputer can serve any number of
    `transform` calls, from any number of threads.
    """

    n_columns: int
    complete_cols: np.ndarray
    col_means: np.ndarray
    coefs: dict[int, np.ndarray]
    donor_preds: dict[int, np.ndarray]
    donor_values: dict[int, np.ndarray]
    donors: int = PMM_DONORS
    #: the fit matrix; None for an imputer loaded with `from_dict`
    train: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def fit(cls, X, donors: int = PMM_DONORS, column_names=None) -> "PmmImputer":
        X = np.asarray(X, dtype=float)
        n, p = X.shape
        missing = np.isnan(X)

        def colname(j):
            return column_names[j] if column_names is not None else f"column {j}"

        for j in range(p):
            n_obs = n - int(missing[:, j].sum())
            if n_obs == 0:
                raise ValueError(f"{colname(j)} is entirely missing")
            if n_obs < 10:
                raise ValueError(f"{colname(j)} has fewer than 10 observed values")
        complete_cols = np.flatnonzero(~missing.any(axis=0))
        if complete_cols.size == 0:
            raise ValueError("predictive mean matching needs at least one fully observed column")

        imputer = cls(p, complete_cols, np.nanmean(X, axis=0), {}, {}, {}, donors,
                      X.copy())
        for j in np.flatnonzero(missing.any(axis=0)):
            imputer._solve(int(j))
        return imputer

    def _solve(self, j: int) -> None:
        """Regress column j on the complete columns; store its sorted donor pool."""
        X = self.train
        predictors = self.complete_cols[self.complete_cols != j]
        obs = ~np.isnan(X[:, j])
        A = np.column_stack([np.ones(int(obs.sum())), X[np.ix_(obs, predictors)]])
        target = X[obs, j]
        coef, *_ = np.linalg.lstsq(A, target, rcond=None)
        preds = A @ coef
        order = np.argsort(preds, kind="mergesort")
        self.donor_preds[j] = preds[order]
        self.donor_values[j] = target[order]
        self.coefs[j] = coef

    def transform(self, X, rng: np.random.Generator) -> np.ndarray:
        """Fill missing entries of X with donor values drawn from the fit data.

        Draws one ``rng.integers(k)`` per missing entry, column by column and
        down each column.
        """
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.n_columns:
            raise ValueError("column count differs from the fitted matrix")
        out = X.copy()
        missing = np.isnan(X)
        if not missing.any():
            return out
        # predictor block with train-mean fallback for any missing predictor
        base = np.where(missing, self.col_means, X)
        for j in np.flatnonzero(missing.any(axis=0)):
            j = int(j)
            if j not in self.coefs:
                self._solve(j)
            rows = np.flatnonzero(missing[:, j])
            predictors = self.complete_cols[self.complete_cols != j]
            A = np.column_stack([np.ones(rows.size), base[np.ix_(rows, predictors)]])
            out[rows, j] = self._draw_donors(j, A @ self.coefs[j], rng)
        return out

    def _draw_donors(self, j: int, preds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """For each prediction, one of the k pool rows nearest to it, at random.

        The k nearest lie among the 2k pool slots around the prediction's
        insertion point; ties go to the lower slot.  Slots outside the pool
        get a NaN distance, which the stable sort puts after every real
        distance, infinite ones included.
        """
        pool_preds = self.donor_preds[j]
        size = pool_preds.size
        k = min(self.donors, size)
        slots = np.searchsorted(pool_preds, preds)[:, None] + np.arange(-k, k)
        inside = (slots >= 0) & (slots < size)
        dist = np.where(inside,
                        np.abs(pool_preds[np.clip(slots, 0, size - 1)] - preds[:, None]),
                        np.nan)
        nearest = np.argsort(dist, axis=1, kind="mergesort")[:, :k]
        rows = np.arange(preds.size)
        # one call draws the same values, and leaves the same stream state,
        # as one rng.integers(k) call per row
        picked = slots[rows, nearest[rows, rng.integers(k, size=preds.size)]]
        return self.donor_values[j][picked]

    def to_dict(self) -> dict:
        """Every column's regression, solving those not yet solved."""
        for j in range(self.n_columns):
            if j not in self.coefs:
                self._solve(j)
        columns = range(self.n_columns)
        return {
            "n_columns": self.n_columns,
            "complete_cols": self.complete_cols.tolist(),
            "col_means": self.col_means.tolist(),
            "coefs": {str(j): self.coefs[j].tolist() for j in columns},
            "donor_preds": {str(j): self.donor_preds[j].tolist() for j in columns},
            "donor_values": {str(j): self.donor_values[j].tolist() for j in columns},
            "donors": self.donors,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PmmImputer":
        return cls(
            n_columns=int(data["n_columns"]),
            complete_cols=np.asarray(data["complete_cols"], dtype=int),
            col_means=np.asarray(data["col_means"], dtype=float),
            coefs={int(j): np.asarray(c, dtype=float) for j, c in data["coefs"].items()},
            donor_preds={int(j): np.asarray(v, dtype=float) for j, v in data["donor_preds"].items()},
            donor_values={int(j): np.asarray(v, dtype=float) for j, v in data["donor_values"].items()},
            donors=int(data["donors"]),
        )


def impute_session_values(sessions, rng: np.random.Generator,
                          donors: int = PMM_DONORS):
    """Fill missing raw session fields (rpe and the load variables) by PMM.

    Runs once at ingest so that daily load series are complete; duration and
    the session-type indicator act as the fully observed predictors.  Imputed
    msr/hsr are clamped to the session distance to preserve row invariants.
    Sessions with no missing field are returned as the same objects.
    """
    fields = ("rpe", "distance_m", "msr_m", "hsr_m", "player_load")
    matrix = np.full((len(sessions), 2 + len(fields)), np.nan)
    for i, s in enumerate(sessions):
        matrix[i, 0] = s.duration_min
        matrix[i, 1] = 1.0 if s.session_type == "match" else 0.0
        for j, name in enumerate(fields):
            value = getattr(s, name)
            if value is not None:
                matrix[i, 2 + j] = float(value)
    if not np.isnan(matrix).any():
        return list(sessions)
    names = ["duration_min", "is_match", *fields]
    filled = PmmImputer.fit(matrix, donors=donors, column_names=names).transform(matrix, rng)
    out = list(sessions)
    for i in np.flatnonzero(np.isnan(matrix).any(axis=1)):
        s = out[i]
        rpe = s.rpe if s.rpe is not None else int(round(filled[i, 2]))
        distance = s.distance_m if s.distance_m is not None else float(filled[i, 3])
        msr = s.msr_m if s.msr_m is not None else min(float(filled[i, 4]), distance)
        hsr = s.hsr_m if s.hsr_m is not None else min(float(filled[i, 5]), distance)
        player_load = s.player_load if s.player_load is not None else float(filled[i, 6])
        out[i] = replace(s, rpe=rpe, distance_m=distance, msr_m=msr,
                         hsr_m=hsr, player_load=player_load)
    return out


# ---------------------------------------------------------------------------
# Standardization


def standardize(X):
    """Column-wise (x - mean) / sd with sample sd; constant columns get scale 1."""
    X = np.asarray(X, dtype=float)
    if np.isnan(X).any():
        raise ValueError("matrix contains missing values; impute first")
    means = X.mean(axis=0)
    scales = X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
    scales = np.where(scales < _ZERO_VAR, 1.0, scales)
    return (X - means) / scales, means, scales


def apply_standardize(X, means, scales):
    return (np.asarray(X, dtype=float) - means) / scales


# ---------------------------------------------------------------------------
# PCA with explained-variance cut-off


@dataclass
class PcaProjection:
    means: np.ndarray
    scales: np.ndarray
    loadings: np.ndarray                 # (p, k), orthonormal columns
    n_components: int
    explained_variance_ratio: np.ndarray  # full spectrum, descending


def pca_fit(X, threshold: float = PCA_THRESHOLD) -> PcaProjection:
    """Correlation-matrix PCA keeping the smallest k components whose
    cumulative explained variance reaches `threshold`."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite entries")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    Z, means, scales = standardize(X)
    _, s, vt = np.linalg.svd(Z, full_matrices=False)
    var = s ** 2
    total = var.sum()
    if total <= 0.0:
        raise ValueError("matrix has no variance")
    fractions = var / total
    rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps)) if s.size else 0
    rank = max(rank, 1)
    cumulative = np.cumsum(fractions)
    k = int(np.searchsorted(cumulative, threshold - 1e-12) + 1)
    k = min(k, rank)
    loadings = vt[:k].T.copy()
    # deterministic sign: largest-magnitude loading entry is positive
    for c in range(k):
        anchor = np.argmax(np.abs(loadings[:, c]))
        if loadings[anchor, c] < 0:
            loadings[:, c] = -loadings[:, c]
    return PcaProjection(means, scales, loadings, k, fractions)


def pca_transform(X, projection: PcaProjection) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite entries")
    return ((X - projection.means) / projection.scales) @ projection.loadings


# ---------------------------------------------------------------------------
# Class-imbalance sampling


@dataclass
class SamplingResult:
    """Resampled training rows.

    ``indices`` maps output rows to source rows (-1 for synthetic rows);
    ``synthetic`` flags rows that must never reach evaluation data.
    """

    X: np.ndarray
    y: np.ndarray
    indices: np.ndarray
    synthetic: np.ndarray


def _class_split(y):
    y = np.asarray(y)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be present")
    return pos, neg


def undersample(X, y, rng: np.random.Generator) -> SamplingResult:
    """Randomly drop majority rows until the classes are balanced.

    All minority rows are retained; the kept majority subset is a uniform
    draw without replacement.  Output preserves the original row order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    pos, neg = _class_split(y)
    if pos.size == neg.size:
        keep = np.arange(y.size)
    elif pos.size < neg.size:
        keep = np.sort(np.concatenate([pos, rng.choice(neg, pos.size, replace=False)]))
    else:
        keep = np.sort(np.concatenate([rng.choice(pos, neg.size, replace=False), neg]))
    return SamplingResult(X[keep], y[keep], keep,
                          np.zeros(keep.size, dtype=bool))


def smote(X, y, rng: np.random.Generator, k: int = SMOTE_NEIGHBORS,
          oversample_pct: float | None = None) -> SamplingResult:
    """SMOTE: synthesize minority rows, then under-sample the majority.

    Each synthetic row is x + u * (nn - x) for a minority row x, one of its k
    nearest minority neighbours nn (Euclidean) and u ~ Uniform(0, 1).  With
    the default ``oversample_pct=None`` enough rows are synthesized to
    balance the classes exactly without removing majority rows; an explicit
    percentage synthesizes round(pct/100 * n_minority) rows and the majority
    is under-sampled to match.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    pos, neg = _class_split(y)
    minority, majority = (pos, neg) if pos.size <= neg.size else (neg, pos)
    n_min, n_maj = minority.size, majority.size
    if n_min < 2:
        raise ValueError("SMOTE needs at least 2 minority rows")
    if oversample_pct is None:
        n_syn = n_maj - n_min
    else:
        if oversample_pct < 0:
            raise ValueError("oversample_pct must be >= 0")
        n_syn = min(int(round(n_min * oversample_pct / 100.0)), n_maj - n_min)
        n_syn = max(n_syn, 0)

    X_min = X[minority]
    diffs = X_min[:, None, :] - X_min[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(dist2, np.inf)
    k_eff = min(k, n_min - 1)
    neighbor_table = np.argsort(dist2, axis=1, kind="mergesort")[:, :k_eff]

    counts = np.full(n_min, n_syn // n_min, dtype=int)
    remainder = n_syn % n_min
    if remainder:
        counts[rng.choice(n_min, remainder, replace=False)] += 1

    synth_rows = []
    for local_idx in range(n_min):
        for _ in range(counts[local_idx]):
            nn_local = int(neighbor_table[local_idx, rng.integers(k_eff)])
            u = rng.random()
            synth_rows.append(X_min[local_idx] + u * (X_min[nn_local] - X_min[local_idx]))

    target_majority = n_min + n_syn
    if n_maj > target_majority:
        kept_majority = np.sort(rng.choice(majority, target_majority, replace=False))
    else:
        kept_majority = majority
    real = np.sort(np.concatenate([minority, kept_majority]))

    X_out = np.vstack([X[real]] + ([np.vstack(synth_rows)] if synth_rows else []))
    minority_label = y[minority[0]]
    y_out = np.concatenate([y[real], np.full(len(synth_rows), minority_label, dtype=y.dtype)])
    indices = np.concatenate([real, np.full(len(synth_rows), -1, dtype=int)])
    synthetic = np.concatenate([np.zeros(real.size, dtype=bool),
                                np.ones(len(synth_rows), dtype=bool)])
    return SamplingResult(X_out, y_out, indices, synthetic)
