"""Class prototypes on the unit sphere: pseudo-labeling, the percentile-
calibrated novelty gate, moving-average updates, and detection scoring."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from opencon.core import (
    EmptyScores,
    OpenConError,
    Rng,
    as_f64,
    check_temperature,
    l2_normalize,
    percentile_threshold,
    sample_uniform_sphere,
    shifted_exp,
    stable_sum,
)


class UnknownVariant(OpenConError):
    """Requested detection score variant does not exist."""


SCORE_VARIANTS = ("max_cosine", "msp", "energy")


@dataclass
class PrototypeStore:
    """One unit prototype row per class. Rows in `known_ids` are index-aligned
    with ground-truth label ids; rows in `novel_ids` are anonymous slots that
    evaluation matches to classes by optimal assignment."""

    matrix: np.ndarray             # (C, d), unit rows
    known_ids: np.ndarray          # sorted row indices
    novel_ids: np.ndarray
    assignment_counts: np.ndarray = field(default=None)  # per-epoch tallies

    def __post_init__(self):
        self.matrix = as_f64(self.matrix)
        self.known_ids = np.asarray(self.known_ids, np.int64)
        self.novel_ids = np.asarray(self.novel_ids, np.int64)
        if self.assignment_counts is None:
            self.assignment_counts = np.zeros(self.n_classes, np.int64)
        merged = np.sort(np.concatenate([self.known_ids, self.novel_ids]))
        if not np.array_equal(merged, np.arange(self.n_classes)):
            raise OpenConError("known_ids and novel_ids must partition the rows")
        norms = np.linalg.norm(self.matrix, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise OpenConError("prototype rows must be unit norm")

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]

    def known_matrix(self) -> np.ndarray:
        return self.matrix[self.known_ids]

    def reset_counts(self) -> None:
        self.assignment_counts[:] = 0

    def copy(self) -> "PrototypeStore":
        return PrototypeStore(self.matrix.copy(), self.known_ids.copy(),
                              self.novel_ids.copy(), self.assignment_counts.copy())


@dataclass(frozen=True)
class GateResult:
    """The unlabeled views the novelty gate passes as novel."""

    novel_view_ids: np.ndarray


def init_prototypes(n_classes: int, d: int, rng: Rng, n_known: int = 0) -> PrototypeStore:
    """Random unit prototypes; the first `n_known` rows are the known slots."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if not 0 <= n_known <= n_classes:
        raise ValueError("n_known out of range")
    matrix = sample_uniform_sphere(d, n_classes, rng)
    return PrototypeStore(matrix, np.arange(n_known), np.arange(n_known, n_classes))


def pseudo_labels(z: np.ndarray, store: PrototypeStore) -> np.ndarray:
    """Predicted class per row of `z`: argmax cosine over all prototype rows,
    ties broken toward the lowest class id."""
    return np.argmax(as_f64(z) @ store.matrix.T, axis=1)


def calibrate_threshold(labeled_z: np.ndarray, store: PrototypeStore,
                        p: float) -> float:
    """Novelty threshold from the labeled views' known-prototype scores.

    p = 0 disables the gate entirely: the sentinel +inf sends every unlabeled
    view through as novel (the gate keeps views scoring strictly below the
    threshold).

    Raises:
        EmptyScores: if there are no labeled views.
    """
    labeled_z = as_f64(labeled_z)
    if labeled_z.shape[0] == 0:
        raise EmptyScores("cannot calibrate a threshold without labeled views")
    if p == 0:
        return np.inf
    return percentile_threshold(ood_scores(labeled_z, store), p)


def ood_gate(z_u: np.ndarray, store: PrototypeStore, threshold: float) -> GateResult:
    """Mark unlabeled views as novel when their best known-prototype cosine
    (the max_cosine score) falls strictly below the threshold."""
    return GateResult(np.flatnonzero(ood_scores(z_u, store) < threshold).astype(np.int64))


def update_prototypes(
    store: PrototypeStore,
    labeled_z: np.ndarray,
    labeled_y: np.ndarray,
    novel_z: np.ndarray,
    gamma: float,
) -> PrototypeStore:
    """Moving-average prototype update, mu_c <- normalize(gamma mu_c + (1-gamma) z).

    Labeled views update their ground-truth row; gated novel views update the
    best-matching novel row, re-evaluated against the store as it evolves.
    Labeled views go first, then novel views. The update is order-sensitive
    per row: each row sees its views in ascending view index. Labeled views
    of different classes touch different rows and commute, so step j moves
    the row of every class that has a j-th labeled view at once. The labeled
    classes are laid out by descending view count (ties by class id) in one
    working copy of their rows, so step j moves a prefix of it.

    Raises:
        ValueError: if gamma is outside [0, 1), or the labels do not match
            the labeled views in number or do not index prototype rows.
        OpenConError: if there are gated novel views but no novel rows.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    labeled_z = as_f64(labeled_z)
    labeled_y = np.asarray(labeled_y, np.int64)
    novel_z = as_f64(novel_z)
    novel_ids = store.novel_ids
    if len(labeled_y) != len(labeled_z):
        raise ValueError(f"{len(labeled_y)} labels for {len(labeled_z)} labeled views")
    if np.any((labeled_y < 0) | (labeled_y >= store.n_classes)):
        raise ValueError(f"labels must lie in [0, {store.n_classes})")
    if novel_z.shape[0] and novel_ids.size == 0:
        raise OpenConError("gated novel views need at least one novel prototype row")
    matrix = store.matrix

    # rank j of each view among its class's views; with the classes in
    # descending count order, step j moves the first n_j rows of `work`, the
    # n_j classes that have a j-th view, and no row twice
    order = np.argsort(labeled_y, kind="stable")
    sorted_y = labeled_y[order]
    rank = np.arange(len(order)) - np.searchsorted(sorted_y, sorted_y)
    per_class = np.bincount(labeled_y)
    classes = np.flatnonzero(per_class)
    classes = classes[np.argsort(-per_class[classes], kind="stable")]
    slot = np.empty(len(per_class), np.int64)
    slot[classes] = np.arange(len(classes))
    pulls = (1.0 - gamma) * labeled_z[order[np.lexsort((slot[sorted_y], rank))]]
    work = matrix[classes]
    start = 0
    for size in np.bincount(rank).tolist():
        rows = work[:size]
        v = gamma * rows
        v += pulls[start:start + size]
        l2_normalize(v, out=rows)
        start += size
    matrix[classes] = work

    # a gated novel view's row is the closest novel row at its step
    novel = matrix[novel_ids]
    novel_t = novel.T
    picks = np.empty(len(novel_z), np.int64)
    for i, (z, pull) in enumerate(zip(novel_z, (1.0 - gamma) * novel_z)):
        k = picks[i] = (z[None, :] @ novel_t).argmax()
        row = novel[k]
        v = gamma * row
        v += pull
        l2_normalize(v, out=row)
    matrix[novel_ids] = novel
    store.assignment_counts += np.bincount(
        np.concatenate([labeled_y, novel_ids[picks]]), minlength=store.n_classes)
    return store


def warm_start_known(store: PrototypeStore, labeled_z: np.ndarray,
                     labeled_y: np.ndarray) -> PrototypeStore:
    """Reset each known row to the normalized mean of its labeled embeddings
    (rows whose mean collapses keep their current value)."""
    labeled_z = as_f64(labeled_z)
    labeled_y = np.asarray(labeled_y, np.int64)
    for c in store.known_ids:
        rows = labeled_z[labeled_y == c]
        if rows.shape[0] == 0:
            continue
        mean = rows.mean(axis=0)
        if np.linalg.norm(mean) <= 1e-9:
            continue
        store.matrix[c] = l2_normalize(mean)
    return store


def ood_scores(z: np.ndarray, store: PrototypeStore, variant: str = "max_cosine",
               tau: float = 1.0) -> np.ndarray:
    """Per-row in-distribution score against the known prototypes; higher
    means more in-distribution for every variant.

    max_cosine: best known cosine; msp: max softmax probability of the known
    logits at temperature tau; energy: tau * logsumexp of the known logits.

    Raises:
        InvalidTemperature: if tau is not finite and > 0, for every variant.
        UnknownVariant: for variants other than max_cosine | msp | energy.
    """
    z2 = as_f64(z)
    single = z2.ndim == 1
    logits = (z2[None, :] if single else z2) @ store.known_matrix().T
    scores, = known_logit_scores(logits, (variant,), tau)
    return scores[0] if single else scores


def known_logit_scores(logits: np.ndarray, names: tuple[str, ...],
                       tau: float) -> tuple[np.ndarray, ...]:
    """The detection scores `names`, one array per name and in order, of the
    rows whose logits against the known prototypes are `logits`, an
    (n, n_known) float64 array that msp and energy overwrite. Each row's
    scores depend on that row alone, so a stack scores to the bytes of its
    row blocks.

    Raises:
        InvalidTemperature: if tau is not finite and > 0.
        UnknownVariant: for names other than max_cosine | msp | energy.
    """
    check_temperature(tau)
    for name in names:
        if name not in SCORE_VARIANTS:
            raise UnknownVariant(f"variant {name!r} not in {SCORE_VARIANTS}")
    # a max is exact in any order, and down the columns of the transposed copy
    # it runs as a few long passes instead of one short pass per row
    top = logits.T.copy().max(axis=0)
    out = {"max_cosine": top}
    if "msp" in names or "energy" in names:
        # rounded division by tau > 0 is monotone, so top / tau is the row max
        # of logits / tau; the largest e is then exp(0) = 1, so the max of the
        # softmax e / sum is 1 / sum
        vmax = top / tau
        _, e = shifted_exp(np.divide(logits, tau, out=logits), axis=1, out=logits,
                           vmax=vmax[:, None])
        out["msp"] = 1.0 / np.sum(e, axis=1)
        out["energy"] = tau * (vmax + np.log(stable_sum(e, axis=1)))
    return tuple(out[name] for name in names)


@dataclass(frozen=True)
class DetectionMetrics:
    auroc: float
    fpr95: float


def detection_metrics(id_scores: np.ndarray, ood_scores_: np.ndarray) -> DetectionMetrics:
    """AUROC (rank statistic, ties counted half) and the false-positive rate
    at the smallest observed threshold that keeps true-positive rate >= 95%.

    Scores follow the higher-is-in-distribution convention.

    Raises:
        EmptyScores: if either score set is empty.
    """
    id_scores = as_f64(id_scores).ravel()
    ood = as_f64(ood_scores_).ravel()
    if id_scores.size == 0 or ood.size == 0:
        raise EmptyScores("detection metrics need both ID and OOD scores")
    n_id, n_ood = id_scores.size, ood.size
    sorted_id = np.sort(id_scores)
    # ranks depend only on the values: a stable argsort of the two sorted runs
    # merges them in one linear pass and still ranks ID NaNs first
    merged = np.concatenate([sorted_id, np.sort(ood)])
    order = np.argsort(merged, kind="stable")
    sorted_vals = merged[order]
    # each run of tied scores shares the mean of the ranks it spans
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], merged.size] - 1
    sorted_ranks = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    # the ID ranks in sorted order ascend, as stable_sum would add them
    u = np.sum(sorted_ranks[order < n_id]) - n_id * (n_id + 1) / 2.0
    auroc = u / (n_id * n_ood)

    fpr95 = float(np.mean(ood >= percentile_threshold(sorted_id, 95.0)))
    return DetectionMetrics(float(auroc), fpr95)
