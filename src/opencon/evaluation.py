"""Assignment-based evaluation and numerical verification.

Covers the optimal cluster-to-class matching (Hungarian), the all/novel/seen
accuracy triple, class-count estimation via spherical k-means, and exact
numerical checks of the objective's clustering interpretation: optimality of
normalized class means as prototypes, the class-sum identity of the alignment
term, and the mean-classifier lower-bound chain for pseudo-labeled
contrastive learning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from opencon.core import (
    OpenConError,
    Rng,
    VmfParams,
    as_f64,
    l2_normalize,
    sample_uniform_sphere,
    sample_vmf,
    shifted_exp,
    stable_sum,
)
from opencon.prototype import PrototypeStore


class EmptyEvaluationSet(OpenConError):
    """No samples to evaluate."""


@dataclass(frozen=True)
class AccuracyTriple:
    all: float
    novel: float
    seen: float


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost matching of min(n, m) rows to distinct columns.

    Shortest augmenting paths with dual potentials in the rectangular form of
    Crouse 2016 ("On implementing 2D rectangular assignment algorithms", IEEE
    TAES 52(4)), after Jonker & Volgenant 1987. Returns (rows, cols) sorted by
    row, as `scipy.optimize.linear_sum_assignment` does; among equal-cost
    optima which one comes back is unspecified.

    Raises:
        ValueError: if `cost` is not 2-D or holds a non-finite entry.
    """
    cost = as_f64(cost)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    tall = cost.shape[0] > cost.shape[1]
    if tall:
        cost = np.ascontiguousarray(cost.T)
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m)
    col4row = np.full(n, -1, np.int64)
    row4col = np.full(m, -1, np.int64)
    free = np.ones(m, bool)
    path = np.empty(m, np.int64)
    dist, settled = np.empty(m), np.empty(m)
    unsettled = np.empty(m, bool)
    for cur in range(n):
        # Dijkstra over reduced costs from row `cur` to the nearest free
        # column; a settled column leaves `dist` and keeps its distance in
        # `settled`
        dist.fill(np.inf)
        unsettled.fill(True)
        visited = []
        i, reach = cur, 0.0
        while True:
            visited.append(i)
            through = cost[i] - v
            through += reach - u[i]
            closer = through < dist
            closer &= unsettled
            np.copyto(dist, through, where=closer)
            np.copyto(path, i, where=closer)
            j = int(dist.argmin())
            reach = float(dist[j])
            if not free[j]:
                # among tied columns take a free one: it ends the search, which
                # matters for integer costs with many ties
                ties = np.flatnonzero((dist == reach) & free)
                if ties.size:
                    j = int(ties[0])
            unsettled[j] = False
            settled[j] = reach
            dist[j] = np.inf
            if free[j]:
                break
            i = int(row4col[j])
        u[cur] += reach
        others = np.array(visited[1:], np.int64)
        u[others] += reach - settled[col4row[others]]
        done = ~unsettled
        v[done] -= reach - settled[done]
        free[j] = False
        while True:  # flip the matching along the path back to `cur`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if tall:
        order = np.argsort(col4row)
        return col4row[order], order.astype(np.int64)
    return np.arange(n, dtype=np.int64), col4row


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost injective assignment of rows to columns, in one solve.

    Entry r is the column matched to row r; when there are more rows than
    columns, rows left without a column come back as -1. Ties resolve
    deterministically (the solver takes the lowest-index free column), but
    not necessarily to the lexicographically smallest optimum.

    Raises:
        ValueError: if `cost` is not 2-D or holds a non-finite entry.
    """
    rows, cols = linear_sum_assignment(cost)
    assign = np.full(np.shape(cost)[0], -1, np.int64)
    assign[rows] = cols
    return assign


def _matched_accuracy(pred: np.ndarray, truth: np.ndarray, n_pred_ids: int,
                      classes: np.ndarray) -> float:
    """Accuracy after the match-count-maximizing injective map from predicted
    ids to the given class columns.

    Raises:
        ValueError: if a truth label is not in `classes` or a prediction lies
            outside [0, n_pred_ids).
    """
    pred = np.asarray(pred, np.int64)
    truth = np.asarray(truth)
    classes = np.asarray(classes)
    # each truth label's column in `classes`, which need not be sorted
    sorter = np.argsort(classes, kind="stable")
    pos = np.searchsorted(classes, truth, sorter=sorter)
    if np.any(pos == len(classes)) or np.any(classes[sorter[pos]] != truth):
        raise ValueError("truth labels outside the given classes")
    truth_col = sorter[pos]
    if np.any(bad := (pred < 0) | (pred >= n_pred_ids)):
        raise ValueError(f"prediction {pred[bad.argmax()]} outside [0, {n_pred_ids})")
    n_cols = len(classes)
    counts = np.bincount(pred * n_cols + truth_col, minlength=n_pred_ids * n_cols)
    counts = counts.reshape(n_pred_ids, n_cols).astype(float)
    # counts are integers, so any optimal assignment gives the exact matched count
    rows, cols = linear_sum_assignment(-counts)
    return float(counts[rows, cols].sum()) / len(pred)


def accuracy_triple(
    predictions: np.ndarray,
    truth: np.ndarray,
    known_classes: np.ndarray,
    novel_classes: np.ndarray,
    n_prototypes: int,
) -> AccuracyTriple:
    """The seen/novel/overall accuracy triple on an evaluation pool.

    seen: exact-match accuracy on samples whose true class is known
    (known prototype rows are index-aligned with their class ids).
    novel: accuracy on true-novel samples after optimally relabeling
    predicted ids against the novel classes.
    all: accuracy over everything after one optimal relabeling against all
    classes.

    Raises:
        EmptyEvaluationSet: if there are no samples.
    """
    predictions = np.asarray(predictions, np.int64)
    truth = np.asarray(truth, np.int64)
    if predictions.size == 0:
        raise EmptyEvaluationSet("no predictions to score")
    known_classes = np.asarray(known_classes, np.int64)
    novel_classes = np.asarray(novel_classes, np.int64)
    all_classes = np.sort(np.concatenate([known_classes, novel_classes]))

    seen_mask = np.isin(truth, known_classes)
    novel_mask = ~seen_mask
    seen_acc = float(np.mean(predictions[seen_mask] == truth[seen_mask])) if seen_mask.any() else 0.0
    novel_acc = (
        _matched_accuracy(predictions[novel_mask], truth[novel_mask],
                          n_prototypes, novel_classes)
        if novel_mask.any() else 0.0
    )
    all_acc = _matched_accuracy(predictions, truth, n_prototypes, all_classes)
    return AccuracyTriple(all_acc, novel_acc, seen_acc)


def converged_cluster_count(store: PrototypeStore) -> int:
    """Number of prototypes that received at least one assignment in the most
    recent epoch; the rest carry no samples and can be discarded."""
    return int(np.sum(store.assignment_counts > 0))


# ---------------------------------------------------------------------------
# Spherical k-means and class-count estimation
# ---------------------------------------------------------------------------

KMEANS_MAX_ITER = 100
KMEANS_RESTARTS = 4  # k-means++ seedings per clustering; the best objective wins


def _kmeanspp_seed(z: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = len(z)
    first = int(rng.integers(0, n))
    centers = [first]
    dist = 1.0 - z @ z[first]
    for _ in range(1, k):
        weights = np.maximum(dist, 0.0)
        total = weights.sum()
        if total <= 0:
            nxt = int(rng.integers(0, n))
        else:
            nxt = int(rng.choice(n, p=weights / total))
        centers.append(nxt)
        dist = np.minimum(dist, 1.0 - z @ z[nxt])
    return z[centers].copy()


def spherical_kmeans(z: np.ndarray, k: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """k-means with cosine similarity and renormalized centroids.

    Returns (labels, centroids); deterministic given the rng. Empty clusters
    are reseeded with the point farthest from its current centroid.
    """
    z = l2_normalize(as_f64(z))
    n = len(z)
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    best_labels, best_centroids, best_score = None, None, -np.inf
    for _ in range(KMEANS_RESTARTS):
        centroids = _kmeanspp_seed(z, k, rng)
        labels = np.full(n, -1, np.int64)
        for _ in range(KMEANS_MAX_ITER):
            sims = z @ centroids.T
            new_labels = np.argmax(sims, axis=1)
            for c in range(k):
                members = new_labels == c
                if not members.any():
                    worst = int(np.argmin(sims[np.arange(n), new_labels]))
                    new_labels[worst] = c
                    members = new_labels == c
                mean = z[members].mean(axis=0)
                if np.linalg.norm(mean) > 1e-12:
                    centroids[c] = mean / np.linalg.norm(mean)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        score = stable_sum(np.sum(z * centroids[labels], axis=1))
        if score > best_score:
            best_labels, best_centroids, best_score = labels, centroids, score
    return best_labels, best_centroids


def estimate_class_number(
    embeddings: np.ndarray,
    labeled_mask: np.ndarray,
    labels: np.ndarray,
    candidate_range,
    rng: Rng,
) -> int:
    """Pick the class count whose clustering best explains the labeled subset.

    Clusters the full pool (labeled + unlabeled) at each candidate count and
    scores the labeled rows' cluster ids against their true labels by optimal
    assignment; returns the best-scoring count (ties go to the smallest).
    """
    candidates = sorted(set(int(k) for k in candidate_range))
    if not candidates:
        raise ValueError("candidate_range must be nonempty")
    labeled_mask = np.asarray(labeled_mask, bool)
    labels = np.asarray(labels, np.int64)
    lab_classes = np.unique(labels[labeled_mask])
    best_k, best_score = candidates[0], -1.0
    for k in candidates:
        cluster_ids, _ = spherical_kmeans(embeddings, k, rng)
        score = _matched_accuracy(cluster_ids[labeled_mask], labels[labeled_mask],
                                  k, lab_classes)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


# ---------------------------------------------------------------------------
# Numerical verification of the clustering interpretation
# ---------------------------------------------------------------------------

def _log_bessel_i(nu: float, kappa: float) -> float:
    """log I_nu(kappa) for nu >= 0 and kappa > 0, from the power series
    sum_k (kappa/2)^(2k+nu) / (k! Gamma(k+nu+1)) (Abramowitz & Stegun 9.6.10)
    in log space. The terms rise until k is about kappa/2 and fall after it;
    the sum stops past that peak once a term is below 1e-17 of it."""
    log_half, terms, k = math.log(kappa / 2.0), [], 0
    while True:
        terms.append((2 * k + nu) * log_half - math.lgamma(k + 1) - math.lgamma(k + nu + 1))
        if k > kappa / 2.0 and terms[-1] < max(terms) + math.log(1e-17):
            break
        k += 1
    peak = max(terms)
    return peak + math.log(math.fsum(math.exp(t - peak) for t in terms))


def _log_vmf_coeff(dim: int, kappa: float) -> float:
    nu = dim / 2.0 - 1.0
    return nu * np.log(kappa) - (dim / 2.0) * np.log(2.0 * np.pi) \
        - _log_bessel_i(nu, kappa)


@dataclass(frozen=True)
class OptimalPrototypeReport:
    passed: bool
    worst_margin: float
    ranking_agrees: bool
    degenerate_classes: tuple[int, ...]


def verify_optimal_prototypes(
    class_features: list[np.ndarray],
    rng: Rng,
    n_candidates: int = 1000,
    n_configs: int = 32,
) -> OptimalPrototypeReport:
    """Check that normalized within-class means are the best prototypes.

    For each class, the normalized mean must score at least as high as every
    random unit candidate on the summed-cosine objective, strictly unless the
    candidate is parallel to it. Also checks that the assignment-weighted
    log-likelihood (unit-sphere exponential family at fixed concentration) and
    the plain summed-cosine objective rank random prototype configurations
    identically.
    """
    degenerate = []
    worst = np.inf
    dim = class_features[0].shape[1]
    for c, feats in enumerate(class_features):
        feats = as_f64(feats)
        total = feats.sum(axis=0)
        norm = np.linalg.norm(total)
        if feats.shape[0] == 0 or norm <= 1e-9:
            degenerate.append(c)
            continue
        mu_star = total / norm
        cands = sample_uniform_sphere(dim, n_candidates, rng)
        margins = norm - cands @ total  # obj(mu*) - obj(candidate)
        parallel = cands @ mu_star > 1.0 - 1e-12
        if np.any(~parallel):
            worst = min(worst, float(np.min(margins[~parallel])))

    ll_scores, align_scores = [], []
    kappa = 2.0  # fixed concentration of the ranked log-likelihood
    per_class_logc = _log_vmf_coeff(dim, kappa)
    for _ in range(n_configs):
        mats = sample_uniform_sphere(dim, len(class_features), rng)
        ll = 0.0
        align = 0.0
        for c, feats in enumerate(class_features):
            if len(feats) == 0:
                continue
            cos_sum = stable_sum(as_f64(feats) @ mats[c])
            align += cos_sum
            ll += kappa * cos_sum + len(feats) * per_class_logc
        ll_scores.append(ll)
        align_scores.append(align)
    ranking_agrees = np.array_equal(np.argsort(ll_scores, kind="stable"),
                                    np.argsort(align_scores, kind="stable"))
    passed = bool(worst > 0.0 and ranking_agrees)
    return OptimalPrototypeReport(passed, float(worst), ranking_agrees, tuple(degenerate))


@dataclass(frozen=True)
class AlignmentIdentityReport:
    passed: bool
    abs_error: float
    eta_values: tuple[float, ...]
    degenerate_classes: tuple[int, ...]


def verify_alignment_identity(
    features: np.ndarray,
    assignments: np.ndarray,
    tau: float,
) -> AlignmentIdentityReport:
    """Check the class-sum rewrite of the summed alignment term.

    The alignment term summed over all anchors whose predicted group has at
    least two members equals, exactly, a per-class expression in the group's
    normalized mean with a scale constant eta = |S| / (|S| - 1) * ||mean||
    plus the self-pair correction. Groups of size one have no positive pairs
    and are flagged degenerate. eta values are reported, never asserted
    against 1.
    """
    features = l2_normalize(as_f64(features))
    assignments = np.asarray(assignments, np.int64)
    groups = np.unique(assignments)
    pairwise = 0.0
    class_sum = 0.0
    etas = []
    degenerate = []
    for c in groups:
        members = features[assignments == c]
        s = len(members)
        if s < 2:
            degenerate.append(int(c))
            continue
        gram = members @ members.T
        off_diag = gram[~np.eye(s, dtype=bool)]
        pairwise += -stable_sum(off_diag) / ((s - 1) * tau)
        mean = members.mean(axis=0)
        eta = s / (s - 1.0) * np.linalg.norm(mean)
        etas.append(float(eta))
        # eta * sum_x phi(x).mu* == s/(s-1) * sum_x phi(x).mean, defined even
        # for a collapsed mean
        aligned = s / (s - 1.0) * stable_sum(members @ mean)
        class_sum += -(aligned - s / (s - 1.0)) / tau
    err = abs(pairwise - class_sum)
    return AlignmentIdentityReport(bool(err <= 1e-9), float(err),
                                   tuple(etas), tuple(degenerate))


@dataclass(frozen=True)
class CollisionBoundReport:
    passed: bool
    gamma: float
    gamma_after_removal: float | None
    gamma_decreased: bool | None
    min_jensen_slack: float
    identity_error: float
    sup_loss: float
    lower_bound: float
    degenerate: bool


def verify_collision_bound(
    features: np.ndarray,
    class_of: np.ndarray,
    class_probs: np.ndarray,
    tau: float,
    removed_classes=None,
) -> CollisionBoundReport:
    """Check the mean-classifier lower-bound chain on an enumerable population.

    With classes drawn from `class_probs` and same-class collision probability
    gamma = sum of squared class probabilities, verifies by exact enumeration
    that (i) the concavity (Jensen) step holds per anchor with nonnegative
    slack, (ii) the unconditional two-class expectation of the mean-classifier
    margin equals (1 - gamma)/tau times the conditional mean-classifier loss,
    and (iii) removing the given classes (the gating simulation) strictly
    lowers gamma.
    """
    features = l2_normalize(as_f64(features))
    class_of = np.asarray(class_of, np.int64)
    rho = as_f64(class_probs)
    n_classes = len(rho)
    if abs(rho.sum() - 1.0) > 1e-9 or np.any(rho < 0):
        raise ValueError("class_probs must be a distribution")
    members = [features[class_of == c] for c in range(n_classes)]
    if any(len(m) == 0 for m in members):
        raise ValueError("every class needs at least one point")
    means = np.stack([m.mean(axis=0) for m in members])
    gamma = float(np.sum(rho * rho))
    degenerate = n_classes == 1

    # conditional mean-classifier loss and the unconditional expansion
    sup_terms = 0.0
    expanded = 0.0
    for a in range(n_classes):
        for b in range(n_classes):
            margin = float(means[a] @ (means[a] - means[b]))
            expanded += -rho[a] * rho[b] * margin / tau
            if a != b:
                sup_terms += -rho[a] * rho[b] * margin
    if degenerate or gamma >= 1.0 - 1e-15:
        sup_loss = 0.0
    else:
        sup_loss = sup_terms / (1.0 - gamma)
    lower_bound = (1.0 - gamma) / tau * sup_loss
    identity_error = abs(expanded - lower_bound)

    # per-anchor concavity slack: log of the mixture-averaged exp similarity
    # minus the mixture-averaged similarity, both enumerated exactly
    point_w = np.concatenate([
        np.full(len(members[c]), rho[c] / len(members[c])) for c in range(n_classes)
    ])
    all_pts = np.concatenate(members)
    slacks = []
    for x in features:
        s = all_pts @ x / tau
        m, e = shifted_exp(s)
        log_mix = m[0] + np.log(stable_sum(point_w * e))
        slacks.append(log_mix - stable_sum(point_w * s))
    min_slack = float(np.min(slacks))

    gamma_after = None
    decreased = None
    if removed_classes is not None:
        removed = set(int(c) for c in removed_classes)
        keep = [c for c in range(n_classes) if c not in removed]
        if not keep:
            raise ValueError("cannot remove every class")
        rest = rho[keep]
        gamma_after = float(np.sum(rest * rest) / rest.sum() ** 2)
        decreased = bool(gamma_after < gamma)

    passed = bool(
        identity_error <= 1e-9
        and min_slack >= -1e-12
        and (decreased if decreased is not None else True)
    )
    return CollisionBoundReport(
        passed, gamma, gamma_after, decreased, min_slack,
        float(identity_error), float(sup_loss), float(lower_bound), degenerate,
    )


# ---------------------------------------------------------------------------
# Randomized instance generators for the verification suite
# ---------------------------------------------------------------------------

def make_prototype_instance(rng: Rng, n_classes: int = 5, dim: int = 8,
                            per_class: int = 50):
    """`n_classes` vMF clusters (concentration 4) around uniform means."""
    means = sample_uniform_sphere(dim, n_classes, rng)
    return [sample_vmf(VmfParams(means[c], 4.0), per_class, rng)
            for c in range(n_classes)]


def make_alignment_instance(rng: Rng):
    """40 uniform points in R^8, 5 random groups and a tau in [0.3, 1)."""
    features = sample_uniform_sphere(8, 40, rng)
    assignments = rng.integers(0, 5, size=40)
    assignments[: 2] = 0  # guarantee at least one non-degenerate group
    tau = float(rng.uniform(0.3, 1.0))
    return features, assignments, tau


def make_collision_instance(rng: Rng, n_classes: int = 5, per_class: int = 12):
    """vMF clusters (R^6, concentration 5) with one dominant (to-be-gated)
    class: gamma >= 0.8^2, and for n_classes >= 3 no other class holds over
    1.2 / 2.0 of the rest, so removing the dominant one provably lowers the
    collision probability. Raises ValueError if n_classes < 3."""
    if n_classes < 3:
        raise ValueError(f"n_classes must be >= 3, got {n_classes}")
    means = sample_uniform_sphere(6, n_classes, rng)
    features = np.concatenate([
        sample_vmf(VmfParams(means[c], 5.0), per_class, rng)
        for c in range(n_classes)
    ])
    class_of = np.repeat(np.arange(n_classes), per_class)
    dominant = float(rng.uniform(0.8, 0.9))
    rest = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=n_classes - 1)
    rest = (1.0 - dominant) * rest / rest.sum()
    rho = np.concatenate([[dominant], rest])
    tau = float(rng.uniform(0.3, 1.0))
    return features, class_of, rho, tau, [0]


@dataclass(frozen=True)
class VerificationSummary:
    trials: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_verification_suite(trials: int, seed: int) -> VerificationSummary:
    """Run all three oracles over independently seeded instances."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    failures: list[str] = []
    for t in range(trials):
        rng = Rng(seed + t, "theory")
        rep1 = verify_optimal_prototypes(make_prototype_instance(rng), rng)
        if not rep1.passed:
            failures.append(f"trial {t}: optimal-prototype check failed "
                            f"(worst margin {rep1.worst_margin:.3e})")
        feats, assign, tau = make_alignment_instance(rng)
        rep2 = verify_alignment_identity(feats, assign, tau)
        if not rep2.passed:
            failures.append(f"trial {t}: alignment identity off by {rep2.abs_error:.3e}")
        f3, c3, rho, tau3, removed = make_collision_instance(rng)
        rep3 = verify_collision_bound(f3, c3, rho, tau3, removed)
        if not rep3.passed:
            failures.append(
                f"trial {t}: collision bound failed (identity {rep3.identity_error:.3e}, "
                f"slack {rep3.min_jensen_slack:.3e}, gamma {rep3.gamma:.4f} -> "
                f"{rep3.gamma_after_removal})"
            )
    return VerificationSummary(trials, tuple(failures))
