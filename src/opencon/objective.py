"""Contrastive losses and their exact gradients with respect to embeddings.

One per-anchor template covers every variant; the variants differ only in how
the positive set is chosen (ground-truth label, view pairing, or pseudo-label)
while the negative set is always the rest of the multi-view batch. Batch
losses are means over contributing anchors, so the loss weights stay
comparable across batch sizes. All reductions accumulate in value-sorted
order, making loss values invariant to view reordering at f64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opencon.core import (
    OpenConError,
    as_f64,
    check_temperature,
    log_sum_exp,
    shifted_exp,
    softmax,
    stable_sum,
)


class EmptyPositiveSet(OpenConError):
    """Anchor has no positive partner; caller policy is to skip it."""


class InvalidPrior(OpenConError):
    """Class prior must be strictly positive and sum to one."""


@dataclass(frozen=True)
class ContrastSets:
    """Index sets for one anchor: pulled-toward positives and pushed-from
    negatives (anchor excluded from both)."""

    anchor: int
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positives, dtype=np.int64)
        neg = np.asarray(self.negatives, dtype=np.int64)
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)
        if self.anchor in pos or self.anchor in neg:
            raise ValueError("anchor may not appear in its own positive/negative set")


@dataclass(frozen=True)
class LossWeights:
    """Coefficients and temperatures of the composite objective."""

    lambda_n: float = 0.1
    tau_n: float = 0.7
    lambda_l: float = 0.2
    tau_l: float = 0.1
    lambda_u: float = 1.0
    tau_u: float = 0.4
    kl_weight: float = 0.05

    def __post_init__(self):
        for name in ("tau_n", "tau_l", "tau_u"):
            check_temperature(getattr(self, name), name)
        for name in ("lambda_n", "lambda_l", "lambda_u", "kl_weight"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted component values; total carries the weights."""

    total: float
    l: float
    u: float
    n: float
    kl: float


def per_sample_loss(embeddings: np.ndarray, sets: ContrastSets,
                    tau: float) -> tuple[float, np.ndarray]:
    """Per-anchor contrastive loss and its exact gradient.

    loss = -(1/|P|) sum_{p in P} log[ exp(z.z_p/tau) / sum_{q in N} exp(z.z_q/tau) ]

    Raises:
        EmptyPositiveSet: if the positive set is empty.
        InvalidTemperature: if tau is not finite and > 0.
    """
    align, lse = decompose_alignment(embeddings, sets, tau)
    z = as_f64(embeddings)
    a = sets.anchor
    grad = np.zeros_like(z)
    coeff = np.zeros(len(z))
    np.add.at(coeff, sets.positives, -1.0 / (len(sets.positives) * tau))
    w = softmax((z @ z[a])[sets.negatives], tau)
    np.add.at(coeff, sets.negatives, w / tau)
    grad[a] += coeff @ z
    grad += np.outer(coeff, z[a])
    return align + lse, grad


def decompose_alignment(embeddings: np.ndarray, sets: ContrastSets,
                        tau: float) -> tuple[float, float]:
    """Split the per-anchor loss into its alignment part (mean positive
    similarity, negated) and its log-partition part; the two sum back to
    :func:`per_sample_loss` exactly.

    alignment = -(1/|P|) sum of s/tau over positives;
    log-partition = logsumexp of s/tau over negatives.
    """
    check_temperature(tau)
    z = as_f64(embeddings)
    if len(sets.positives) == 0:
        raise EmptyPositiveSet(f"anchor {sets.anchor} has no positives")
    if len(sets.negatives) == 0:
        raise ValueError("negative set must be nonempty")
    sim_row = z @ z[sets.anchor]
    align = -stable_sum(sim_row[sets.positives] / tau) / len(sets.positives)
    return align, log_sum_exp(sim_row[sets.negatives] / tau)


def build_sets_supcon(labels: np.ndarray, anchor: int) -> ContrastSets:
    """Positives = the other views whose key equals the anchor's: its
    ground-truth label, or for SimCLR its sample id, so the only positive is
    the other view of the same sample. Negatives = every other view."""
    labels = np.asarray(labels)
    others = np.arange(len(labels)) != anchor
    return ContrastSets(anchor, np.flatnonzero(others & (labels == labels[anchor])),
                        np.flatnonzero(others))


build_sets_simclr = build_sets_supcon


def build_sets_novel(pseudo_labels: np.ndarray, anchor: int) -> ContrastSets:
    """Positives = other views with the same predicted label (over the full
    prototype set); negatives = the rest of the batch.

    Raises:
        EmptyPositiveSet: when no other view shares the prediction.
    """
    sets = build_sets_supcon(pseudo_labels, anchor)
    if sets.positives.size == 0:
        raise EmptyPositiveSet(f"anchor {anchor} shares its prediction with no other view")
    return sets


def _same_key_contrastive(z: np.ndarray, keys: np.ndarray,
                          tau: float) -> tuple[float, np.ndarray, int]:
    """Mean anchor loss over a multi-view batch; the batched build_sets_supcon.

    The positives of anchor a are the other views j with keys[j] == keys[a];
    negatives are always everything but the anchor. Anchors with no positive
    contribute nothing, to loss or gradient, and are left out of the mean.
    Returns (loss, grad wrt z, number of contributing anchors).
    """
    check_temperature(tau)
    z = as_f64(z)
    pos_mask = np.equal.outer(keys, keys)
    np.fill_diagonal(pos_mask, False)
    n_pos = pos_mask.sum(axis=1)
    contrib = n_pos > 0
    n_c = int(contrib.sum())
    if n_c == 0:
        return 0.0, np.zeros_like(z), 0

    s = z @ z.T
    s /= tau
    pos_sum = stable_sum(np.where(pos_mask, s, 0.0), axis=1)
    # the anchor is no negative of itself; exp(-inf) is exactly 0 and every
    # row keeps a finite maximum, since n >= 2 once an anchor has a positive
    np.fill_diagonal(s, -np.inf)
    rowmax, e = shifted_exp(s, axis=1, out=s)
    denom = stable_sum(e, axis=1)
    lse = rowmax[:, 0] + np.log(denom)
    losses = lse - pos_sum / np.maximum(n_pos, 1)
    loss = stable_sum(losses[contrib]) / n_c

    # d(loss)/d(raw similarity): softmax weight on negatives minus the
    # positive average, per contributing anchor, then mapped back to z.
    d = e
    d /= denom[:, None]
    d -= pos_mask / np.maximum(n_pos, 1)[:, None]
    d /= tau
    d *= contrib[:, None] / n_c
    grad = d @ z
    grad += d.T @ z
    return float(loss), grad, n_c


# The three contrastive terms differ only in their keys: SupCon passes the
# ground-truth labels, SimCLR the sample ids (the paired view is the only
# positive) and the novel term the gated views' pseudo-labels (an anchor whose
# prediction is unique in the batch is skipped). Each keeps its own module
# global, which _composite looks up at call time.
loss_supcon = loss_simclr = loss_novel = _same_key_contrastive


def kl_regularizer(z: np.ndarray, prototypes: np.ndarray, tau: float,
                   prior: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(mean predicted class distribution || prior) over a batch.

    The predicted distribution per view is softmax(M z / tau); gradients flow
    through the embeddings only, never the prototypes.

    Raises:
        InvalidPrior: prior does not sum to 1 or has nonpositive or NaN entries.
    """
    check_temperature(tau)
    z = as_f64(z)
    m = as_f64(prototypes)
    prior = as_f64(prior)
    if prior.shape != (m.shape[0],):
        raise InvalidPrior(f"prior length {prior.shape} != class count {m.shape[0]}")
    if not (abs(prior.sum() - 1.0) <= 1e-9 and np.all(prior > 0)):
        raise InvalidPrior("prior must be strictly positive and sum to 1")
    n = len(z)
    if n == 0:
        return 0.0, np.zeros_like(z)
    q = softmax(z @ m.T, tau)
    q_bar = stable_sum(q, axis=0) / n
    log_ratio = np.log(q_bar) - np.log(prior)
    kl = stable_sum(q_bar * log_ratio)
    g = log_ratio + 1.0
    inner = q * g[None, :] - (q @ g)[:, None] * q
    grad = inner @ m / (n * tau)
    return float(kl), grad


def _composite(z_l, labels_l, z_u, sample_ids_u, novel_rows, pseudo_novel,
               prototypes, weights, prior, drop_l, drop_u, drop_n,
               extra_rows, extra_labels) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Body of both composite losses. The supervised term covers the labeled
    views plus the unlabeled views `extra_rows`, labeled `extra_labels`. Both
    row sets scatter their gradients with `+=`, so a repeated novel row
    raises ValueError (a repeated view would also be its own positive)."""
    novel_rows = np.asarray(novel_rows, dtype=np.int64)
    if np.unique(novel_rows).size < novel_rows.size:
        raise ValueError("novel_rows must not repeat a view")
    z_l = as_f64(z_l)
    z_u = as_f64(z_u)
    grad_l = np.zeros_like(z_l)
    grad_u = np.zeros_like(z_u)
    val_l = val_u = val_n = val_kl = 0.0

    if not drop_l:
        z_k = np.concatenate([z_l, z_u[extra_rows]])
        y_k = np.concatenate([np.asarray(labels_l, np.int64), extra_labels])
        val_l, g, _ = loss_supcon(z_k, y_k, weights.tau_l)
        grad_l += weights.lambda_l * g[:len(z_l)]
        grad_u[extra_rows] += weights.lambda_l * g[len(z_l):]
    if not drop_u:
        val_u, g, _ = loss_simclr(z_u, sample_ids_u, weights.tau_u)
        grad_u += weights.lambda_u * g
    if not drop_n:
        val_n, g_n, _ = loss_novel(z_u[novel_rows], pseudo_novel, weights.tau_n)
        grad_u[novel_rows] += weights.lambda_n * g_n
    if weights.kl_weight > 0:
        k = prototypes.shape[0]
        p = prior if prior is not None else np.full(k, 1.0 / k)
        val_kl, g = kl_regularizer(z_u, prototypes, weights.tau_n, p)
        grad_u += weights.kl_weight * g

    total = (weights.lambda_l * val_l + weights.lambda_u * val_u
             + weights.lambda_n * val_n + weights.kl_weight * val_kl)
    return LossBreakdown(total, val_l, val_u, val_n, val_kl), grad_l, grad_u


def loss_opencon(
    z_l: np.ndarray,
    labels_l: np.ndarray,
    z_u: np.ndarray,
    sample_ids_u: np.ndarray,
    novel_rows: np.ndarray,
    pseudo_novel: np.ndarray,
    prototypes: np.ndarray,
    weights: LossWeights,
    prior: np.ndarray | None = None,
    drop_l: bool = False,
    drop_u: bool = False,
    drop_n: bool = False,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Composite open-world loss over one labeled + one unlabeled batch.

    Args:
        z_l, labels_l: embeddings and ground-truth labels of the labeled views.
        z_u, sample_ids_u: embeddings and sample ids of all unlabeled views.
        novel_rows: distinct indices into z_u of the views that passed the gate.
        pseudo_novel: predicted class (over all prototypes) per gated view.
        prototypes: (C, d) unit prototype matrix, constant for this call.
        prior: class prior for the KL term; uniform when omitted.
        drop_*: ablation switches; a dropped term contributes zero loss and
            zero gradient.

    Returns:
        (breakdown, gradient wrt z_l, gradient wrt z_u).
    """
    no_rows = np.zeros(0, np.int64)
    return _composite(z_l, labels_l, z_u, sample_ids_u, novel_rows, pseudo_novel,
                      prototypes, weights, prior, drop_l, drop_u, drop_n,
                      no_rows, no_rows)


def loss_modified(
    z_l: np.ndarray,
    labels_l: np.ndarray,
    z_u: np.ndarray,
    sample_ids_u: np.ndarray,
    novel_rows: np.ndarray,
    pseudo_novel: np.ndarray,
    pseudo_u: np.ndarray,
    prototypes: np.ndarray,
    weights: LossWeights,
    drop_l: bool = False,
    drop_u: bool = False,
    drop_n: bool = False,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Variant that widens the supervised term to the rejected unlabeled views.

    The supervised term runs over labeled views plus the unlabeled views the
    gate predicted as known, each tagged with its ground-truth label if
    labeled and its predicted label otherwise. Reduces exactly to the
    standard composite loss, whose prior defaults to the uniform one used
    here, when the gate rejects nothing.

    Args:
        pseudo_u: predicted class (over all prototypes) for every unlabeled
            view; only the rejected rows are consulted.
        drop_*: as in :func:`loss_opencon`; `drop_l` drops the whole widened
            supervised term.
    """
    novel_rows = np.asarray(novel_rows, dtype=np.int64)
    rejected = np.setdiff1d(np.arange(len(z_u)), novel_rows)
    return _composite(z_l, labels_l, z_u, sample_ids_u, novel_rows, pseudo_novel,
                      prototypes, weights, None, drop_l, drop_u, drop_n,
                      rejected, np.asarray(pseudo_u, np.int64)[rejected])
