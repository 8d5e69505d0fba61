"""Training orchestration: batch sampling, augmentation, encoding, the
novelty gate, loss/gradient computation, optimizer steps, moving-average
prototype updates, per-epoch metrics, checkpointing, and ablation sweeps.

Per iteration the order is fixed: sample -> augment -> encode -> calibrate ->
gate -> pseudo-label -> loss + backprop -> optimizer step -> prototype
update. Everything is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass

import numpy as np

from opencon.core import OpenConError, Rng, as_f64, check_temperature
from opencon.data import (
    AugmentConfig,
    BatchSampler,
    BlockReader,
    SplitDataset,
    write_blocks,
)
from opencon.encoder import (
    Mlp,
    Optimizer,
    OptimizerConfig,
    backward,
    forward,
)
from opencon.evaluation import AccuracyTriple, accuracy_triple, converged_cluster_count
from opencon.objective import LossWeights, loss_modified, loss_opencon
from opencon.prototype import (
    DetectionMetrics,
    PrototypeStore,
    SCORE_VARIANTS,
    calibrate_threshold,
    detection_metrics,
    init_prototypes,
    known_logit_scores,
    ood_gate,
    ood_scores,  # noqa: F401  (kept a module attribute, so timing wrappers find it)
    pseudo_labels,
    update_prototypes,
    warm_start_known,
)

CHECKPOINT_MAGIC = b"OCKP"
CHECKPOINT_VERSION = 1

PER_BATCH = "per_batch"
PER_EPOCH = "per_epoch"


class TrainingDiverged(OpenConError):
    """A loss went non-finite; carries the diagnostic state."""

    def __init__(self, message: str, state: dict):
        super().__init__(message)
        self.state = state


class Corrupt(OpenConError):
    """Checkpoint file is truncated or not a checkpoint."""


class VersionMismatch(OpenConError):
    """Checkpoint version, dimensions or known classes disagree with
    expectations."""


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of a run. Loss weights/temperatures default to the
    reference values; batch sizes and epochs default to desk scale."""

    epochs: int = 100
    b_l: int = 64
    b_u: int = 64
    lambda_n: float = LossWeights.lambda_n
    tau_n: float = LossWeights.tau_n
    lambda_l: float = LossWeights.lambda_l
    tau_l: float = LossWeights.tau_l
    lambda_u: float = LossWeights.lambda_u
    tau_u: float = LossWeights.tau_u
    kl_weight: float = LossWeights.kl_weight
    gamma: float = 0.9
    p: float = 70.0
    lr: float = OptimizerConfig.lr
    momentum: float = OptimizerConfig.momentum
    weight_decay: float = OptimizerConfig.weight_decay
    lr_decay: float = OptimizerConfig.decay_factor
    milestones: tuple[float, ...] = OptimizerConfig.milestones
    seed: int = 0
    embed_dim: int = 128
    hidden_dim: int = 0          # 0 -> twice the input dim
    aug_sigma: float = AugmentConfig.sigma
    aug_p_mask: float = AugmentConfig.p_mask
    n_prototypes: int = 0        # 0 -> number of ground-truth classes
    drop_l: bool = False
    drop_u: bool = False
    drop_n: bool = False
    use_modified_loss: bool = False
    calibration: str = PER_BATCH
    eval_every: int = 1
    warm_start: bool = True
    early_stop: bool = False
    early_stop_patience: int = 10
    early_stop_tol: float = 1e-4

    def __post_init__(self):
        if self.calibration not in (PER_BATCH, PER_EPOCH):
            raise ValueError(f"calibration must be {PER_BATCH!r} or {PER_EPOCH!r}")
        if not 0.0 <= self.p <= 100.0:
            raise ValueError("p must lie in [0, 100]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.hidden_dim < 0:
            raise ValueError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not 0.0 <= self.early_stop_tol < np.inf:
            raise ValueError(
                f"early_stop_tol must be finite and >= 0, got {self.early_stop_tol}")
        # the sub-configs check their own fields; build them eagerly
        self.weights, self.optimizer_config, self.augment_config

    @property
    def weights(self) -> LossWeights:
        return LossWeights(self.lambda_n, self.tau_n, self.lambda_l, self.tau_l,
                           self.lambda_u, self.tau_u, self.kl_weight)

    @property
    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(lr=self.lr, momentum=self.momentum,
                               weight_decay=self.weight_decay, decay_factor=self.lr_decay,
                               milestones=self.milestones, total_epochs=self.epochs)

    @property
    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(self.aug_sigma, self.aug_p_mask)


def json_clean(value):
    """`value` with every non-finite float, at any depth of nested dicts,
    replaced by None, so it serializes as strict JSON."""
    if isinstance(value, dict):
        return {k: json_clean(v) for k, v in value.items()}
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


@dataclass
class EpochReport:
    epoch: int
    loss_total: float
    loss_l: float
    loss_u: float
    loss_n: float
    kl: float
    lambda_threshold: float | None
    gated_fraction: float
    acc_all: float | None
    acc_novel: float | None
    acc_seen: float | None
    active_prototypes: int

    def as_dict(self) -> dict:
        return json_clean(dataclasses.asdict(self))


@dataclass
class TrainState:
    """Everything needed to resume a run bitwise at an epoch boundary."""

    mlp: Mlp
    velocity: Mlp
    store: PrototypeStore
    next_epoch: int
    total_epochs: int
    rng_words: dict[str, tuple[int, int, int, int]]


@dataclass
class TrainResult:
    mlp: Mlp
    store: PrototypeStore
    reports: list[EpochReport]
    final_state: TrainState

    @property
    def final(self) -> EpochReport:
        return self.reports[-1]


# The row unit of `_row_blocks`, by which evaluation and training embed a
# pool: the temporaries scale with a block, never with the pool.
EVAL_BLOCK_ROWS = 256
# Encoder multiply-adds per row, h * (m + d), from which evaluation's second
# thread won at least 9 of 10 timed pairs on a measured grid (GEMMs release the GIL).
EVAL_LANE_MIN_MACS = 15_000


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _row_blocks(n: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n), max(1, n // EVAL_BLOCK_ROWS))


def _embed_rows(mlp: Mlp, features: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`forward(mlp, features[rows])[0]`, one `_row_blocks` block at a time:
    n // B near-equal blocks of B to 2B - 1 rows (B = EVAL_BLOCK_ROWS), so
    the temporaries scale with the block, never with `rows`, and each product
    stays on the whole pool's OpenBLAS kernel: the bytes are one whole-pool
    `forward`'s at layer widths 5-192 and at multiples of 8."""
    z = np.empty((len(rows), mlp.dims[2]))
    for block in _row_blocks(len(rows)):
        z[block], _ = forward(mlp, features[rows[block]])
    return z


def _pool_pass(mlp: Mlp, store: PrototypeStore, split: SplitDataset, predict: bool,
               tau: float | None) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Embed the unlabeled pool once, in `_row_blocks`' blocks, keeping per
    row only the predicted class (if `predict`) and, when `tau` is given, the
    known-prototype logits, which one `known_logit_scores` call scores once
    the pool is done. Past the gate below, a helper thread embeds odd blocks.
    Non-finite parameters, prototypes or feature rows raise before their GEMMs."""
    for name, value in {**mlp.params(), "prototypes": store.matrix}.items():
        if not np.isfinite(value).all():
            raise OpenConError(f"cannot evaluate with non-finite {name}")
    rows = split.unlabeled_idx
    blocks = _row_blocks(len(rows))
    preds = np.empty(len(rows), np.int64) if predict else None
    # the operand layout of ood_scores' product, so each block's logits are its bits
    known_t = store.known_matrix().T
    logits = np.empty((len(rows), known_t.shape[1])) if tau is not None else None
    failure = []  # the first exception of either lane; the other stops at its next block

    def lane(own: list[np.ndarray]) -> None:
        try:
            for block in own:
                if failure:
                    return
                x = split.features[rows[block]]
                if not np.isfinite(x).all():
                    row = rows[block][np.argmin(np.isfinite(x).all(axis=1))]
                    raise OpenConError(f"cannot evaluate non-finite feature row {row}")
                z, _ = forward(mlp, x)
                if preds is not None:
                    preds[block] = pseudo_labels(z, store)
                if logits is not None:
                    logits[block] = z @ known_t
        except BaseException as exc:  # re-raised by the caller once both lanes stop
            failure.append(exc)

    macs = mlp.w1.size + mlp.w2.size  # h * (m + d)
    if len(blocks) > 1 and macs >= EVAL_LANE_MIN_MACS and _usable_cpus() > 1:
        helper = threading.Thread(target=lane, args=(blocks[1::2],), name="opencon-eval-lane")
        helper.start()
        try:
            lane(blocks[0::2])
        finally:
            helper.join()
    else:
        lane(blocks)
    if failure:
        raise failure[0]
    if logits is None:
        return preds, {}
    return preds, dict(zip(SCORE_VARIANTS, known_logit_scores(logits, SCORE_VARIANTS, tau)))


def _check_known_rows(store: PrototypeStore, split: SplitDataset) -> None:
    """Known prototype rows are index-aligned with the known class ids, so a
    split with other known classes raises VersionMismatch."""
    known_rows = np.arange(store.n_known)
    if not np.array_equal(known_rows, split.known_classes):
        raise VersionMismatch(f"the model's known prototype rows {known_rows.tolist()} "
                              f"are not the split's known classes "
                              f"{split.known_classes.tolist()}")


def _evaluate(mlp: Mlp, store: PrototypeStore, split: SplitDataset, predict: bool,
              tau: float | None) -> tuple[AccuracyTriple | None, np.ndarray | None,
                                          dict[str, DetectionMetrics]]:
    """One pass over the unlabeled pool: the accuracy triple and predictions
    if `predict`, and, when `tau` is given, every variant's known-vs-novel
    detection metrics (true-known unlabeled rows are in-distribution). The
    metrics are empty when the pool lacks either side; a pass with nothing
    left to compute does not run. A split whose known classes are not the
    known prototype rows raises VersionMismatch, like an invalid tau, before
    any pass."""
    if tau is not None:
        check_temperature(tau)
    _check_known_rows(store, split)
    truth = split.unlabeled_true_labels()
    is_known = np.isin(truth, split.known_classes)
    detect = tau is not None and is_known.any() and not is_known.all()
    if not (predict or detect):
        return None, None, {}
    preds, scores = _pool_pass(mlp, store, split, predict, tau if detect else None)
    triple = accuracy_triple(preds, truth, split.known_classes, split.novel_classes,
                             store.n_classes) if predict else None
    return triple, preds, {variant: detection_metrics(s[is_known], s[~is_known])
                           for variant, s in scores.items()}


def evaluate_model(mlp: Mlp, store: PrototypeStore,
                   split: SplitDataset) -> tuple[AccuracyTriple, np.ndarray]:
    """Transductive accuracy triple on the unlabeled pool: predict by best
    prototype over all classes, then score with optimal assignment."""
    return _evaluate(mlp, store, split, True, None)[:2]


def detection_report(mlp: Mlp, store: PrototypeStore, split: SplitDataset,
                     tau: float) -> dict[str, DetectionMetrics]:
    """Known-vs-novel separation on the unlabeled pool for every score
    variant (true-known unlabeled samples are in-distribution). Empty when
    the pool lacks either side, e.g. when every known sample is labeled."""
    return _evaluate(mlp, store, split, False, tau)[2]


def train_step(mlp: Mlp, optimizer: Optimizer, store: PrototypeStore, config: TrainConfig,
               batch_l, batch_u, epoch: int, iteration: int, lam: float | None = None):
    """One EM iteration, in place: encode both batches, gate and pseudo-label
    against `store` at `lam` (calibrated on this labeled batch when None), take
    the loss and its gradient, step the optimizer and move the prototypes.
    Returns (breakdown, threshold, gated views, unlabeled views). Raises
    TrainingDiverged on a non-finite loss, before anything is updated."""
    z_l, tape_l = forward(mlp, batch_l.inputs)
    z_u, tape_u = forward(mlp, batch_u.inputs)
    if lam is None:
        lam = calibrate_threshold(z_l, store, config.p)
    novel_rows = ood_gate(z_u, store, lam).novel_view_ids
    pseudo_novel = pseudo_labels(z_u[novel_rows], store)
    drops = {"drop_l": config.drop_l, "drop_u": config.drop_u, "drop_n": config.drop_n}
    if config.use_modified_loss:
        pseudo_u = pseudo_labels(z_u, store)
        breakdown, g_l, g_u = loss_modified(
            z_l, batch_l.labels, z_u, batch_u.sample_ids, novel_rows,
            pseudo_novel, pseudo_u, store.matrix, config.weights, **drops)
    else:
        breakdown, g_l, g_u = loss_opencon(
            z_l, batch_l.labels, z_u, batch_u.sample_ids, novel_rows,
            pseudo_novel, store.matrix, config.weights, **drops)
    if not np.isfinite(breakdown.total):
        raise TrainingDiverged(
            f"non-finite loss at epoch {epoch} iteration {iteration}",
            state={"epoch": epoch, "iteration": iteration,
                   "breakdown": dataclasses.asdict(breakdown),
                   "threshold": lam, "gated": int(novel_rows.size)},
        )
    grads = backward(mlp, tape_l, g_l)
    grads.add_(backward(mlp, tape_u, g_u))
    optimizer.step(mlp, grads, epoch)
    update_prototypes(store, z_l, batch_l.labels, z_u[novel_rows], config.gamma)
    return breakdown, lam, int(novel_rows.size), int(batch_u.n_views)


def train(
    config: TrainConfig,
    split: SplitDataset,
    start_state: TrainState | None = None,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
) -> TrainResult:
    """Run the full training loop and return the model, prototypes and one
    report per epoch.

    Raises:
        ValueError: if checkpoint_every is given and < 1, or without a
            checkpoint_path; if eval_every > 0 with an empty unlabeled pool.
        VersionMismatch: if the known prototype rows, fresh or resumed, are not
            the split's known classes.
        TrainingDiverged: on the first non-finite loss, with diagnostics.
    """
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint path to write to")
    if config.eval_every > 0 and split.n_unlabeled == 0:
        raise ValueError("eval_every > 0 needs an unlabeled pool to evaluate; use 0")
    m = split.dim
    h = config.hidden_dim or 2 * m
    d = config.embed_dim
    n_known = len(split.known_classes)
    n_protos = config.n_prototypes or len(split.all_classes)
    if n_protos < n_known:
        raise ValueError(f"n_prototypes={n_protos} < known classes {n_known}")
    if n_protos == n_known and config.b_u > 0:
        raise ValueError(f"n_prototypes={n_protos} leaves no novel prototype for "
                         f"gated unlabeled views; use more than {n_known} or b_u=0")

    rngs = {name: Rng(config.seed, name) for name in _RNG_STREAMS_SAVED}
    if start_state is not None:
        if config.early_stop:
            # the patience window would restart at the resume point
            raise ValueError("early stopping cannot be combined with a resume")
        if start_state.total_epochs != config.epochs:
            raise VersionMismatch("checkpoint was produced with a different epoch budget")
        if start_state.next_epoch >= config.epochs:
            raise OpenConError("checkpoint already covers the full epoch budget")
        if start_state.mlp.dims != (m, h, d) or start_state.store.n_classes != n_protos:
            raise VersionMismatch("checkpoint dimensions disagree with the config/split")
        mlp = start_state.mlp.copy()
        store = start_state.store.copy()
        for name, words in start_state.rng_words.items():
            rngs[name].set_state_words(words)
        first_epoch = start_state.next_epoch
    else:
        mlp = Mlp.init(m, h, d, rngs["init"])
        store = init_prototypes(n_protos, d, rngs["init"], n_known)
        first_epoch = 0
    _check_known_rows(store, split)
    optimizer = Optimizer(config.optimizer_config, mlp)
    if start_state is not None:
        optimizer.velocity = start_state.velocity.copy()

    def snapshot(next_epoch: int) -> TrainState:
        return TrainState(mlp, optimizer.velocity, store, next_epoch, config.epochs,
                          {name: rng.state_words() for name, rng in rngs.items()})

    sampler = BatchSampler(split, config.b_l, config.b_u, rngs["data"], rngs["augment"],
                           config.augment_config)
    labeled_y = split.labeled_labels()
    reports: list[EpochReport] = []

    for epoch in range(first_epoch, config.epochs):
        store.reset_counts()
        lam_epoch = None
        if config.calibration == PER_EPOCH:
            z_all_l = _embed_rows(mlp, split.features, split.labeled_idx)
            lam_epoch = calibrate_threshold(z_all_l, store, config.p)
        records = [train_step(mlp, optimizer, store, config, batch_l, batch_u, epoch,
                              iteration, lam_epoch)
                   for iteration, (batch_l, batch_u) in enumerate(sampler.epoch())]
        breakdowns, lams, gated, views = zip(*records)

        if epoch == 0 and config.warm_start:
            z_all_l = _embed_rows(mlp, split.features, split.labeled_idx)
            warm_start_known(store, z_all_l, labeled_y)

        is_last = epoch == config.epochs - 1
        if config.eval_every > 0 and (epoch % config.eval_every == 0 or is_last):
            triple, _ = evaluate_model(mlp, store, split)
            acc_all, acc_novel, acc_seen = triple.all, triple.novel, triple.seen
        else:
            acc_all = acc_novel = acc_seen = None

        loss_total, loss_l, loss_u, loss_n, kl = (
            float(np.mean(col)) for col in zip(*map(dataclasses.astuple, breakdowns)))
        lam_values = [float(lam) for lam in lams if np.isfinite(lam)]
        reports.append(EpochReport(
            epoch=epoch,
            loss_total=loss_total,
            loss_l=loss_l,
            loss_u=loss_u,
            loss_n=loss_n,
            kl=kl,
            lambda_threshold=float(np.mean(lam_values)) if lam_values else None,
            gated_fraction=(sum(gated) / sum(views)) if sum(views) else 0.0,
            acc_all=acc_all,
            acc_novel=acc_novel,
            acc_seen=acc_seen,
            active_prototypes=converged_cluster_count(store),
        ))

        if checkpoint_every and (epoch + 1) % checkpoint_every == 0 and not is_last:
            checkpoint_save(checkpoint_path, snapshot(epoch + 1))

        if config.early_stop and len(reports) > config.early_stop_patience:
            prev = reports[-1 - config.early_stop_patience].loss_total
            rel = abs(reports[-1].loss_total - prev) / max(abs(prev), 1e-12)
            if rel < config.early_stop_tol:
                break

    return TrainResult(mlp, store, reports, snapshot(config.epochs))


# ---------------------------------------------------------------------------
# Ablation sweeps
# ---------------------------------------------------------------------------

LOSS_COMPONENT_VARIANTS = (
    ("full", {}),
    ("no_l", {"drop_l": True}),
    ("no_u", {"drop_u": True}),
    ("no_n", {"drop_n": True}),
)

P_SWEEP_VALUES = (0, 10, 30, 50, 70, 90)

# `opencon ablate --preset` name -> the (name, overrides) variants it trains
ABLATION_PRESETS = {
    "loss-components": LOSS_COMPONENT_VARIANTS,
    "p-sweep": tuple((f"p={value}", {"p": float(value)}) for value in P_SWEEP_VALUES),
    "modified-loss": (("full", {}), ("modified", {"use_modified_loss": True})),
}


def variant_config(config: TrainConfig, overrides: dict) -> TrainConfig:
    return dataclasses.replace(config, **overrides)


def ablate(config: TrainConfig, split: SplitDataset,
           variants) -> list[dict]:
    """Train one run per (name, overrides) variant on the same split and seed
    and tabulate final accuracy triples."""
    rows = []
    for name, overrides in variants:
        result = train(variant_config(config, overrides), split)
        final = result.final
        rows.append({
            "variant": name,
            "acc_all": final.acc_all,
            "acc_novel": final.acc_novel,
            "acc_seen": final.acc_seen,
            "loss_total": final.loss_total,
            "active_prototypes": final.active_prototypes,
        })
    return rows


# ---------------------------------------------------------------------------
# Checkpoints: magic OCKP, then the blocks (8,) <u4 [version, m, h, d, k,
# n_known, next_epoch, total_epochs], <f8 parameters, velocity and prototypes,
# <i8 counts and known rows 0..n_known-1, and per rng stream (4,) <u8 [state,
# inc as low and high halves], () u1 has_uint32, () <u4 uinteger.
# ---------------------------------------------------------------------------

_RNG_STREAMS_SAVED = ("data", "augment", "init")
_U64 = (1 << 64) - 1


def checkpoint_save(path, state: TrainState) -> None:
    mlp, store = state.mlp, state.store
    m, h, d = mlp.dims
    blocks = [np.array([CHECKPOINT_VERSION, m, h, d, store.n_classes,
                        store.n_known, state.next_epoch, state.total_epochs],
                       "<u4")]
    blocks += [as_f64(block).astype("<f8") for block in (
        *mlp.params().values(), *state.velocity.params().values(), store.matrix)]
    blocks += [store.assignment_counts.astype("<i8"), np.arange(store.n_known, dtype="<i8")]
    for name in _RNG_STREAMS_SAVED:
        s, inc, has32, uint = state.rng_words[name]
        blocks += [np.array([s & _U64, s >> 64, inc & _U64, inc >> 64], "<u8"),
                   np.array(has32, "u1"), np.array(uint, "<u4")]
    write_blocks(path, CHECKPOINT_MAGIC, blocks)


def checkpoint_load(path) -> TrainState:
    reader = BlockReader(path, CHECKPOINT_MAGIC, Corrupt)
    version, m, h, d, k, n_known, next_epoch, total_epochs = (
        int(v) for v in reader.take((8,), "<u4"))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    shapes = ((h, m), (h,), (d, h), (d,))
    mlp = Mlp(*(reader.take(shape, "<f8") for shape in shapes))
    velocity = Mlp(*(reader.take(shape, "<f8") for shape in shapes))
    matrix = reader.take((k, d), "<f8")
    counts = reader.take((k,), "<i8")
    if n_known > k or not np.array_equal(reader.take((n_known,), "<i8"), np.arange(n_known)):
        raise Corrupt(f"the known-row block is not 0..n_known-1 (n_known={n_known}, k={k})")
    store = PrototypeStore(matrix, n_known, counts)
    rng_words = {}
    for name in _RNG_STREAMS_SAVED:
        s_lo, s_hi, inc_lo, inc_hi = (int(v) for v in reader.take((4,), "<u8"))
        has32, uint = reader.flag(f"{name} has_uint32"), int(reader.take((), "<u4"))
        rng_words[name] = (s_lo | s_hi << 64, inc_lo | inc_hi << 64, has32, uint)
    reader.done()
    return TrainState(mlp, velocity, store, next_epoch, total_epochs, rng_words)
