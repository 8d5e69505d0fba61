"""Training orchestration: batch sampling, augmentation, encoding, the
novelty gate, loss/gradient computation, optimizer steps, moving-average
prototype updates, per-epoch metrics, checkpointing, and ablation sweeps.

Per iteration the order is fixed: sample -> augment -> encode -> calibrate ->
gate -> pseudo-label -> loss + backprop -> optimizer step -> prototype
update. Everything is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from opencon.core import OpenConError, Rng, as_f64
from opencon.data import (
    AugmentConfig,
    BatchSampler,
    BlockReader,
    SplitDataset,
    write_blocks,
)
from opencon.encoder import (
    Grads,
    Mlp,
    Optimizer,
    OptimizerConfig,
    ShapeMismatch,
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
    ood_gate,
    ood_scores,
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
    """Checkpoint version or dimensions disagree with expectations."""


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of a run. Loss weights/temperatures default to the
    reference values; batch sizes and epochs default to desk scale."""

    epochs: int = 100
    b_l: int = 64
    b_u: int = 64
    lambda_n: float = 0.1
    tau_n: float = 0.7
    lambda_l: float = 0.2
    tau_l: float = 0.1
    lambda_u: float = 1.0
    tau_u: float = 0.4
    kl_weight: float = 0.05
    gamma: float = 0.9
    p: float = 70.0
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 0.1
    milestones: tuple[float, ...] = (0.5, 0.75)
    seed: int = 0
    embed_dim: int = 128
    hidden_dim: int = 0          # 0 -> twice the input dim
    aug_sigma: float = 0.1
    aug_p_mask: float = 0.1
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
    velocity: Grads
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


# Rows of the unlabeled pool that evaluation embeds at a time: the pass's
# temporaries scale with this block, never with the pool.
EVAL_BLOCK_ROWS = 256


def _pool_pass(mlp: Mlp, store: PrototypeStore, split: SplitDataset, predict: bool,
               tau: float | None) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Embed the unlabeled pool once, EVAL_BLOCK_ROWS rows at a time, keeping
    per row only the predicted class (if `predict`) and, when `tau` is given,
    the score of every detection variant."""
    rows = split.unlabeled_idx
    n = len(rows)
    preds = np.empty(n, np.int64) if predict else None
    scores = {variant: np.empty(n) for variant in SCORE_VARIANTS} if tau is not None else {}
    for start in range(0, n, EVAL_BLOCK_ROWS):
        block = slice(start, start + EVAL_BLOCK_ROWS)
        z, _ = forward(mlp, split.features[rows[block]])
        if preds is not None:
            preds[block] = pseudo_labels(z, store)
        for variant, out in scores.items():
            out[block] = ood_scores(z, store, variant, tau)
    return preds, scores


def _accuracy(preds: np.ndarray, store: PrototypeStore, split: SplitDataset) -> AccuracyTriple:
    return accuracy_triple(preds, split.unlabeled_true_labels(), split.known_classes,
                           split.novel_classes, store.n_classes)


def _known_mask(split: SplitDataset) -> np.ndarray | None:
    """Which unlabeled rows are true-known, or None when the pool lacks
    either side and detection has nothing to separate."""
    is_known = np.isin(split.unlabeled_true_labels(), split.known_classes)
    return None if is_known.all() or not is_known.any() else is_known


def _detections(scores: dict[str, np.ndarray],
                is_known: np.ndarray) -> dict[str, DetectionMetrics]:
    return {variant: detection_metrics(s[is_known], s[~is_known])
            for variant, s in scores.items()}


def evaluate_model(mlp: Mlp, store: PrototypeStore,
                   split: SplitDataset) -> tuple[AccuracyTriple, np.ndarray]:
    """Transductive accuracy triple on the unlabeled pool: predict by best
    prototype over all classes, then score with optimal assignment."""
    preds, _ = _pool_pass(mlp, store, split, predict=True, tau=None)
    return _accuracy(preds, store, split), preds


def detection_report(mlp: Mlp, store: PrototypeStore, split: SplitDataset,
                     tau: float) -> dict[str, DetectionMetrics]:
    """Known-vs-novel separation on the unlabeled pool for every score
    variant (true-known unlabeled samples are in-distribution). Empty when
    the pool lacks either side, e.g. when every known sample is labeled."""
    is_known = _known_mask(split)
    if is_known is None:
        return {}
    _, scores = _pool_pass(mlp, store, split, predict=False, tau=tau)
    return _detections(scores, is_known)


def evaluate_and_detect(mlp: Mlp, store: PrototypeStore, split: SplitDataset,
                        tau: float) -> tuple[AccuracyTriple, dict[str, DetectionMetrics]]:
    """`evaluate_model`'s triple and `detection_report`'s metrics from one
    pass that embeds each unlabeled row once."""
    is_known = _known_mask(split)
    if is_known is None:
        return evaluate_model(mlp, store, split)[0], {}
    preds, scores = _pool_pass(mlp, store, split, predict=True, tau=tau)
    return _accuracy(preds, store, split), _detections(scores, is_known)


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
            checkpoint_path.
        TrainingDiverged: on the first non-finite loss, with diagnostics.
    """
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint path to write to")
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
    optimizer = Optimizer(config.optimizer_config, mlp)
    if start_state is not None:
        optimizer.velocity = Grads(*dataclasses.astuple(start_state.velocity))

    def snapshot(next_epoch: int) -> TrainState:
        return TrainState(mlp, optimizer.velocity, store, next_epoch, config.epochs,
                          {name: rng.state_words() for name, rng in rngs.items()})

    sampler = BatchSampler(split, config.b_l, config.b_u, rngs["data"], rngs["augment"],
                           config.augment_config)
    weights = config.weights
    drops = {"drop_l": config.drop_l, "drop_u": config.drop_u, "drop_n": config.drop_n}
    labeled_y = split.labeled_labels()
    reports: list[EpochReport] = []

    for epoch in range(first_epoch, config.epochs):
        store.reset_counts()
        lam_epoch = None
        if config.calibration == PER_EPOCH:
            z_all_l, _ = forward(mlp, split.labeled_features())
            lam_epoch = calibrate_threshold(z_all_l, store, config.p)

        losses: list[tuple[float, float, float, float, float]] = []
        lam_values: list[float] = []
        gated_count = 0
        unlabeled_count = 0

        for iteration, (batch_l, batch_u) in enumerate(sampler.epoch()):
            z_l, tape_l = forward(mlp, batch_l.inputs)
            z_u, tape_u = forward(mlp, batch_u.inputs)

            lam = lam_epoch if lam_epoch is not None else calibrate_threshold(
                z_l, store, config.p)
            gate = ood_gate(z_u, store, lam)
            novel_rows = gate.novel_view_ids
            pseudo_novel = pseudo_labels(z_u[novel_rows], store)

            if config.use_modified_loss:
                pseudo_u = pseudo_labels(z_u, store)
                breakdown, g_l, g_u = loss_modified(
                    z_l, batch_l.labels, z_u, batch_u.sample_ids, novel_rows,
                    pseudo_novel, pseudo_u, store.matrix, weights, **drops)
            else:
                breakdown, g_l, g_u = loss_opencon(
                    z_l, batch_l.labels, z_u, batch_u.sample_ids, novel_rows,
                    pseudo_novel, store.matrix, weights, **drops)

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
            update_prototypes(store, z_l, batch_l.labels, z_u[novel_rows],
                              config.gamma)

            losses.append((breakdown.total, breakdown.l, breakdown.u, breakdown.n,
                           breakdown.kl))
            if np.isfinite(lam):
                lam_values.append(float(lam))
            gated_count += int(novel_rows.size)
            unlabeled_count += int(batch_u.n_views)

        if epoch == 0 and config.warm_start:
            z_all_l, _ = forward(mlp, split.labeled_features())
            warm_start_known(store, z_all_l, labeled_y)

        is_last = epoch == config.epochs - 1
        if config.eval_every > 0 and (epoch % config.eval_every == 0 or is_last):
            triple, _ = evaluate_model(mlp, store, split)
            acc_all, acc_novel, acc_seen = triple.all, triple.novel, triple.seen
        else:
            acc_all = acc_novel = acc_seen = None

        loss_total, loss_l, loss_u, loss_n, kl = (
            float(np.mean(column)) for column in zip(*losses))
        reports.append(EpochReport(
            epoch=epoch,
            loss_total=loss_total,
            loss_l=loss_l,
            loss_u=loss_u,
            loss_n=loss_n,
            kl=kl,
            lambda_threshold=float(np.mean(lam_values)) if lam_values else None,
            gated_fraction=(gated_count / unlabeled_count) if unlabeled_count else 0.0,
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
# <i8 counts and known ids, and per rng stream (4,) <u8 [state, inc as low and
# high halves], () u1 has_uint32, () <u4 uinteger.
# ---------------------------------------------------------------------------

_RNG_STREAMS_SAVED = ("data", "augment", "init")
_U64 = (1 << 64) - 1


def checkpoint_save(path, state: TrainState) -> None:
    mlp, store = state.mlp, state.store
    m, h, d = mlp.dims
    blocks = [np.array([CHECKPOINT_VERSION, m, h, d, store.n_classes,
                        len(store.known_ids), state.next_epoch, state.total_epochs],
                       "<u4")]
    blocks += [as_f64(block).astype("<f8") for block in (
        mlp.w1, mlp.b1, mlp.w2, mlp.b2, state.velocity.w1, state.velocity.b1,
        state.velocity.w2, state.velocity.b2, store.matrix)]
    blocks += [store.assignment_counts.astype("<i8"), store.known_ids.astype("<i8")]
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
    velocity = Grads(*(reader.take(shape, "<f8") for shape in shapes))
    matrix = reader.take((k, d), "<f8")
    counts = reader.take((k,), "<i8")
    known_ids = reader.take((n_known,), "<i8")
    novel_ids = np.setdiff1d(np.arange(k), known_ids)
    store = PrototypeStore(matrix, known_ids, novel_ids, counts)
    rng_words = {}
    for name in _RNG_STREAMS_SAVED:
        s_lo, s_hi, inc_lo, inc_hi = (int(v) for v in reader.take((4,), "<u8"))
        has32, uint = int(reader.take((), "u1")), int(reader.take((), "<u4"))
        rng_words[name] = (s_lo | s_hi << 64, inc_lo | inc_hi << 64, has32, uint)
    reader.done()
    return TrainState(mlp, velocity, store, next_epoch, total_epochs, rng_words)
