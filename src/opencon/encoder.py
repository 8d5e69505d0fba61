"""Trainable encoder: a two-layer ReLU MLP projection head whose output is
L2-normalized onto the unit sphere, with exact reverse-mode gradients and an
SGD-with-momentum optimizer (weight decay on weights only, step decay)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opencon.core import EPS_NORM, DegenerateVector, OpenConError, Rng, as_f64


class TapeMismatch(OpenConError):
    """Backward called with a tape from a different network or shape."""


class ShapeMismatch(OpenConError):
    """Gradient/parameter shapes disagree."""


@dataclass
class Mlp:
    """phi(x) = l2_normalize(W2 @ relu(W1 @ x + b1) + b2).

    A gradient and the optimizer's momentum are Mlps of the same shapes."""

    w1: np.ndarray  # (h, m)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (d, h)
    b2: np.ndarray  # (d,)

    @classmethod
    def init(cls, in_dim: int, hidden_dim: int, out_dim: int, rng: Rng) -> "Mlp":
        """Kaiming-uniform fan-in weights, zero biases."""
        lim1 = np.sqrt(6.0 / in_dim)
        lim2 = np.sqrt(6.0 / hidden_dim)
        return cls(
            w1=rng.uniform(-lim1, lim1, size=(hidden_dim, in_dim)),
            b1=np.zeros(hidden_dim),
            w2=rng.uniform(-lim2, lim2, size=(out_dim, hidden_dim)),
            b2=np.zeros(out_dim),
        )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.w1.shape[1], self.w1.shape[0], self.w2.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "Mlp":
        return Mlp(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def add_(self, other: "Mlp") -> None:
        for mine, theirs in zip(self.params().values(), other.params().values()):
            mine += theirs

    @classmethod
    def zeros_like(cls, mlp: "Mlp") -> "Mlp":
        return cls(*map(np.zeros_like, mlp.params().values()))


@dataclass
class Tape:
    """Intermediate activations saved by forward, enough for exact backprop
    (including through the output normalization)."""

    x: np.ndarray         # (n, m)
    hidden: np.ndarray    # (n, h) after ReLU
    inv_norm: np.ndarray  # (n,) 1/||pre-normalization output||
    z: np.ndarray         # (n, d) unit embeddings
    dims: tuple[int, int, int]


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Embed the rows of `x`, an (n, m) array, onto the unit sphere.

    Raises:
        ShapeMismatch: if `x` is not an (n, m) array for the network's m.
        DegenerateVector: if a pre-normalization output has norm <= 1e-12.
    """
    x = as_f64(x)
    if x.ndim != 2 or x.shape[1] != mlp.dims[0]:
        raise ShapeMismatch(f"input shape {x.shape} is not (n, {mlp.dims[0]}) rows")
    # each bias add, the ReLU and the scaling run in its GEMM's own result;
    # the norm is np.linalg.norm(z, axis=1)'s expression for real input
    hidden = x @ mlp.w1.T
    hidden += mlp.b1
    np.maximum(hidden, 0.0, out=hidden)
    z = hidden @ mlp.w2.T
    z += mlp.b2
    norms = np.sqrt(np.add.reduce(z * z, axis=1))
    if np.any(norms <= EPS_NORM):
        raise DegenerateVector("pre-normalization output collapsed to zero")
    inv_norm = 1.0 / norms
    z *= inv_norm[:, None]
    return z, Tape(x, hidden, inv_norm, z, mlp.dims)


def backward(mlp: Mlp, tape: Tape, grad_z: np.ndarray) -> Mlp:
    """Exact parameter gradients for d(loss)/d(z) accumulated over the batch.

    The normalization Jacobian is the tangent-space projection scaled by the
    inverse pre-normalization norm: dv = (g - (g . z) z) / ||v||.
    """
    if tape.dims != mlp.dims:
        raise TapeMismatch(f"tape dims {tape.dims} != network dims {mlp.dims}")
    grad_z = as_f64(grad_z)
    if grad_z.shape != tape.z.shape:
        raise TapeMismatch(f"grad shape {grad_z.shape} != tape {tape.z.shape}")
    radial = np.sum(grad_z * tape.z, axis=1, keepdims=True)
    dv = (grad_z - radial * tape.z) * tape.inv_norm[:, None]
    dw2 = dv.T @ tape.hidden
    db2 = dv.sum(axis=0)
    dh = dv @ mlp.w2
    # hidden = max(pre1, 0) is > 0 exactly where pre1 is, NaN included
    dh_pre = dh * (tape.hidden > 0.0)
    dw1 = dh_pre.T @ tape.x
    db1 = dh_pre.sum(axis=0)
    return Mlp(dw1, db1, dw2, db2)


@dataclass
class OptimizerConfig:
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4
    decay_factor: float = 0.1
    milestones: tuple[float, ...] = (0.5, 0.75)  # fractions of total epochs
    total_epochs: int = 100

    def __post_init__(self):
        # chained comparisons, so that NaN fails every check
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 < self.decay_factor < np.inf:
            raise ValueError(
                f"lr decay factor must be finite and > 0, got {self.decay_factor}")
        if not all(0.0 <= f <= 1.0 for f in self.milestones):
            raise ValueError(f"milestones must lie in [0, 1], got {self.milestones}")
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ValueError("milestones must be strictly increasing")
        try:  # each milestone scales the rate once: the last epoch has the extreme one
            last_lr = self.lr_at(self.total_epochs - 1)
        except OverflowError:  # a float power past the float range
            last_lr = np.inf
        if not last_lr < np.inf:
            raise ValueError(f"lr {self.lr} decayed by {self.decay_factor} per milestone "
                             f"leaves the float range within {self.total_epochs} epochs")

    def lr_at(self, epoch: int) -> float:
        hits = sum(1 for f in self.milestones if epoch >= int(np.floor(f * self.total_epochs)))
        return self.lr * self.decay_factor ** hits


class Optimizer:
    """SGD with momentum: v <- momentum*v + g + wd*theta; theta <- theta - lr*v.

    Weight decay is applied to weight matrices only, never biases. The
    learning rate drops by `decay_factor` at each milestone epoch
    (floor(fraction * total_epochs)).
    """

    def __init__(self, cfg: OptimizerConfig, mlp: Mlp):
        self.cfg = cfg
        self.velocity = Mlp.zeros_like(mlp)

    def step(self, mlp: Mlp, grads: Mlp, epoch: int) -> None:
        lr = self.cfg.lr_at(epoch)
        mom, wd = self.cfg.momentum, self.cfg.weight_decay
        for (name, param), g, v in zip(mlp.params().items(), grads.params().values(),
                                       self.velocity.params().values()):
            if g.shape != param.shape:
                raise ShapeMismatch(f"{name}: grad {g.shape} != param {param.shape}")
            decay = wd if name.startswith("w") else 0.0
            v *= mom
            v += g + decay * param
            param -= lr * v
