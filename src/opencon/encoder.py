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
    """phi(x) = l2_normalize(W2 @ relu(W1 @ x + b1) + b2)."""

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


@dataclass
class Tape:
    """Intermediate activations saved by forward, enough for exact backprop
    (including through the output normalization)."""

    x: np.ndarray         # (n, m)
    pre1: np.ndarray      # (n, h) before ReLU
    hidden: np.ndarray    # (n, h)
    inv_norm: np.ndarray  # (n,) 1/||pre-normalization output||
    z: np.ndarray         # (n, d) unit embeddings
    dims: tuple[int, int, int]


@dataclass
class Grads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def add_(self, other: "Grads") -> "Grads":
        self.w1 += other.w1
        self.b1 += other.b1
        self.w2 += other.w2
        self.b2 += other.b2
        return self

    @classmethod
    def zeros_like(cls, mlp: Mlp) -> "Grads":
        return cls(np.zeros_like(mlp.w1), np.zeros_like(mlp.b1),
                   np.zeros_like(mlp.w2), np.zeros_like(mlp.b2))


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, Tape]:
    """Embed `x` ((m,) or (n, m)) onto the unit sphere.

    Raises:
        DegenerateVector: if a pre-normalization output has norm <= 1e-12.
    """
    x = as_f64(x)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    m, h, d = mlp.dims
    if xb.shape[1] != m:
        raise ShapeMismatch(f"input dim {xb.shape[1]} != network in_dim {m}")
    pre1 = xb @ mlp.w1.T + mlp.b1
    hidden = np.maximum(pre1, 0.0)
    v = hidden @ mlp.w2.T + mlp.b2
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms <= EPS_NORM):
        raise DegenerateVector("pre-normalization output collapsed to zero")
    inv_norm = 1.0 / norms
    z = v * inv_norm[:, None]
    tape = Tape(xb, pre1, hidden, inv_norm, z, mlp.dims)
    return (z[0] if single else z), tape


def backward(mlp: Mlp, tape: Tape, grad_z: np.ndarray) -> Grads:
    """Exact parameter gradients for d(loss)/d(z) accumulated over the batch.

    The normalization Jacobian is the tangent-space projection scaled by the
    inverse pre-normalization norm: dv = (g - (g . z) z) / ||v||.
    """
    if tape.dims != mlp.dims:
        raise TapeMismatch(f"tape dims {tape.dims} != network dims {mlp.dims}")
    grad_z = as_f64(grad_z)
    if grad_z.ndim == 1:
        grad_z = grad_z[None, :]
    if grad_z.shape != tape.z.shape:
        raise TapeMismatch(f"grad shape {grad_z.shape} != tape {tape.z.shape}")
    radial = np.sum(grad_z * tape.z, axis=1, keepdims=True)
    dv = (grad_z - radial * tape.z) * tape.inv_norm[:, None]
    dw2 = dv.T @ tape.hidden
    db2 = dv.sum(axis=0)
    dh = dv @ mlp.w2
    dh_pre = dh * (tape.pre1 > 0.0)
    dw1 = dh_pre.T @ tape.x
    db1 = dh_pre.sum(axis=0)
    return Grads(dw1, db1, dw2, db2)


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
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ValueError("milestones must be strictly increasing")


class Optimizer:
    """SGD with momentum: v <- momentum*v + g + wd*theta; theta <- theta - lr*v.

    Weight decay is applied to weight matrices only, never biases. The
    learning rate drops by `decay_factor` at each milestone epoch
    (floor(fraction * total_epochs)).
    """

    def __init__(self, cfg: OptimizerConfig, mlp: Mlp):
        self.cfg = cfg
        self.velocity = Grads.zeros_like(mlp)
        self._milestone_epochs = [int(np.floor(f * cfg.total_epochs)) for f in cfg.milestones]

    def lr_at(self, epoch: int) -> float:
        hits = sum(1 for e in self._milestone_epochs if epoch >= e)
        return self.cfg.lr * self.cfg.decay_factor ** hits

    def step(self, mlp: Mlp, grads: Grads, epoch: int) -> None:
        lr = self.lr_at(epoch)
        mom, wd = self.cfg.momentum, self.cfg.weight_decay
        for name, param in mlp.params().items():
            g = getattr(grads, name)
            if g.shape != param.shape:
                raise ShapeMismatch(f"{name}: grad {g.shape} != param {param.shape}")
            v = getattr(self.velocity, name)
            decay = wd if name.startswith("w") else 0.0
            v *= mom
            v += g + decay * param
            param -= lr * v
