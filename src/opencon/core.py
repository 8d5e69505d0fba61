"""Deterministic numeric kernels shared by the rest of the package.

Everything here is float64, pure, and reduction-order stable: seeded runs
reproduce bitwise. Random state lives in explicit :class:`Rng` objects with
named sub-streams, so consuming randomness for one purpose (say, data
generation) never perturbs another (say, augmentation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_NORM = 1e-12

STREAMS = ("data", "augment", "init", "theory")


class OpenConError(Exception):
    """Base class for every error raised by this package."""


class DegenerateVector(OpenConError):
    """Vector norm is too small to normalize safely."""


class InvalidTemperature(OpenConError):
    """Softmax/contrastive temperature must be finite and strictly positive."""


class EmptyScores(OpenConError):
    """A score statistic was requested on an empty collection."""


class UnknownStream(OpenConError):
    """Rng stream name is not one of the declared sub-streams."""


def as_f64(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def stable_sum(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Sum after sorting ascending, so the result does not depend on the
    order the addends arrived in (permutation-invariant at f64)."""
    values = as_f64(values)
    if axis is None:
        return float(np.sum(np.sort(values, axis=None)))
    return np.sum(np.sort(values, axis=axis), axis=axis)


def l2_normalize(v, out=None) -> np.ndarray:
    """Scale `v` (a vector or a stack of row vectors) to unit L2 norm, into
    `out` when given (which may be `v` itself).

    Raises:
        DegenerateVector: if any row norm is <= EPS_NORM; `out` is untouched.
    """
    v = as_f64(v)
    if v.ndim == 1:
        # one row: compare and divide by a Python float, without array dispatch
        norm = math.sqrt(np.add.reduce(v * v))
        if norm <= EPS_NORM:
            raise DegenerateVector(f"norm {norm:.3e} <= {EPS_NORM:.1e}")
        return np.divide(v, norm, out=out)
    # what np.linalg.norm(v, axis=-1) computes, without its Python dispatch
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    if (norms <= EPS_NORM).any():
        raise DegenerateVector(f"norm {float(np.nanmin(norms)):.3e} <= {EPS_NORM:.1e}")
    return np.divide(v, norms, out=out)


def shifted_exp(v, axis: int = -1, out=None, vmax=None) -> tuple[np.ndarray, np.ndarray]:
    """The max of `v` along `axis` (axis kept) and exp(v - max), written into
    `out` when given (which may be `v` itself). A caller that already holds
    that max passes it as `vmax`, shaped like it. The largest term is
    exp(0) = 1, so nothing overflows for finite inputs."""
    m = np.max(v, axis=axis, keepdims=True) if vmax is None else vmax
    return m, np.exp(np.subtract(v, m, out=out), out=out)


def log_sum_exp(v, axis: int = -1) -> np.ndarray | float:
    """Shifted log-sum-exp; overflow-free for any finite inputs."""
    m, e = shifted_exp(as_f64(v), axis)
    out = np.squeeze(m, axis=axis) + np.log(stable_sum(e, axis))
    return float(out) if np.ndim(out) == 0 else out


def check_temperature(tau: float, name: str = "tau") -> None:
    """Raise InvalidTemperature unless 0 < tau < inf; a NaN fails both
    comparisons, where it would pass a bare `tau <= 0`."""
    if not 0 < tau < np.inf:
        raise InvalidTemperature(f"{name} must be finite and > 0, got {tau}")


def softmax(v, tau: float) -> np.ndarray:
    """Temperature softmax along the last axis, computed with the max shift.

    Raises:
        InvalidTemperature: if tau is not finite and > 0.
    """
    check_temperature(tau)
    _, e = shifted_exp(as_f64(v) / tau)
    return e / np.sum(e, axis=-1, keepdims=True)


def percentile_threshold(scores, p: float) -> float:
    """Nearest-rank (lower) percentile of a score collection.

    Returns sorted_ascending[k] with k = floor(n * (100 - p) / 100), clamped
    to the last index, so at least p% of the scores are >= the result. The
    threshold is always an observed score; monotone nonincreasing in p.

    Raises:
        EmptyScores: if `scores` is empty.
    """
    scores = as_f64(scores).ravel()
    if scores.size == 0:
        raise EmptyScores("percentile of empty score set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile p must lie in [0, 100], got {p}")
    ordered = np.sort(scores)
    k = int(np.floor(scores.size * (100.0 - p) / 100.0))
    k = min(k, scores.size - 1)
    return float(ordered[k])


class Rng(np.random.Generator):
    """Deterministic random stream: a PCG64 `numpy.random.Generator`.

    Identical (seed, stream, call sequence) produce identical outputs, and
    the named streams are mutually independent: drawing from one never
    advances another.
    """

    def __init__(self, seed: int, stream: str = "data"):
        if stream not in STREAMS:
            raise UnknownStream(f"unknown stream {stream!r}, expected one of {STREAMS}")
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAMS.index(stream),))
        super().__init__(np.random.PCG64(ss))

    # PCG64 state as plain ints, for binary checkpoints
    def state_words(self) -> tuple[int, int, int, int]:
        st = self.bit_generator.state
        return (st["state"]["state"], st["state"]["inc"],
                int(st["has_uint32"]), int(st["uinteger"]))

    def set_state_words(self, words: tuple[int, int, int, int]) -> None:
        self.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": int(words[0]), "inc": int(words[1])},
            "has_uint32": int(words[2]),
            "uinteger": int(words[3]),
        }


@dataclass(frozen=True)
class VmfParams:
    """Mean direction (unit vector) and concentration of a von Mises-Fisher
    distribution on the sphere."""

    mean_direction: np.ndarray
    kappa: float

    def __post_init__(self):
        mu = as_f64(self.mean_direction)
        if mu.ndim != 1 or mu.size < 2:
            raise ValueError("mean_direction must be a vector with dim >= 2")
        if abs(np.linalg.norm(mu) - 1.0) > 1e-9:
            raise DegenerateVector("mean_direction must be unit norm")
        if not 0 <= self.kappa < np.inf:  # NaN/inf would hang the sampler
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        object.__setattr__(self, "mean_direction", mu)


def sample_uniform_sphere(dim: int, n: int, rng: Rng) -> np.ndarray:
    """n points uniform on the unit sphere in R^dim (Gaussian + normalize)."""
    if n == 0:
        return np.zeros((0, dim))
    g = rng.normal(size=(n, dim))
    return l2_normalize(g)


def _vmf_radial(kappa: float, dim: int, n: int, rng: Rng) -> np.ndarray:
    """Cosine-to-mean samples for vMF via the rejection scheme on the
    tangent-normal decomposition."""
    d1 = dim - 1
    b = d1 / (np.sqrt(4.0 * kappa * kappa + d1 * d1) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + d1 * np.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(0.5 * d1, 0.5 * d1, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(size=todo)
        ok = kappa * w + d1 * np.log(1.0 - x0 * w) - c >= np.log(u)
        take = w[ok]
        out[filled:filled + take.size] = take
        filled += take.size
    return out


def sample_vmf(params: VmfParams, n: int, rng: Rng) -> np.ndarray:
    """Draw n unit vectors from vMF(mean_direction, kappa).

    kappa = 0 falls back to the uniform sphere. Each draw combines a radial
    cosine w with a uniformly random tangent direction:
    x = w * mu + sqrt(1 - w^2) * t, t orthogonal to mu.
    """
    mu = params.mean_direction
    dim = mu.size
    if n == 0:
        return np.zeros((0, dim))
    if params.kappa == 0.0:
        return sample_uniform_sphere(dim, n, rng)
    w = _vmf_radial(params.kappa, dim, n, rng)
    # tangent directions: project out the mu component of Gaussian draws
    g = rng.normal(size=(n, dim))
    g = g - np.outer(g @ mu, mu)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # probability-zero guard: resample any tangent that collapsed
    while np.any(norms <= EPS_NORM):
        bad = norms[:, 0] <= EPS_NORM
        g2 = rng.normal(size=(int(bad.sum()), dim))
        g[bad] = g2 - np.outer(g2 @ mu, mu)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    t = g / norms
    samples = w[:, None] * mu[None, :] + np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * t
    return l2_normalize(samples)
