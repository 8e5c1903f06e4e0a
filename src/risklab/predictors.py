"""Forward-only classifiers whose weight spaces the samplers explore.

Two machine kinds: a unit-norm linear separator through the origin
(``sphere_linear``, two classes, prediction [wᵀx > 0]) and a fully connected
rectifier network (``mlp``).  Weights live in a single flat vector so that
proposal moves, serialisation, and risk evaluation never need to know the
architecture.

The mlp forward pass runs on an augmented feature-major block: Xᵀ (p × n)
with a last row of ones (``augmented_t``), so each layer's bias rides in its
GEMM as one extra column, h' = [W | b] @ [h; 1].  Every hidden layer writes
into the top rows of a (fan_out + 1) × n buffer whose last row is ones and
rectifies those rows in place.  With two classes the output layer predicts
class 1 where the score margin (W₁ − W₀)·h > b₀ − b₁ (h without its ones
row) and class 0 otherwise, so ties go to class 0; with more classes it
takes the argmax of [W | b] @ [h; 1], whose ties go to the lowest index.
``predict_batch`` and ``empirical_risk`` share that one kernel, so a
teacher's own labels score a risk of exactly zero.  Each spec works out
once, when it is built, where each layer's [W | b] sits in the flat vector,
so a call gathers it in one indexing step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "PredictorSpec",
    "WeightVector",
    "weight_count",
    "predict_batch",
    "empirical_risk",
    "random_weights",
    "save_weight_vector",
    "load_weight_vector",
]

SPHERE_LINEAR = "sphere_linear"
MLP = "mlp"
UNIT_SPHERE = "unit_sphere"
UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class PredictorSpec:
    """Architecture description mapping (weights, features) to a class index."""

    kind: str
    input_dim: int
    layer_sizes: tuple = ()
    # derived in __post_init__: the flat vector's length, and per mlp layer the
    # (fan_out, fan_in + 1) positions in it of that layer's [W | b]
    n_weights: int = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (SPHERE_LINEAR, MLP):
            raise DomainError(f"unknown predictor kind {self.kind!r}")
        if self.input_dim < 1:
            raise DomainError(f"input_dim must be >= 1, got {self.input_dim}")
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if self.kind == SPHERE_LINEAR:
            if self.layer_sizes:
                raise DomainError("sphere_linear takes no layer_sizes")
        else:
            if not self.layer_sizes:
                raise DomainError("mlp needs at least one layer size")
            if any(n < 1 for n in self.layer_sizes):
                raise DomainError(f"layer sizes must be positive, got {self.layer_sizes}")
        layout, pos, fan_in = [], 0, self.input_dim
        for fan_out in self.layer_sizes:
            bias = pos + fan_in * fan_out
            W = np.arange(pos, bias).reshape(fan_out, fan_in)
            layout.append(np.column_stack((W, np.arange(bias, bias + fan_out))))
            pos, fan_in = bias + fan_out, fan_out
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "n_weights", pos if layout else self.input_dim)

    @property
    def class_count(self) -> int:
        return 2 if self.kind == SPHERE_LINEAR else self.layer_sizes[-1]

    @property
    def weight_constraint(self) -> str:
        return UNIT_SPHERE if self.kind == SPHERE_LINEAR else UNCONSTRAINED


@dataclass(slots=True)
class WeightVector:
    """Flat parameter vector, optionally constrained to the unit sphere."""

    values: np.ndarray
    constraint: str = UNCONSTRAINED

    def validate(self) -> "WeightVector":
        if self.constraint not in (UNIT_SPHERE, UNCONSTRAINED):
            raise DomainError(f"unknown constraint {self.constraint!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise DomainError("weight values must be a flat vector")
        if not np.isfinite(self.values).all():
            raise DomainError("weight values must be finite")
        if self.constraint == UNIT_SPHERE and abs(np.linalg.norm(self.values) - 1.0) > 1e-10:
            raise DomainError("unit_sphere weights must have norm 1 within 1e-10")
        return self


def weight_count(spec: PredictorSpec) -> int:
    """Exact number of parameters for the architecture."""
    return spec.n_weights


def _check_weights(spec: PredictorSpec, w: WeightVector):
    if w.values.shape != (spec.n_weights,):
        raise DomainError(f"weight vector has shape {w.values.shape}, spec needs ({spec.n_weights},)")


def augmented_t(X: np.ndarray) -> np.ndarray:
    """Contiguous (p + 1) × n block: the feature-major Xᵀ over a last row of ones."""
    n, p = X.shape
    XT = np.empty((p + 1, n))
    XT[:p] = X.T
    XT[p] = 1.0
    return XT


def _mlp_classes(spec: PredictorSpec, w: WeightVector, XT: np.ndarray) -> np.ndarray:
    """Class per column of the augmented batch XT (bool for two classes)."""
    *hidden, Wb = [w.values[gather] for gather in spec.layout]  # [W | b] per layer
    h = XT
    for Wb_h in hidden:
        fan_out = Wb_h.shape[0]
        h_next = np.empty((fan_out + 1, h.shape[1]))
        h_next[fan_out] = 1.0
        top = h_next[:fan_out]
        np.matmul(Wb_h, h, out=top)
        np.maximum(top, 0.0, out=top)
        h = h_next
    if Wb.shape[0] == 2:
        W, b = Wb[:, :-1], Wb[:, -1]
        return (W[1] - W[0]) @ h[:-1] > b[0] - b[1]
    return np.argmax(Wb @ h, axis=0)


def predict_batch(spec: PredictorSpec, w: WeightVector, X: np.ndarray) -> np.ndarray:
    """Class indices for a batch of feature rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise DomainError(f"features have shape {X.shape}, spec needs (n, {spec.input_dim})")
    _check_weights(spec, w)
    if spec.kind == SPHERE_LINEAR:
        return (X @ w.values > 0.0).astype(np.int64)
    return _mlp_classes(spec, w, augmented_t(X)).astype(np.int64)


def empirical_risk(spec: PredictorSpec, w: WeightVector, data, subset=None) -> float:
    """Fraction of misclassified examples, an exact k/n in floating point.

    mlp risks run on the dataset's cached augmented block ``features_t``,
    and two-class ones compare their bool decisions with its
    ``binary_labels`` when it has them.
    """
    labels = data.labels
    if subset is not None:
        subset = np.asarray(subset, dtype=np.intp)
    n = len(labels) if subset is None else len(subset)
    if n == 0:
        raise DomainError("empty evaluation set")
    if spec.kind == SPHERE_LINEAR:
        features = data.features if subset is None else data.features[subset]
        predicted = predict_batch(spec, w, features)
    else:
        XT = data.features_t if subset is None else data.features_t[:, subset]
        if XT.shape[0] != spec.input_dim + 1:
            raise DomainError(f"features have {XT.shape[0] - 1} columns, spec needs {spec.input_dim}")
        _check_weights(spec, w)
        predicted = _mlp_classes(spec, w, XT)
        if predicted.dtype == bool and (binary := data.binary_labels) is not None:
            labels = binary
    if subset is not None:
        labels = labels[subset]
    return int(np.count_nonzero(predicted != labels)) / n


def random_weights(spec: PredictorSpec, scale: float, seed) -> WeightVector:
    """Gaussian weights with per-entry standard deviation ``scale``.

    sphere_linear vectors are renormalised to the unit sphere, so there the
    scale only fixes the (irrelevant) pre-normalisation magnitude.
    """
    if not 0 < scale < np.inf:
        raise DomainError(f"scale must be finite and > 0, got {scale}")
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, scale, size=weight_count(spec))
    if spec.kind == SPHERE_LINEAR:
        values = values / np.linalg.norm(values)
        return WeightVector(values, UNIT_SPHERE).validate()
    return WeightVector(values, UNCONSTRAINED).validate()


def save_weight_vector(w: WeightVector, path):
    """Write the flat vector as little-endian float64 with an 8-byte length header, atomically."""
    from .datasets import atomic_write  # datasets imports this module

    atomic_write(path, struct.pack("<Q", w.values.shape[0]) + np.asarray(w.values, dtype="<f8").tobytes())


def load_weight_vector(path, constraint: str = UNCONSTRAINED) -> WeightVector:
    """Read a vector written by :func:`save_weight_vector`."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DomainError(f"{path}: truncated length header")
        (n,) = struct.unpack("<Q", header)
        payload = fh.read()
    if len(payload) != 8 * n:
        raise DomainError(f"{path}: payload holds {len(payload)} bytes, header promises {8 * n}")
    values = np.frombuffer(payload, dtype="<f8").astype(float)
    return WeightVector(values, constraint).validate()
