"""Small fully-connected networks with hand-written backprop.

Parameters live in a flat list [W0, b0, W1, b1, ...] so optimizer state
lines up by index. The forward pass exposes both the penultimate
activations ("features") and the final linear output ("prediction");
backward accepts upstream gradients at either node, which is how the
conditional-independence penalty attaches to prediction or feature level.
"""

from __future__ import annotations

import numpy as np

from .exceptions import BAD_NPZ_ERRORS, ConfigError

LEAKY_SLOPE = 0.01
CHECKPOINT_VERSION = 2


def hidden_widths_tuple(hidden_widths) -> tuple:
    """The hidden layer widths as a tuple of ints; each must be positive."""
    hidden_widths = tuple(int(w) for w in hidden_widths)
    if any(w < 1 for w in hidden_widths):
        raise ConfigError(f"hidden widths must be positive, got {hidden_widths}")
    return hidden_widths


class MlpModel:
    """Leaky-ReLU MLP with one scalar output, He-initialized, float64
    throughout.

    hidden_widths=() degrades to a single linear layer, in which case the
    features are the raw inputs.
    """

    def __init__(self, in_dim: int, hidden_widths, seed: int = 0):
        if in_dim < 1:
            raise ConfigError(f"input dimension must be positive, got {in_dim}")
        self.in_dim = int(in_dim)
        self.hidden_widths = hidden_widths_tuple(hidden_widths)
        rng = np.random.default_rng(seed)
        dims = (self.in_dim,) + self.hidden_widths + (1,)
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params.append(w)
            self.params.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.params) // 2

    def _inputs(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.in_dim:
            raise ConfigError(f"input has {x.shape[1]} columns, expected {self.in_dim}")
        return x

    def _layers(self, x: np.ndarray, cache: dict | None) -> np.ndarray:
        """Run every layer on x; return the output layer's pre-activation.

        With a cache, each pre-activation and hidden activation is a fresh
        array appended to its lists for backward. Without one, hidden layers
        write into two buffers per width, reused from layer to layer, and
        only the returned output is a fresh array.
        """
        scratch = {} if cache is not None else {
            width: (np.empty((x.shape[0], width)), np.empty((x.shape[0], width)))
            for width in set(self.hidden_widths)}
        h = x
        for layer in range(self.n_layers):
            w, b = self.params[2 * layer], self.params[2 * layer + 1]
            hidden = layer < self.n_layers - 1
            u_out, h_out = scratch.get(w.shape[1], (None, None)) if hidden else (None, None)
            u = np.matmul(h, w, out=u_out)
            u += b
            if cache is not None:
                cache["preacts"].append(u)
            if not hidden:
                return u
            # max(u, slope u) is where(u > 0, u, slope u) for 0 < slope <= 1,
            # at +-0, NaN and +-inf too
            h = np.multiply(u, LEAKY_SLOPE, out=h_out)
            np.maximum(u, h, out=h)
            if cache is not None:
                cache["acts"].append(h)

    def forward(self, x: np.ndarray):
        """Return (features, prediction, cache) for a batch."""
        x = self._inputs(x)
        cache = {"acts": [x], "preacts": []}
        pred = self._layers(x, cache)
        return cache["acts"][-1], pred, cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The prediction alone, bitwise forward's; keeps no backward cache."""
        return self._layers(self._inputs(x), None)

    def backward(self, cache: dict, d_pred: np.ndarray,
                 d_features: np.ndarray | None = None) -> list:
        """Gradients in param order given upstream d_pred (and optionally a
        gradient injected at the feature node)."""
        acts, preacts = cache["acts"], cache["preacts"]
        grads = [None] * len(self.params)
        delta = np.asarray(d_pred, dtype=np.float64)
        last = self.n_layers - 1
        grads[2 * last] = acts[-1].T @ delta
        grads[2 * last + 1] = delta.sum(axis=0)
        d_h = delta @ self.params[2 * last].T
        if d_features is not None:
            d_h += d_features
        for layer in range(last - 1, -1, -1):
            # d_h * where(u > 0, 1, slope) without a branch per element:
            # mask * (1 - slope) + slope is exactly 1 or slope, since
            # (1 - 0.01) + 0.01 == 1.0
            d_u = np.greater(preacts[layer], 0.0).astype(np.float64)
            d_u *= 1.0 - LEAKY_SLOPE
            d_u += LEAKY_SLOPE
            d_u *= d_h
            grads[2 * layer] = acts[layer].T @ d_u
            grads[2 * layer + 1] = d_u.sum(axis=0)
            if layer:
                d_h = d_u @ self.params[2 * layer].T
        return grads


def save_model(model: MlpModel, path) -> None:
    np.savez(
        path,
        checkpoint_version=np.array(CHECKPOINT_VERSION),
        in_dim=np.array(model.in_dim),
        hidden_widths=np.array(model.hidden_widths, dtype=np.int64),
        **{f"param_{i}": p for i, p in enumerate(model.params)},
    )


def load_model(path) -> MlpModel:
    """The model save_model wrote to path; ConfigError naming path for any
    other file, a checkpoint of another version among them."""
    try:
        with np.load(path) as data:
            version = int(data["checkpoint_version"])
            if version != CHECKPOINT_VERSION:
                raise ConfigError(f"unsupported checkpoint version {version}, "
                                  f"expected {CHECKPOINT_VERSION}")
            model = MlpModel(int(data["in_dim"]), data["hidden_widths"])
            for i, init in enumerate(model.params):
                param = data[f"param_{i}"]
                if param.shape != init.shape:
                    raise ConfigError(f"param_{i} has shape {param.shape}, "
                                      f"expected {init.shape}")
                model.params[i] = param
    except BAD_NPZ_ERRORS as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    return model


class Adam:
    """Bias-corrected Adam; weight decay enters as a coupled L2 term."""

    decoupled = False
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float, weight_decay: float = 0.0):
        if not np.isfinite(lr) or lr <= 0:
            raise ConfigError(f"lr must be positive and finite, got {lr}")
        if not np.isfinite(weight_decay) or weight_decay < 0:
            raise ConfigError(
                f"weight_decay must be nonnegative and finite, got {weight_decay}")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m: list | None = None
        self.v: list | None = None

    def step(self, params: list, grads: list) -> None:
        """Update params in place from float64 grads, which it leaves as
        they are."""
        if len(params) != len(grads):
            raise ConfigError("params and grads length mismatch")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        decay = self.weight_decay > 0.0
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if decay and not self.decoupled:
                g = g + self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if decay and self.decoupled:
                update += self.weight_decay * p
            p -= self.lr * update


class AdamW(Adam):
    """Adam with decoupled weight decay (shrinkage outside the moments)."""

    decoupled = True


def make_optimizer(name: str, lr: float, weight_decay: float = 0.0) -> Adam:
    if name == "adam":
        return Adam(lr, weight_decay=weight_decay)
    if name == "adamw":
        return AdamW(lr, weight_decay=weight_decay)
    raise ConfigError(f"unknown optimizer {name!r}")
