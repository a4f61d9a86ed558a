"""Small fully-connected networks with hand-written backprop.

Parameters live in a flat list [W0, b0, W1, b1, ...] so optimizer state
lines up by index. The forward pass exposes both the penultimate
activations ("features") and the final linear output ("prediction");
backward accepts upstream gradients at either node, which is how the
conditional-independence penalty attaches to prediction or feature level.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError

LEAKY_SLOPE = 0.01
CHECKPOINT_VERSION = 1


def hidden_widths_tuple(hidden_widths) -> tuple:
    """The hidden layer widths as a tuple of ints; each must be positive."""
    hidden_widths = tuple(int(w) for w in hidden_widths)
    if any(w < 1 for w in hidden_widths):
        raise ConfigError(f"hidden widths must be positive, got {hidden_widths}")
    return hidden_widths


class MlpModel:
    """Leaky-ReLU MLP, He-initialized, float64 throughout.

    hidden_widths=() degrades to a single linear layer, in which case the
    features are the raw inputs.
    """

    def __init__(self, in_dim: int, hidden_widths, out_dim: int = 1,
                 seed: int = 0, slope: float = LEAKY_SLOPE):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"bad dims in={in_dim} out={out_dim}")
        hidden_widths = hidden_widths_tuple(hidden_widths)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.hidden_widths = hidden_widths
        self.slope = float(slope)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        dims = (self.in_dim,) + hidden_widths + (self.out_dim,)
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params.append(w)
            self.params.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.params) // 2

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params)

    def forward(self, x: np.ndarray):
        """Return (features, prediction, cache) for a batch."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.in_dim:
            raise ConfigError(f"input has {x.shape[1]} columns, expected {self.in_dim}")
        acts = [x]
        preacts = []
        h = x
        for layer in range(self.n_layers):
            w, b = self.params[2 * layer], self.params[2 * layer + 1]
            u = h @ w + b
            preacts.append(u)
            if layer < self.n_layers - 1:
                h = np.where(u > 0.0, u, self.slope * u)
                acts.append(h)
        pred = preacts[-1]
        features = acts[-1]
        return features, pred, {"acts": acts, "preacts": preacts}

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
            d_h = d_h + d_features
        for layer in range(last - 1, -1, -1):
            u = preacts[layer]
            d_u = d_h * np.where(u > 0.0, 1.0, self.slope)
            grads[2 * layer] = acts[layer].T @ d_u
            grads[2 * layer + 1] = d_u.sum(axis=0)
            d_h = d_u @ self.params[2 * layer].T
        return grads

    def copy(self) -> "MlpModel":
        dup = MlpModel.__new__(MlpModel)
        dup.in_dim = self.in_dim
        dup.out_dim = self.out_dim
        dup.hidden_widths = self.hidden_widths
        dup.slope = self.slope
        dup.seed = self.seed
        dup.params = [p.copy() for p in self.params]
        return dup


def save_model(model: MlpModel, path) -> None:
    arrays = {f"param_{i}": p for i, p in enumerate(model.params)}
    np.savez(
        path,
        checkpoint_version=np.array(CHECKPOINT_VERSION),
        in_dim=np.array(model.in_dim),
        out_dim=np.array(model.out_dim),
        hidden_widths=np.array(model.hidden_widths, dtype=np.int64),
        slope=np.array(model.slope),
        seed=np.array(model.seed),
        n_params=np.array(len(model.params)),
        **arrays,
    )


def load_model(path) -> MlpModel:
    with np.load(path) as data:
        version = int(data["checkpoint_version"])
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version}")
        model = MlpModel(
            in_dim=int(data["in_dim"]),
            hidden_widths=tuple(int(w) for w in data["hidden_widths"]),
            out_dim=int(data["out_dim"]),
            seed=int(data["seed"]),
            slope=float(data["slope"]),
        )
        model.params = [data[f"param_{i}"].copy()
                        for i in range(int(data["n_params"]))]
    return model


class Adam:
    """Bias-corrected Adam; weight decay enters as a coupled L2 term."""

    decoupled = False

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be nonnegative, got {weight_decay}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m: list | None = None
        self.v: list | None = None

    def step(self, params: list, grads: list) -> None:
        if len(params) != len(grads):
            raise ConfigError("params and grads length mismatch")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            g = np.asarray(g, dtype=np.float64)
            if not self.decoupled and self.weight_decay > 0.0:
                g = g + self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.decoupled and self.weight_decay > 0.0:
                update = update + self.weight_decay * p
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
