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
        if not 0.0 < slope <= 1.0:
            raise ConfigError(f"leaky slope must be in (0, 1], got {slope}")
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
            h = np.multiply(u, self.slope, out=h_out)
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
            # (1 - s) + s == 1.0 for every s in (0, 1]
            d_u = np.greater(preacts[layer], 0.0).astype(np.float64)
            d_u *= 1.0 - self.slope
            d_u += self.slope
            d_u *= d_h
            grads[2 * layer] = acts[layer].T @ d_u
            grads[2 * layer + 1] = d_u.sum(axis=0)
            if layer:
                d_h = d_u @ self.params[2 * layer].T
        return grads


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
        self.scratch: list | None = None

    def step(self, params: list, grads: list) -> None:
        if len(params) != len(grads):
            raise ConfigError("params and grads length mismatch")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self.scratch = [np.empty((2,) + p.shape) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        decay = self.weight_decay > 0.0
        # the textbook expressions in their order, each into a scratch slot:
        # g += wd p (coupled); m = b1 m + (1 - b1) g; v = b2 v + ((1 - b2) g) g;
        # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p (decoupled))
        for p, g, m, v, (s, t) in zip(params, grads, self.m, self.v, self.scratch):
            g = np.asarray(g, dtype=np.float64)
            if decay and not self.decoupled:
                np.multiply(p, self.weight_decay, out=t)
                t += g
                g = t
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=s)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=t)
            np.divide(t, s, out=s)
            if decay and self.decoupled:
                s += np.multiply(p, self.weight_decay, out=t)
            s *= self.lr
            p -= s


class AdamW(Adam):
    """Adam with decoupled weight decay (shrinkage outside the moments)."""

    decoupled = True


def make_optimizer(name: str, lr: float, weight_decay: float = 0.0) -> Adam:
    if name == "adam":
        return Adam(lr, weight_decay=weight_decay)
    if name == "adamw":
        return AdamW(lr, weight_decay=weight_decay)
    raise ConfigError(f"unknown optimizer {name!r}")
