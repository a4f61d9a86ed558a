import numpy as np
import pytest

from circe.exceptions import ConfigError
from circe.nn import (
    CHECKPOINT_VERSION,
    LEAKY_SLOPE,
    Adam,
    AdamW,
    MlpModel,
    load_model,
    make_optimizer,
    save_model,
)


def numeric_grads(model, x, target, step=1e-6):
    """Central differences of 0.5*sum((pred-target)^2) on every parameter."""

    def loss():
        _, pred, _ = model.forward(x)
        return 0.5 * np.sum((pred - target) ** 2)

    out = []
    for p in model.params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss()
            flat[j] = orig - step
            lo = loss()
            flat[j] = orig
            gflat[j] = (hi - lo) / (2.0 * step)
        out.append(g)
    return out


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(0)
    model = MlpModel(3, (4, 5), seed=1)
    x = rng.standard_normal((8, 3))
    target = rng.standard_normal((8, 1))
    _, pred, cache = model.forward(x)
    grads = model.backward(cache, pred - target)
    # the loss is quadratic in each parameter between the leaky ReLU's kinks,
    # so a step of 1e-4 adds no truncation error and keeps the differences'
    # rounding error (about 1e-16 * loss / step) below the bound on the
    # smallest gradients
    expected = numeric_grads(model, x, target, step=1e-4)
    for g, e in zip(grads, expected):
        denom = np.maximum(np.abs(e), 1e-8)
        assert np.max(np.abs(g - e) / denom) <= 1e-6


def test_feature_injection_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    model = MlpModel(2, (3, 3), seed=5)
    x = rng.standard_normal((6, 2))
    v = rng.standard_normal((6, 3))

    def loss(m):
        feats, pred, _ = m.forward(x)
        return float(np.sum(feats * v) + np.sum(pred**2))

    feats, pred, cache = model.forward(x)
    grads = model.backward(cache, 2.0 * pred, d_features=v)
    step = 1e-6
    for p, g in zip(model.params, grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss(model)
            flat[j] = orig - step
            lo = loss(model)
            flat[j] = orig
            fd = (hi - lo) / (2.0 * step)
            assert abs(gflat[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_identity_single_layer_and_leaky_slope():
    model = MlpModel(1, (), seed=0)
    model.params[0] = np.ones((1, 1))
    model.params[1] = np.zeros(1)
    x = np.array([[1.0], [-2.0], [0.5]])
    feats, pred, _ = model.forward(x)
    assert np.array_equal(pred, x)
    assert np.array_equal(feats, x)

    deep = MlpModel(1, (1,), seed=0)
    deep.params[0] = np.array([[1.0]])
    deep.params[1] = np.zeros(1)
    deep.params[2] = np.array([[1.0]])
    deep.params[3] = np.zeros(1)
    _, neg, _ = deep.forward(np.array([[-3.0]]))
    assert neg[0, 0] == pytest.approx(-3.0 * LEAKY_SLOPE)
    _, pos, _ = deep.forward(np.array([[3.0]]))
    assert pos[0, 0] == pytest.approx(3.0)


def test_zero_weights_expose_bias_pathway():
    model = MlpModel(2, (3,), seed=0)
    for i in range(0, len(model.params), 2):
        model.params[i] = np.zeros_like(model.params[i])
    model.params[1] = np.array([1.0, -2.0, 0.5])
    model.params[3] = np.array([0.25])
    _, pred, _ = model.forward(np.zeros((4, 2)))
    # hidden = leaky(bias), output = 0*hidden + 0.25
    assert np.allclose(pred, 0.25)
    model.params[2] = np.ones_like(model.params[2])
    _, pred, _ = model.forward(np.zeros((1, 2)))
    hidden = np.array([1.0, -2.0 * LEAKY_SLOPE, 0.5])
    assert pred[0, 0] == pytest.approx(hidden.sum() + 0.25)


def test_batch_forward_equals_stacked_single_rows():
    rng = np.random.default_rng(4)
    model = MlpModel(3, (5, 4), seed=9)
    x = rng.standard_normal((10, 3))
    _, batch_pred, _ = model.forward(x)
    rows = np.vstack([model.forward(x[i])[1] for i in range(10)])
    assert np.allclose(batch_pred, rows, atol=1e-12)


def test_first_adam_step_matches_closed_form():
    p = [np.array([0.0])]
    opt = Adam(lr=0.1)
    opt.step(p, [np.array([1.0])])
    # bias-corrected first step: -lr * g / (|g| + eps)
    assert p[0][0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_couples_decay_adamw_decouples():
    g = np.array([0.0])
    pa = [np.array([2.0])]
    opt_a = Adam(lr=0.1, weight_decay=0.5)
    opt_a.step(pa, [g.copy()])
    # zero gradient + coupled decay: effective g = 1.0, first step -lr
    assert pa[0][0] == pytest.approx(2.0 - 0.1, rel=1e-6)

    pw = [np.array([2.0])]
    opt_w = AdamW(lr=0.1, weight_decay=0.5)
    opt_w.step(pw, [g.copy()])
    # zero gradient: moments stay zero, only shrinkage lr*wd*p applies
    assert pw[0][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, rel=1e-12)


def test_zero_grad_zero_decay_is_noop():
    p = [np.array([1.5, -2.0])]
    opt = AdamW(lr=0.3)
    before = p[0].copy()
    for _ in range(3):
        opt.step(p, [np.zeros(2)])
    assert np.array_equal(p[0], before)


def test_determinism():
    m1 = MlpModel(4, (8, 8), seed=123)
    m2 = MlpModel(4, (8, 8), seed=123)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a, b)


def test_checkpoint_roundtrip(tmp_path):
    model = MlpModel(3, (4, 2), seed=11)
    model.params[0][0, 0] = 42.0
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hidden_widths == (4, 2)
    for a, b in zip(model.params, loaded.params):
        assert np.array_equal(a, b)
    x = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(model.forward(x)[1], loaded.forward(x)[1])
    with np.load(path) as data:
        assert sorted(data) == sorted(["checkpoint_version", "in_dim", "hidden_widths"]
                                      + [f"param_{i}" for i in range(6)])


def _rewrite_checkpoint(path, **changes):
    """Save a fresh model to path, then rewrite it with changes applied; a
    None value drops that field."""
    save_model(MlpModel(3, (4,), seed=0), path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays.update(changes)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


@pytest.mark.parametrize("version", [1, CHECKPOINT_VERSION + 1])
def test_checkpoint_of_another_version_rejected(tmp_path, version):
    # version 1 also stored out_dim, slope, seed and n_params
    path = tmp_path / "model.npz"
    _rewrite_checkpoint(path, checkpoint_version=np.array(version), out_dim=np.array(1),
                        slope=np.array(0.01), seed=np.array(0), n_params=np.array(4))
    with pytest.raises(ConfigError, match=f"unsupported checkpoint version {version}"):
        load_model(path)


def _write_npy(path):
    with open(path, "wb") as f:
        np.save(f, np.zeros(3))


@pytest.mark.parametrize("write", [
    lambda path: _rewrite_checkpoint(path, param_3=None),
    lambda path: _rewrite_checkpoint(path, param_2=np.zeros((5, 1))),
    lambda path: _rewrite_checkpoint(path, in_dim=np.array([3, 3])),
    lambda path: _rewrite_checkpoint(path, hidden_widths=np.array([0])),
    lambda path: path.write_text("in_dim,3\n"),
    lambda path: path.write_bytes(b""),
    _write_npy,
    lambda path: (save_model(MlpModel(3, (4,)), path),
                  path.write_bytes(path.read_bytes()[:40])),
], ids=["missing_param", "param_shape", "in_dim_shape", "zero_width", "text", "empty",
        "npy", "truncated"])
def test_malformed_checkpoint_raises_config_error_naming_path(tmp_path, write):
    path = tmp_path / "model.npz"
    write(path)
    with pytest.raises(ConfigError, match="cannot load checkpoint .*model.npz"):
        load_model(path)


@pytest.mark.parametrize("cls", [Adam, AdamW])
@pytest.mark.parametrize("lr, weight_decay",
                         [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, np.inf)])
def test_non_finite_hyperparameters_raise_config_error(cls, lr, weight_decay):
    # NaN passes every range check: lr=nan turns each parameter NaN after one
    # step, and weight_decay=nan switches decay off, since nan > 0 is False
    with pytest.raises(ConfigError, match="finite"):
        cls(lr=lr, weight_decay=weight_decay)


def test_invalid_arguments(tmp_path):
    with pytest.raises(ConfigError):
        MlpModel(0, (4,))
    with pytest.raises(ConfigError):
        MlpModel(3, (4, 0))
    with pytest.raises(ConfigError):
        Adam(lr=0.0)
    with pytest.raises(ConfigError):
        Adam(lr=0.1, weight_decay=-1.0)
    with pytest.raises(ConfigError):
        make_optimizer("sgd", 0.1)
    model = MlpModel(3, (4,))
    with pytest.raises(ConfigError):
        model.forward(np.zeros((2, 5)))
    with pytest.raises(ConfigError, match="length mismatch"):
        Adam(lr=0.1).step(model.params, model.params[:-1])


def _forward_reference(model, x):
    """forward as first written: np.where leaky ReLU, a fresh array per step."""
    acts, preacts, h = [x], [], x
    for layer in range(model.n_layers):
        u = h @ model.params[2 * layer] + model.params[2 * layer + 1]
        preacts.append(u)
        if layer < model.n_layers - 1:
            h = np.where(u > 0.0, u, LEAKY_SLOPE * u)
            acts.append(h)
    return acts, preacts


def _backward_reference(model, acts, preacts, delta, d_features=None):
    grads = [None] * len(model.params)
    last = model.n_layers - 1
    grads[2 * last] = acts[-1].T @ delta
    grads[2 * last + 1] = delta.sum(axis=0)
    d_h = delta @ model.params[2 * last].T
    if d_features is not None:
        d_h += d_features
    for layer in range(last - 1, -1, -1):
        d_u = d_h * np.where(preacts[layer] > 0.0, 1.0, LEAKY_SLOPE)
        grads[2 * layer] = acts[layer].T @ d_u
        grads[2 * layer + 1] = d_u.sum(axis=0)
        d_h = d_u @ model.params[2 * layer].T
    return grads


@pytest.mark.parametrize("widths", [(), (64,) * 9, (32, 64, 8)])
@pytest.mark.parametrize("n_rows", [1, 256, 2000])
def test_predict_and_forward_bitwise_equal_reference(widths, n_rows):
    rng = np.random.default_rng(n_rows)
    model = MlpModel(7, widths, seed=3)
    x = rng.standard_normal((n_rows, 7))
    acts, preacts = _forward_reference(model, x)
    feats, pred, cache = model.forward(x)
    assert np.array_equal(pred, preacts[-1])
    assert np.array_equal(feats, acts[-1])
    first, second = model.predict(x), model.predict(x)
    assert np.array_equal(first, pred) and np.array_equal(second, pred)
    assert first is not second and not np.shares_memory(first, second)
    delta = rng.standard_normal(pred.shape)
    for g, e in zip(model.backward(cache, delta),
                    _backward_reference(model, acts, preacts, delta)):
        assert np.array_equal(g, e)


def _same_floats(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_leaky_relu_matches_where_form_on_special_values():
    u = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320, -2.5, 3.0]]).T
    # max(u, s u) is the where form for every s in (0, 1]
    for slope in (LEAKY_SLOPE, 0.5, 1.0, 1e-300):
        assert _same_floats(np.maximum(u, u * slope), np.where(u > 0.0, u, slope * u))
    # through the model: u = x * 1 + (-0); BLAS turns -0 into +0 on the way
    model = MlpModel(1, (1,), seed=0)
    model.params[0] = np.ones((1, 1))
    model.params[1] = np.array([-0.0])
    feats, _, cache = model.forward(u)
    pre = cache["preacts"][0]
    assert _same_floats(feats, np.where(pre > 0.0, pre, LEAKY_SLOPE * pre))
    assert _same_floats(model.predict(u), model.forward(u)[1])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_leaky_relu_derivative_matches_where_form_on_special_values():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320, -2.5, 3.0])
    n = special.size
    # every pre-activation meets every upstream gradient: row i holds u = special[i],
    # column j injects d_h = special[j] at the feature node
    u = np.repeat(special[:, None], n, axis=1)
    d_features = np.repeat(special[None, :], n, axis=0)
    model = MlpModel(1, (n,), seed=0)
    h = np.where(u > 0.0, u, LEAKY_SLOPE * u)
    cache = {"acts": [np.ones((n, 1)), h], "preacts": [u, np.zeros((n, 1))]}
    delta = np.zeros((n, 1))
    got = model.backward(cache, delta, d_features)
    want = _backward_reference(model, cache["acts"], cache["preacts"], delta, d_features)
    for g, e in zip(got, want):
        assert _same_floats(g, e)
    # the per-element product itself, before any reduction, for every s in (0, 1]
    for slope in (LEAKY_SLOPE, 0.3, 1.0, 5e-324):
        d_u = np.greater(u, 0.0).astype(np.float64)
        d_u *= 1.0 - slope
        d_u += slope
        assert _same_floats(d_u * d_features, d_features * np.where(u > 0.0, 1.0, slope))


def _adam_reference(opt, params, grads, state):
    """Adam.step as first written, one temporary per operation."""
    if state["m"] is None:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    state["t"] += 1
    bc1 = 1.0 - opt.beta1**state["t"]
    bc2 = 1.0 - opt.beta2**state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        if not opt.decoupled and opt.weight_decay > 0.0:
            g = g + opt.weight_decay * p
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        if opt.decoupled and opt.weight_decay > 0.0:
            update = update + opt.weight_decay * p
        p -= opt.lr * update


@pytest.mark.parametrize("cls", [Adam, AdamW])
@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
def test_adam_step_bitwise_equals_reference(cls, weight_decay):
    rng = np.random.default_rng(8)
    shapes = [(7, 64), (64,), (64, 1), (1,)]
    params = [rng.standard_normal(s) for s in shapes]
    ref_params = [p.copy() for p in params]
    opt = cls(lr=1e-3, weight_decay=weight_decay)
    ref = cls(lr=1e-3, weight_decay=weight_decay)
    state = {"m": None, "v": None, "t": 0}
    for _ in range(5):
        grads = [rng.standard_normal(s) for s in shapes]
        kept = [g.copy() for g in grads]
        opt.step(params, grads)
        _adam_reference(ref, ref_params, grads, state)
        # the step never writes into the caller's gradients
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))
        for p, e in zip(params, ref_params):
            assert np.array_equal(p, e)
    for got, want in zip(opt.m + opt.v, state["m"] + state["v"]):
        assert np.array_equal(got, want)
