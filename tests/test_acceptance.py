"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion NN <name>: PASS/FAIL" line before
asserting, so a red run still reports every criterion it reached. Tolerances
are asserted as stated; nothing is loosened to force a green run.
"""

import time

import numpy as np

from circe.baselines import gcm_with_grad
from circe.cme import fit_cme, loo_error
from circe.estimator import centered_gram, circe_statistic
from circe.kernels import KernelParams, gram, regularized_solve
from circe.harness import SweepConfig, run_sweep
from circe.nn import MlpModel
from circe.rff import precompute_rff_weights, rff_centered_gram, sample_rff
from circe.scm import SCM_CASES, gen_scm, regenerate
from circe.trainer import TrainBatch, TrainConfig, loss_and_grad, train
from oracles import (
    gen_nonlinear_gcm_case,
    gen_toy,
    intervene_z,
    toy_batch,
    train_data_from_toy,
)


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok


def _ci_batch(b, seed):
    """y, z = y^2 + noise, and x depending on y only (CI given y)."""
    r = np.random.default_rng(seed)
    y = r.standard_normal((b, 1))
    z = y**2 + r.standard_normal((b, 1))
    x = np.sin(2 * y) + 0.3 * r.standard_normal((b, 1))
    return y, z, x


def test_criterion_01_loo_oracle_equivalence():
    t0 = time.time()
    m = 30
    worst = 0.0
    for inst in range(20):
        r = np.random.default_rng(400 + inst)
        y = r.standard_normal((m, 1))
        z = np.sin(y) + 0.5 * r.standard_normal((m, 1))
        lam = 10.0 ** r.uniform(-3, 0)
        yp = KernelParams(10.0 ** r.uniform(-1.5, 0.5))
        zp = KernelParams(10.0 ** r.uniform(-1.5, 0.5))
        closed = loo_error(y, z, lam, yp, zp)

        k_zz_full = gram(z, z, zp)
        total = 0.0
        for i in range(m):
            keep = np.delete(np.arange(m), i)
            k_yy = gram(y[keep], y[keep], yp)
            beta = regularized_solve(k_yy, lam, gram(y[keep], y[[i]], yp))
            k_zi = gram(z[keep], z[[i]], zp)
            total += float(
                k_zz_full[i, i]
                - 2.0 * beta[:, 0] @ k_zi[:, 0]
                + beta[:, 0] @ k_zz_full[np.ix_(keep, keep)] @ beta[:, 0]
            )
        naive = total / m
        worst = max(worst, abs(closed - naive) / abs(naive))
    wall = time.time() - t0
    ok = worst <= 1e-8 and wall < 10
    assert _report(1, "loo oracle equivalence", ok,
                   f"max rel err {worst:.2e}, {wall:.1f} s")


def test_criterion_02_gradient_fidelity():
    t0 = time.time()
    b, step = 16, 1e-6
    r = np.random.default_rng(77)
    y = r.standard_normal((b, 1))
    z = y**2 + r.standard_normal((b, 1))
    inputs = np.hstack([y + 0.3 * r.standard_normal((b, 1)), z])
    targets = np.sin(y) + 0.1 * r.standard_normal((b, 1))
    batch = TrainBatch(inputs=inputs, targets=targets, y=y, z=z)
    hold_r = np.random.default_rng(78)
    hy = hold_r.standard_normal((40, 1))
    hz = hy**2 + hold_r.standard_normal((40, 1))
    cme = fit_cme(hy, hz, 0.01, KernelParams(1.0), KernelParams(1.0))

    worst = 0.0
    for method in ("circe", "hscic", "gcm"):
        gamma = 0.05 if method == "gcm" else 5.0
        config = TrainConfig(method=method, gamma=gamma, hidden_widths=(3, 4),
                             batch_size=b, seed=0)
        model = MlpModel(2, (3, 4), seed=11)
        centered = None
        if method == "circe":
            centered = centered_gram(batch.y, batch.z, cme, cme.y_params, cme.z_params)
        _, grads, _ = loss_and_grad(model, batch, config, centered)
        for pi, p in enumerate(model.params):
            flat = p.ravel()
            for j in range(flat.size):
                old = flat[j]
                flat[j] = old + step
                up, _, _ = loss_and_grad(model, batch, config, centered)
                flat[j] = old - step
                dn, _, _ = loss_and_grad(model, batch, config, centered)
                flat[j] = old
                fd = (up - dn) / (2 * step)
                an = grads[pi].ravel()[j]
                if abs(fd) > 1e-10:
                    worst = max(worst, abs(an - fd) / abs(fd))
    wall = time.time() - t0
    ok = worst <= 1e-5 and wall < 30
    assert _report(2, "gradient fidelity", ok,
                   f"max rel err {worst:.2e}, {wall:.1f} s")


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def _draw_discrete(n, r):
    y = r.standard_normal((n, 1))
    z = np.where(r.uniform(size=(n, 1)) < _sigmoid(2 * y), 1.0, -1.0)
    return y, z


def _oracle_centered(y, z, params):
    """Exact conditionally centered Gram for the two-atom distractor."""
    p = _sigmoid(2 * y)
    atoms = np.array([[1.0], [-1.0]])
    w = np.hstack([p, 1.0 - p])
    mu_at_z = w @ gram(z, atoms, params).T
    q = w @ gram(atoms, atoms, params) @ w.T
    k_yy = gram(y, y, params)
    k_zz = gram(z, z, params)
    return k_yy * (k_zz - mu_at_z - mu_at_z.T + q)


def test_criterion_03_zero_and_oracle_behavior():
    t0 = time.time()
    params = KernelParams(1.0)

    # interpolating fit with z = y: separated points and a narrow bandwidth
    # keep the Gram well conditioned so lam 1e-8 interpolates cleanly
    narrow = KernelParams(0.01)
    pts = np.linspace(-3, 3, 32).reshape(-1, 1)
    cme = fit_cme(pts, pts, 1e-8, narrow, narrow)
    r = np.random.default_rng(31)
    x = np.cos(pts) + 0.2 * r.standard_normal((32, 1))
    cg = centered_gram(pts, pts, cme, narrow, narrow)
    zero_val = abs(circe_statistic(gram(x, x, params), cg, "plain").value)

    # regression gap to the analytic oracle shrinks with holdout size
    gaps = {50: [], 200: [], 800: []}
    for s in range(20):
        r = np.random.default_rng(100 + s)
        y, z = _draw_discrete(200, r)
        x = 0.5 * z + np.sin(y) + 0.2 * r.standard_normal((200, 1))
        kxx = gram(x, x, params)
        s_oracle = circe_statistic(kxx, _oracle_centered(y, z, params),
                                   "plain").value
        for m in gaps:
            hy, hz = _draw_discrete(m, np.random.default_rng(7000 + 13 * s + m))
            fit = fit_cme(hy, hz, 0.01, params, params)
            s_reg = circe_statistic(
                kxx, centered_gram(y, z, fit, params, params), "plain").value
            gaps[m].append(abs(s_reg - s_oracle))
    meds = [float(np.median(gaps[m])) for m in (50, 200, 800)]
    wall = time.time() - t0
    ok = zero_val <= 1e-6 and meds[0] > meds[1] > meds[2] and wall < 120
    assert _report(3, "zero and oracle behavior", ok,
                   f"interp {zero_val:.2e}, gaps {meds[0]:.2e}>{meds[1]:.2e}>"
                   f"{meds[2]:.2e}, {wall:.1f} s")


def test_criterion_04_separation():
    t0 = time.time()
    params = KernelParams(1.0)
    rng = np.random.default_rng(999)
    hy = rng.standard_normal((1000, 1))
    hz = hy**2 + rng.standard_normal((1000, 1))
    cme = fit_cme(hy, hz, 0.01, params, params)
    deps, ctls = [], []
    for s in range(20):
        r = np.random.default_rng(200 + s)
        y = r.standard_normal((256, 1))
        z = y**2 + r.standard_normal((256, 1))
        z_indep = y**2 + r.standard_normal((256, 1))
        noise = 0.3 * r.standard_normal((256, 1))
        x_dep, x_ctl = z + noise, z_indep + noise
        cg = centered_gram(y, z, cme, params, params)
        deps.append(circe_statistic(gram(x_dep, x_dep, params), cg, "plain").value)
        ctls.append(circe_statistic(gram(x_ctl, x_ctl, params), cg, "plain").value)
    ratio = float(np.median(deps) / np.median(ctls))
    wall = time.time() - t0
    ok = ratio >= 10.0 and wall < 120
    assert _report(4, "separation", ok, f"ratio {ratio:.1f}, {wall:.1f} s")


def test_criterion_05_rate():
    t0 = time.time()
    params = KernelParams(1.0)
    rng = np.random.default_rng(999)
    hy = rng.standard_normal((100, 1))
    hz = hy**2 + rng.standard_normal((100, 1))
    cme = fit_cme(hy, hz, 0.1, params, params)

    def stat(b, seed):
        y, z, x = _ci_batch(b, seed)
        cg = centered_gram(y, z, cme, params, params)
        return circe_statistic(gram(x, x, params), cg, "plain").value

    s64 = [stat(64, 10_000 + s) for s in range(50)]
    s256 = [stat(256, 20_000 + s) for s in range(50)]
    ratio = float(np.std(s64, ddof=1) / np.std(s256, ddof=1))
    wall = time.time() - t0
    ok = 1.4 <= ratio <= 2.9 and wall < 300
    assert _report(5, "rate", ok, f"sd ratio {ratio:.2f}, {wall:.1f} s")


def test_criterion_06_rff_convergence():
    t0 = time.time()
    pts = np.random.default_rng(0).standard_normal((128, 1))
    k_exact = gram(pts, pts, KernelParams(1.0))
    medians = []
    for d in (256, 1024, 4096):
        maes = []
        for s in range(10):
            phi = sample_rff(1, d, 1.0, seed=s).features(pts)
            maes.append(float(np.mean(np.abs(phi @ phi.T - k_exact))))
        medians.append(float(np.median(maes)))
    monotone = medians[0] > medians[1] > medians[2]

    hold = gen_scm("uni1", 256, 1, seed=123)
    batch = gen_scm("uni1", 256, 1, seed=456)
    params = KernelParams(1.0)
    cme = fit_cme(hold.y, hold.z, 0.01, params, params)
    kxx = gram(batch.b, batch.b, params)
    exact = circe_statistic(
        kxx, centered_gram(batch.y, batch.z, cme, params, params),
        "plain").value
    ymap = sample_rff(1, 8192, 1.0, seed=3)
    zmap = sample_rff(1, 8192, 1.0, seed=4)
    weights = precompute_rff_weights(cme, ymap, zmap)
    approx = circe_statistic(
        kxx, rff_centered_gram(batch.y, batch.z, weights, ymap, zmap, 8192),
        "plain").value
    err = abs(approx - exact)
    tol = 0.05 * abs(exact) + 1e-3
    wall = time.time() - t0
    ok = monotone and err <= tol and wall < 180
    assert _report(6, "rff convergence", ok,
                   f"maes {medians[0]:.4f}>{medians[1]:.4f}>{medians[2]:.4f}, "
                   f"err {err:.2e} vs tol {tol:.2e}, {wall:.1f} s")


def test_criterion_07_toy_analytic():
    t0 = time.time()
    toy = gen_toy(8192, 1.0, 1.0, 1.0, shifted=False, seed=0)
    ood = toy_batch(gen_toy(8192, 1.0, 1.0, 1.0, shifted=True, seed=1))
    data = train_data_from_toy(toy)

    def ood_mse(model):
        return float(np.mean((model.predict(ood.inputs) - ood.targets) ** 2))

    base = TrainConfig(method="none", batch_size=256, epochs=60, lr=1e-2,
                       weight_decay=0.0, hidden_widths=(), seed=4)
    m0, _ = train(base, data)
    w0 = m0.params[0][:, 0]
    w1_err = abs(w0[0] - 0.5) / 0.5
    ood0 = ood_mse(m0)

    hold = gen_toy(256, 1.0, 1.0, 1.0, shifted=False, seed=106)
    cme = fit_cme(hold.y, hold.z, 0.01, KernelParams(2.0), KernelParams(1.0))
    m1, _ = train(base.replace(method="circe", gamma=1e3, sigma2_x=2.0),
                     data, cme_model=cme)
    w1 = m1.params[0][:, 0]
    ood1 = ood_mse(m1)
    wall = time.time() - t0
    ok = w1_err <= 0.05 and abs(w1[1]) <= 0.05 and ood1 < ood0 and wall < 60
    assert _report(7, "toy analytic solutions", ok,
                   f"w1 rel err {w1_err:.3f}, |w2| {abs(w1[1]):.3f}, "
                   f"ood {ood1:.3f} vs {ood0:.3f}, {wall:.1f} s")


def test_criterion_08_desk_scale_reproduction():
    # the ten runs as one sweep of five cells, each prepared once for its
    # none and circe rows, in two pool workers
    t0 = time.time()
    cfg = SweepConfig(cases=("uni1",), methods=("none", "circe"),
                      gammas={"none": [0.0], "circe": [1e4]}, seeds=(0, 1, 2, 3, 4))
    records, any_unstable = run_sweep(cfg, workers=2)
    assert not any_unstable
    medians = {}
    for method in ("none", "circe"):
        rows = [r for r in records if r.method == method]
        assert len(rows) == 5
        medians[method] = (float(np.median([r.mse_in for r in rows])),
                           float(np.median([r.vcf for r in rows])))
    mse0, vcf0 = medians["none"]
    mse1, vcf1 = medians["circe"]
    wall = time.time() - t0
    checks = {
        "unreg vcf in [0.05,0.5]": 0.05 <= vcf0 <= 0.5,
        "unreg mse <= 1e-2": mse0 <= 1e-2,
        "circe vcf <= 1e-4": vcf1 <= 1e-4,
        "circe mse in [0.15,0.25]": 0.15 <= mse1 <= 0.25,
        "runtime < 30 min": wall < 1800,
    }
    ok = all(checks.values())
    failed = ", ".join(k for k, v in checks.items() if not v) or "none"
    assert _report(8, "desk-scale reproduction", ok,
                   f"unreg mse {mse0:.3g} vcf {vcf0:.3g}; circe mse {mse1:.3g} "
                   f"vcf {vcf1:.3g}; failed: {failed}; {wall:.0f} s")


def test_criterion_09_gcm_failure_mode():
    t0 = time.time()
    alpha, sz, b = 1.0, 1.5, 512
    params = KernelParams(1.0)
    hold = gen_nonlinear_gcm_case(2000, alpha, sz, 1.0, seed=999)
    cme = fit_cme(hold.y, hold.z, 0.01, params, params)
    below, deps, ctls = 0, [], []
    for s in range(50):
        batch = gen_nonlinear_gcm_case(b, alpha, sz, 1.0, seed=1000 + s)
        if gcm_with_grad(batch.a, batch.z, batch.y, params, 0.01)[0].value < 1.96:
            below += 1
        kxx = gram(batch.a, batch.a, params)
        cg = centered_gram(batch.y, batch.z, cme, params, params)
        deps.append(circe_statistic(kxx, cg, "plain").value)
        r = np.random.default_rng(5000 + s)
        a_ctrl = np.hstack(
            [batch.y + alpha * (sz * r.standard_normal((b, 1)))**2,
             batch.a[:, 1:2]])
        ctls.append(circe_statistic(gram(a_ctrl, a_ctrl, params), cg,
                                    "plain").value)
    ratio = float(np.median(deps) / np.median(ctls))
    wall = time.time() - t0
    ok = below >= 40 and ratio >= 10.0 and wall < 300
    assert _report(9, "gcm failure mode", ok,
                   f"below quantile {below}/50, ratio {ratio:.1f}, {wall:.1f} s")


def test_criterion_10_bias_ordering():
    t0 = time.time()
    params = KernelParams(1.0)
    rng = np.random.default_rng(999)
    hy = rng.standard_normal((300, 1))
    hz = hy**2 + rng.standard_normal((300, 1))
    cme = fit_cme(hy, hz, 0.01, params, params)
    plain, debiased = [], []
    for s in range(100):
        y, z, x = _ci_batch(64, 3000 + s)
        kxx = gram(x, x, params)
        cg = centered_gram(y, z, cme, params, params)
        plain.append(circe_statistic(kxx, cg, "plain").value)
        debiased.append(circe_statistic(kxx, cg, "debiased").value)
    mp, md = abs(float(np.mean(plain))), abs(float(np.mean(debiased)))
    wall = time.time() - t0
    ok = md < mp and wall < 180
    assert _report(10, "bias ordering", ok,
                   f"|mean| debiased {md:.2e} < plain {mp:.2e}, {wall:.1f} s")


def test_criterion_11_counterfactual_reconstruction():
    t0 = time.time()
    worst = 0.0
    for case in SCM_CASES:
        d = 1 if case.startswith("uni") else 3
        batch = gen_scm(case, 1000, d, seed=42)
        a_new, b_new = regenerate(batch, batch.z)
        worst = max(worst,
                    float(np.max(np.abs(a_new - batch.a))),
                    float(np.max(np.abs(b_new - batch.b))))
        point = intervene_z(batch, 7, batch.z[7])
        worst = max(worst,
                    float(np.max(np.abs(point["a"] - batch.a[7]))),
                    float(np.max(np.abs(point["b"] - batch.b[7]))))
    wall = time.time() - t0
    ok = worst <= 1e-12 and wall < 5
    assert _report(11, "counterfactual reconstruction", ok,
                   f"max deviation {worst:.2e}, {wall:.1f} s")
