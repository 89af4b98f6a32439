"""Attack semantics: projection arithmetic, gradient directions, ball
containment, black-box purity, and determinism."""

import gc

import numpy as np
import pytest

from conftest import make_mlp
from virlab import attacks
from virlab.attacks import (AttackFamily, AttackSpec, LossMode, cw_pgd, fgsm,
                            min_pgd_steps, pgd, project_linf, run_attack,
                            spsa, spsa_gradient_estimate)
from virlab.errors import ConfigError, NonFiniteError, ShapeError
from virlab.models import Arch, Classifier, ConvStem, predict_probs
from virlab.tensor import Tensor, cross_entropy_rows, kl_divergence, softmax


def linear_model(d=4, classes=3, seed=0):
    """Single dense layer: logits are affine in x, so CE is convex in x."""
    return make_mlp((d, classes), seed=seed)


def ce_sum(model, x, y) -> float:
    return cross_entropy_rows(model.forward(Tensor(x)), y).sum().item()


# -- the projection --------------------------------------------------------------


def test_project_linf_clamps_to_ball():
    out = project_linf(np.array([0.8]), np.array([0.5]), 8.0 / 255.0)
    np.testing.assert_allclose(out, [0.5 + 8.0 / 255.0], rtol=1e-12)
    np.testing.assert_allclose(out, [0.5313725490196078], rtol=1e-12)


def test_project_linf_applies_bounds_after_ball():
    out = project_linf(np.array([-0.5]), np.array([0.02]), 0.1, bounds=(0.0, 1.0))
    np.testing.assert_array_equal(out, [0.0])


def test_project_linf_is_idempotent(rng):
    x_nat = rng.uniform(-1.0, 2.0, size=(6, 5))
    x_adv = x_nat + rng.uniform(-3, 3, size=(6, 5))
    once = project_linf(x_adv, x_nat, 0.3, bounds=(-1.0, 2.0))
    twice = project_linf(once, x_nat, 0.3, bounds=(-1.0, 2.0))
    np.testing.assert_array_equal(once, twice)
    assert np.abs(once - x_nat).max() <= 0.3 + 1e-15


def test_project_linf_validation():
    with pytest.raises(ConfigError):
        project_linf(np.ones(3), np.ones(3), 0.0)
    with pytest.raises(ShapeError):
        project_linf(np.ones(3), np.ones(4), 0.1)


# -- spec validation -------------------------------------------------------------


def test_attack_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.FGSM, epsilon=-0.1)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.PGD, epsilon=0.1)  # no step size
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.01, iterations=0)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.FGSM, epsilon=0.1, loss_mode=LossMode.KL)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.SPSA, epsilon=0.1, spsa_samples=1)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.SPSA, epsilon=0.1, spsa_perturb=0.0)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.FGSM, epsilon=0.1, bounds=(1.0, 0.0))
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.FGSM, epsilon=0.1, start_noise_scale=-1.0)
    spec = AttackSpec("PGD", epsilon=0.1, step_size=0.02, loss_mode="KL")
    assert spec.family is AttackFamily.PGD and spec.loss_mode is LossMode.KL


def test_family_mismatch_rejected(rng):
    model = linear_model()
    x = rng.standard_normal((2, 4))
    y = np.array([0, 1])
    pgd_spec = AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.02)
    with pytest.raises(ConfigError):
        fgsm(model, x, y, pgd_spec)
    with pytest.raises(ConfigError):
        cw_pgd(model, x, y, pgd_spec)
    with pytest.raises(ConfigError):
        spsa(model, x, y, pgd_spec)
    with pytest.raises(ConfigError):
        pgd(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=0.1))


# -- FGSM ------------------------------------------------------------------------


def test_fgsm_epsilon_zero_is_identity_copy(rng):
    model = linear_model()
    x = rng.standard_normal((3, 4))
    y = np.array([0, 1, 2])
    out = fgsm(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=0.0))
    np.testing.assert_array_equal(out, x)
    assert out is not x and not np.shares_memory(out, x)


def test_fgsm_takes_signed_gradient_step(rng):
    model = linear_model(d=4, classes=3, seed=2)
    x = rng.standard_normal((5, 4))
    y = np.array([0, 1, 2, 0, 1])
    eps = 0.25
    out = fgsm(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=eps))
    w = model.params["dense0.weight"].data
    probs = predict_probs(model, x)
    probs[np.arange(5), y] -= 1.0
    grad = probs @ w.T
    np.testing.assert_allclose(out, x + eps * np.sign(grad), rtol=1e-12)


def test_fgsm_never_decreases_loss_of_linear_model(rng):
    # CE of affine logits is convex in x, so f(x + eps*sign(grad)) >= f(x).
    for seed in range(5):
        model = linear_model(seed=seed)
        x = rng.standard_normal((8, 4))
        y = rng.integers(0, 3, size=8)
        out = fgsm(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=0.2))
        assert ce_sum(model, out, y) >= ce_sum(model, x, y) - 1e-12


def test_fgsm_zero_gradient_stays_put(rng):
    model = linear_model()
    model.params["dense0.weight"].data[:] = 0.0
    model.params["dense0.bias"].data[:] = 0.0
    x = rng.standard_normal((3, 4))
    out = fgsm(model, x, np.array([0, 1, 2]),
               AttackSpec(AttackFamily.FGSM, epsilon=0.5))
    np.testing.assert_array_equal(out, x)


def test_fgsm_respects_bounds(rng):
    model = linear_model()
    x = rng.uniform(0, 1, size=(4, 4))
    out = fgsm(model, x, np.array([0, 1, 2, 0]),
               AttackSpec(AttackFamily.FGSM, epsilon=0.9, bounds=(0.0, 1.0)))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_fgsm_label_validation(rng):
    model = linear_model()
    x = rng.standard_normal((2, 4))
    with pytest.raises(IndexError):
        fgsm(model, x, np.array([0, 3]), AttackSpec(AttackFamily.FGSM, epsilon=0.1))
    with pytest.raises(ShapeError):
        fgsm(model, x[0], np.array([0]), AttackSpec(AttackFamily.FGSM, epsilon=0.1))


# -- PGD -------------------------------------------------------------------------


def test_pgd_one_noiseless_step_equals_fgsm(rng):
    model = linear_model(seed=4)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    eps = 0.3
    got = pgd(model, x, y, AttackSpec(AttackFamily.PGD, epsilon=eps,
                                      step_size=eps, iterations=1,
                                      start_noise_scale=0.0))
    want = fgsm(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=eps))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_pgd_epsilon_zero_is_identity(rng):
    model = linear_model()
    x = rng.standard_normal((3, 4))
    out = pgd(model, x, np.array([0, 1, 2]),
              AttackSpec(AttackFamily.PGD, epsilon=0.0, step_size=0.1))
    np.testing.assert_array_equal(out, x)


def test_pgd_stays_in_ball_and_bounds(rng):
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.uniform(0, 1, size=(10, 4))
    y = rng.integers(0, 3, size=10)
    eps = 0.15
    spec = AttackSpec(AttackFamily.PGD, epsilon=eps, step_size=0.05,
                      iterations=7, bounds=(0.0, 1.0), seed=11)
    out = pgd(model, x, y, spec)
    assert np.abs(out - x).max() <= eps + 1e-12
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_pgd_more_iterations_does_not_hurt_on_linear(rng):
    # On convex CE the multi-step noiseless ascent ends at least as high as
    # one full-budget step from the same start.
    model = linear_model(seed=6)
    x = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)
    eps = 0.4
    one = pgd(model, x, y, AttackSpec(AttackFamily.PGD, epsilon=eps,
                                      step_size=eps, iterations=1,
                                      start_noise_scale=0.0))
    many = pgd(model, x, y, AttackSpec(AttackFamily.PGD, epsilon=eps,
                                       step_size=eps / 5, iterations=20,
                                       start_noise_scale=0.0))
    assert ce_sum(model, many, y) >= ce_sum(model, one, y) - 1e-9


def test_pgd_kl_mode_takes_its_reference_from_the_model(rng):
    model = make_mlp((4, 8, 3), seed=2)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.3, step_size=0.05,
                      iterations=4, loss_mode=LossMode.KL, seed=9,
                      start_noise_scale=0.01, bounds=(-1.0, 1.0))
    # Oracle: the loop with the natural prediction handed in as a constant.
    ref = Tensor(predict_probs(model, x))
    cur = x.copy()
    for i in range(len(x)):
        row = np.random.default_rng(np.random.PCG64(spec.seed ^ i))
        cur[i] += spec.start_noise_scale * row.standard_normal(x.shape[1])
    for _ in range(spec.iterations):
        x_t = Tensor(cur, requires_grad=True)
        kl_divergence(ref, softmax(model.forward(x_t))).sum().backward()
        cur = project_linf(cur + spec.step_size * np.sign(x_t.grad), x,
                           spec.epsilon, spec.bounds)
    model.zero_grad()
    np.testing.assert_array_equal(pgd(model, x, y, spec), cur)


def test_pgd_kl_mode_increases_divergence(rng):
    model = make_mlp((4, 8, 3), seed=2)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    ref = predict_probs(model, x)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.5, step_size=0.1,
                      iterations=10, loss_mode=LossMode.KL, seed=3)
    out = pgd(model, x, y, spec)
    kl_adv = kl_divergence(Tensor(ref), Tensor(predict_probs(model, out))).data
    assert kl_adv.sum() > 0.0


def test_pgd_rejects_margin_mode():
    with pytest.raises(ConfigError, match="CW_PGD"):
        AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.02,
                   loss_mode=LossMode.CW_MARGIN)


OWN_LOSS = {AttackFamily.FGSM: LossMode.CE, AttackFamily.PGD: LossMode.CE,
            AttackFamily.CW_PGD: LossMode.CW_MARGIN, AttackFamily.SPSA: LossMode.CE}


@pytest.mark.parametrize("family", list(AttackFamily))
@pytest.mark.parametrize("mode", [None] + list(LossMode))
def test_each_family_owns_its_loss_mode(family, mode):
    # None resolves to the family's own loss; PGD may also ascend KL, and
    # every other pairing would record a loss the attack never runs.
    valid = mode in (None, OWN_LOSS[family]) or (family, mode) == (
        AttackFamily.PGD, LossMode.KL)
    if not valid:
        with pytest.raises(ConfigError, match=family.value):
            AttackSpec(family, epsilon=0.1, step_size=0.02, loss_mode=mode)
        return
    spec = AttackSpec(family, epsilon=0.1, step_size=0.02, loss_mode=mode)
    assert spec.loss_mode is (OWN_LOSS[family] if mode is None else mode)


def test_pgd_is_deterministic_in_seed(rng):
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.2, step_size=0.05,
                      iterations=5, seed=99)
    np.testing.assert_array_equal(pgd(model, x, y, spec), pgd(model, x, y, spec))


def test_pgd_start_noise_is_per_sample_not_per_batch(rng):
    # Sample i's noise stream is keyed by seed XOR i, so prepending a row
    # must not change what happens to the rows that were already there...
    # but indices shift. The invariant that MUST hold: the same batch run
    # twice gives the same noise, and two distinct samples get distinct noise.
    model = linear_model()
    x = np.zeros((2, 4))
    y = np.array([0, 0])
    spec = AttackSpec(AttackFamily.PGD, epsilon=1.0, step_size=1e-9,
                      iterations=1, start_noise_scale=0.5, seed=5)
    out = pgd(model, x, y, spec)
    assert not np.array_equal(out[0], out[1])


# -- the least-steps probe -------------------------------------------------------


def test_min_pgd_steps_zero_for_already_misclassified(rng):
    model = linear_model(seed=1)
    x = rng.standard_normal((20, 4))
    pred = np.argmax(predict_probs(model, x), axis=1)
    wrong_y = (pred + 1) % 3  # every sample starts misclassified
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.02,
                      iterations=5, start_noise_scale=0.0)
    np.testing.assert_array_equal(min_pgd_steps(model, x, wrong_y, spec),
                                  np.zeros(20, dtype=np.int64))


def test_min_pgd_steps_full_budget_when_unbreakable(rng):
    model = linear_model(seed=1)
    x = rng.standard_normal((20, 4)) * 3.0
    pred = np.argmax(predict_probs(model, x), axis=1)
    spec = AttackSpec(AttackFamily.PGD, epsilon=1e-8, step_size=1e-9,
                      iterations=4, start_noise_scale=0.0)
    k = min_pgd_steps(model, x, pred, spec)
    np.testing.assert_array_equal(k, np.full(20, 4, dtype=np.int64))


def test_min_pgd_steps_range_and_mode_check(rng):
    model = make_mlp((4, 8, 3), seed=3)
    x = rng.standard_normal((16, 4))
    y = rng.integers(0, 3, size=16)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.5, step_size=0.1, iterations=6)
    k = min_pgd_steps(model, x, y, spec)
    assert k.dtype == np.int64
    assert k.min() >= 0 and k.max() <= 6
    with pytest.raises(ConfigError):
        min_pgd_steps(model, x, y,
                      AttackSpec(AttackFamily.PGD, epsilon=0.5, step_size=0.1,
                                 iterations=6, loss_mode=LossMode.KL))
    with pytest.raises(ConfigError):
        min_pgd_steps(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=0.5))


def test_min_pgd_steps_epsilon_zero_splits_on_current_prediction(rng):
    model = linear_model(seed=1)
    x = rng.standard_normal((10, 4))
    pred = np.argmax(predict_probs(model, x), axis=1)
    y = pred.copy()
    y[:3] = (pred[:3] + 1) % 3
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.0, step_size=0.1, iterations=7)
    k = min_pgd_steps(model, x, y, spec)
    np.testing.assert_array_equal(k[:3], 0)
    np.testing.assert_array_equal(k[3:], 7)


# -- CW-PGD ----------------------------------------------------------------------


def margin_rows(model, x, y):
    z = model.forward(Tensor(x)).data
    z_true = z[np.arange(len(y)), y]
    masked = z.copy()
    masked[np.arange(len(y)), y] = -np.inf
    return masked.max(axis=1) - z_true


def test_cw_pgd_one_noiseless_step_never_decreases_margin(rng):
    model = linear_model(seed=7)
    x = rng.standard_normal((10, 4))
    y = rng.integers(0, 3, size=10)
    spec = AttackSpec(AttackFamily.CW_PGD, epsilon=0.3, step_size=0.3,
                      iterations=1, start_noise_scale=0.0)
    out = cw_pgd(model, x, y, spec)
    assert np.all(margin_rows(model, out, y) >= margin_rows(model, x, y) - 1e-12)


def test_cw_pgd_epsilon_zero_and_containment(rng):
    model = make_mlp((4, 8, 3), seed=2)
    x = rng.standard_normal((8, 4))
    y = rng.integers(0, 3, size=8)
    out0 = cw_pgd(model, x, y, AttackSpec(AttackFamily.CW_PGD, epsilon=0.0,
                                          step_size=0.1))
    np.testing.assert_array_equal(out0, x)
    spec = AttackSpec(AttackFamily.CW_PGD, epsilon=0.25, step_size=0.06,
                      iterations=8, seed=21)
    out = cw_pgd(model, x, y, spec)
    assert np.abs(out - x).max() <= 0.25 + 1e-12


def test_cw_pgd_positive_margin_means_misclassified(rng):
    model = make_mlp((4, 8, 3), seed=4)
    x = rng.standard_normal((16, 4))
    y = rng.integers(0, 3, size=16)
    spec = AttackSpec(AttackFamily.CW_PGD, epsilon=0.6, step_size=0.15,
                      iterations=10, seed=1)
    out = cw_pgd(model, x, y, spec)
    m = margin_rows(model, out, y)
    pred = np.argmax(predict_probs(model, out), axis=1)
    # strict positive margin implies the argmax is not y
    assert np.all(pred[m > 1e-9] != y[m > 1e-9])
    # strict negative margin implies correct
    assert np.all(pred[m < -1e-9] == y[m < -1e-9])


# -- SPSA ------------------------------------------------------------------------


def test_spsa_gradient_estimate_on_linear_function(rng):
    a = rng.standard_normal(10)
    est = spsa_gradient_estimate(lambda v: float(a @ v), np.zeros(10),
                                 num_samples=512, perturb=0.01,
                                 rng=np.random.default_rng(0))
    cos = (est @ a) / (np.linalg.norm(est) * np.linalg.norm(a))
    assert cos > 0.95


def test_spsa_epsilon_zero_and_containment(rng):
    model = make_mlp((4, 8, 3), seed=5)
    x = rng.standard_normal((3, 4))
    y = np.array([0, 1, 2])
    out0 = spsa(model, x, y, AttackSpec(AttackFamily.SPSA, epsilon=0.0))
    np.testing.assert_array_equal(out0, x)
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.2, iterations=3,
                      spsa_samples=8, spsa_lr=0.07, seed=2)
    out = spsa(model, x, y, spec)
    assert np.abs(out - x).max() <= 0.2 + 1e-12


def test_spsa_is_black_box(rng):
    # forward-only: no parameter may accumulate a gradient
    model = make_mlp((4, 8, 3), seed=5)
    x = rng.standard_normal((2, 4))
    y = np.array([0, 1])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, iterations=2,
                      spsa_samples=4, seed=0)
    spsa(model, x, y, spec)
    assert all(p.grad is None for p in model.params.values())


def test_spsa_increases_loss_on_easy_target(rng):
    model = linear_model(seed=3)
    x = rng.standard_normal((4, 4))
    y = np.argmax(predict_probs(model, x), axis=1)
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.5, iterations=8,
                      spsa_samples=32, spsa_lr=0.1, seed=7)
    out = spsa(model, x, y, spec)
    assert ce_sum(model, out, y) > ce_sum(model, x, y)


def test_spsa_deterministic_in_seed(rng):
    model = make_mlp((4, 8, 3), seed=5)
    x = rng.standard_normal((3, 4))
    y = np.array([2, 0, 1])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.2, iterations=2,
                      spsa_samples=6, seed=31)
    np.testing.assert_array_equal(spsa(model, x, y, spec),
                                  spsa(model, x, y, spec))


def old_spsa_gradient_estimate(f, x, num_samples, perturb, rng):
    """The estimator as one interleaved loop: f(x + d*r), then f(x - d*r),
    accumulated direction by direction."""
    directions = rng.integers(0, 2, size=(num_samples, x.size)) * 2.0 - 1.0
    estimate = np.zeros_like(x, dtype=np.float64)
    for r in directions:
        r = r.reshape(x.shape)
        delta = (f(x + perturb * r) - f(x - perturb * r)) / (2.0 * perturb)
        estimate += delta * r
    return estimate / num_samples


def batch1_ce(model, label):
    """CE of one row, scored by its own batch-1 forward."""
    def ce_value(row):
        z = model.forward(Tensor(row[None, :])).data
        m = z.max()
        return float(m + np.log(np.exp(z - m).sum()) - z[0, label])
    return ce_value


def batch1_spsa(model, x, y, spec):
    """SPSA with one forward per perturbed point: the batched attack's oracle."""
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        rng = np.random.default_rng(np.random.PCG64(spec.seed ^ i))
        cur = x[i].copy()
        for _ in range(spec.iterations):
            g = old_spsa_gradient_estimate(batch1_ce(model, y[i]), cur,
                                           spec.spsa_samples, spec.spsa_perturb, rng)
            cur = project_linf(cur + spec.spsa_lr * np.sign(g), x[i],
                               spec.epsilon, spec.bounds)
        out[i] = cur
    return out


def test_spsa_gradient_estimate_is_the_interleaved_loop(rng):
    a = rng.standard_normal((3, 4))
    x0 = rng.standard_normal((3, 4))
    for num_samples, perturb, seed in [(2, 0.1, 0), (7, 1e-3, 5), (64, 0.01, 9)]:
        calls = {"new": [], "old": []}

        def f(key):
            def value(v):
                calls[key].append(v.copy())
                return float(np.tanh(a * v).sum() + (v ** 2).sum() / 3.0)
            return value

        new = spsa_gradient_estimate(f("new"), x0, num_samples, perturb,
                                     np.random.default_rng(seed))
        old = old_spsa_gradient_estimate(f("old"), x0, num_samples, perturb,
                                         np.random.default_rng(seed))
        np.testing.assert_array_equal(new, old)
        assert len(calls["new"]) == len(calls["old"]) == 2 * num_samples
        for p_new, p_old in zip(calls["new"], calls["old"]):
            np.testing.assert_array_equal(p_new, p_old)


def test_batched_spsa_matches_the_batch1_oracle(rng):
    model = conv_model()
    # 2, 32 and 33 directions: below, at and just past one forward's rows
    for seed, num_samples in [(0, 2), (3, 32), (11, 33), (40, 100)]:
        spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, spsa_samples=num_samples,
                          seed=seed)
        for label in range(3):
            cur = rng.uniform(0.0, 1.0, size=30)
            batched = attacks._spsa_ce_estimate(
                model, cur, label, spec, np.random.default_rng(seed + label))
            oracle = old_spsa_gradient_estimate(
                batch1_ce(model, label), cur, num_samples, spec.spsa_perturb,
                np.random.default_rng(seed + label))
            # A batched forward may round a point's loss a few ulps apart
            # from a batch-1 one; each delta divides the difference of two
            # losses by 2 * perturb, so every component of the average can
            # move by about eps * loss / perturb, however small it is.
            loss = batch1_ce(model, label)(cur)
            atol = 4 * np.finfo(np.float64).eps * loss / spec.spsa_perturb
            np.testing.assert_allclose(batched, oracle, rtol=1e-12, atol=atol)
    x = rng.uniform(0.0, 1.0, size=(3, 30))
    y = np.array([2, 0, 1])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, iterations=3, spsa_samples=40,
                      spsa_lr=0.02, bounds=(0.0, 1.0), seed=7)
    np.testing.assert_array_equal(spsa(model, x, y, spec),
                                  batch1_spsa(model, x, y, spec))


def test_spsa_scores_points_in_capped_batched_forwards(rng):
    model = conv_model()
    rows = []
    forward = model.forward

    def counting_forward(x_t):
        rows.append(x_t.shape[0])
        return forward(x_t)

    model.forward = counting_forward
    x = rng.uniform(0.0, 1.0, size=(3, 30))
    y = np.array([0, 1, 2])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, iterations=2, spsa_samples=40,
                      seed=3)
    spsa(model, x, y, spec)
    points = 2 * spec.spsa_samples
    forwards_per_iteration = -(-points // attacks._SPSA_ROWS)
    assert max(rows) == attacks._SPSA_ROWS
    assert sum(rows) == points * spec.iterations * len(x)
    assert len(rows) == forwards_per_iteration * spec.iterations * len(x)


# -- dispatch --------------------------------------------------------------------


def test_run_attack_dispatches_each_family(rng):
    model = make_mlp((4, 8, 3), seed=6)
    x = rng.standard_normal((4, 4))
    y = rng.integers(0, 3, size=4)
    cases = [
        (AttackSpec(AttackFamily.FGSM, epsilon=0.1), fgsm),
        (AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.03, seed=1), pgd),
        (AttackSpec(AttackFamily.CW_PGD, epsilon=0.1, step_size=0.03, seed=1), cw_pgd),
        (AttackSpec(AttackFamily.SPSA, epsilon=0.1, spsa_samples=4,
                    iterations=2, seed=1), spsa),
    ]
    for spec, fn in cases:
        np.testing.assert_array_equal(run_attack(model, x, y, spec),
                                      fn(model, x, y, spec))


# -- what attacks leave behind ---------------------------------------------------


def conv_model(seed=4) -> Classifier:
    stem = ConvStem(height=6, width=5, filters=2, kernel_size=3)
    return Classifier(Arch((stem.out_dim, 4, 3), conv=stem), seed=seed)


def test_attacks_leave_the_model_untouched(rng):
    model = conv_model()
    x = rng.uniform(0.0, 1.0, size=(4, 30))
    y = np.array([0, 1, 2, 0])
    pgd_ce = AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.03,
                        iterations=3, seed=1)
    # Every attack checks its logits, so a NaN weight makes it raise
    # NonFiniteError inside the frozen block.
    cases = {
        "fgsm": lambda: run_attack(model, x, y, AttackSpec(AttackFamily.FGSM,
                                                           epsilon=0.1)),
        "pgd": lambda: run_attack(model, x, y, pgd_ce),
        "pgd_kl": lambda: run_attack(
            model, x, y, AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.03,
                                    iterations=2, loss_mode=LossMode.KL, seed=1)),
        "min_pgd_steps": lambda: min_pgd_steps(model, x, y, pgd_ce),
        "cw_pgd": lambda: run_attack(
            model, x, y, AttackSpec(AttackFamily.CW_PGD, epsilon=0.1,
                                    step_size=0.03, iterations=2, seed=1)),
        "spsa": lambda: run_attack(
            model, x, y, AttackSpec(AttackFamily.SPSA, epsilon=0.1,
                                    spsa_samples=4, seed=1)),
    }

    def assert_untouched(name):
        for key, p in model.params.items():
            assert p.grad is None, (name, key)
            assert p.requires_grad is True, (name, key)

    for name, attack in cases.items():
        model.zero_grad()
        attack()
        assert_untouched(name)

    model.params["dense0.weight"].data[0, 0] = np.nan
    for name, attack in cases.items():
        model.zero_grad()
        with pytest.raises(NonFiniteError):
            attack()
        assert_untouched(name)


def test_graphs_are_freed_by_refcount(rng):
    # A backward closure that referenced its own output tensor would make
    # every graph a reference cycle, alive until the cyclic collector runs.
    model = conv_model()
    x = rng.uniform(0.0, 1.0, size=(4, 30))
    y = np.array([0, 1, 2, 0])
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.03,
                      iterations=2, seed=1)

    def live_tensors() -> int:
        return sum(isinstance(o, Tensor) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_tensors()
        loss = cross_entropy_rows(model.forward(Tensor(x)), y).mean()
        loss.backward()
        assert live_tensors() > before
        del loss
        assert live_tensors() == before
        pgd(model, x, y, spec)
        assert live_tensors() == before
    finally:
        gc.enable()
