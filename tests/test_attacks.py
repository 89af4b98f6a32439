"""Attack semantics: projection arithmetic, gradient directions, ball
containment, black-box purity, and determinism."""

import ast
import gc
import inspect
import os
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import virlab
from conftest import make_mlp
from oracles import graph_input_gradient, layered_forward, project_linf
from virlab import attacks, models, reweight, training
from virlab.attacks import (AttackFamily, AttackSpec, LossMode, cw_pgd, fgsm,
                            min_pgd_steps, pgd, run_attack, spsa,
                            spsa_gradient_estimate)
from virlab.codec import to_obj
from virlab.errors import ConfigError, NonFiniteError, ShapeError
from virlab.models import (Arch, Classifier, ConvStem, predict_labels,
                           predict_probs)
from virlab.tensor import Tensor, cross_entropy_rows, kl_divergence, softmax


def linear_model(d=4, classes=3, seed=0):
    """Single dense layer: logits are affine in x, so CE is convex in x."""
    return make_mlp((d, classes), seed=seed)


def ce_sum(model, x, y) -> float:
    return cross_entropy_rows(model.forward(Tensor(x)), y).sum().item()


# -- the projection: into the epsilon-ball, then the bounds ---------------------


PROJECTION_SPECS = {
    "fgsm": AttackSpec(AttackFamily.FGSM, epsilon=0.1),
    "pgd": AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.3,
                      start_noise_scale=0.0),
    "cw_pgd": AttackSpec(AttackFamily.CW_PGD, epsilon=0.1, step_size=0.3,
                         start_noise_scale=0.0),
    "spsa": AttackSpec(AttackFamily.SPSA, epsilon=0.1, spsa_samples=4,
                       step_size=0.3),
}


@pytest.mark.parametrize("family", ["pgd", "cw_pgd", "spsa"])
def test_engine_clamps_to_ball(family):
    # A step of 0.3 overshoots the 8/255 ball: each moved coordinate lands
    # on its edge, x + epsilon or x - epsilon exactly.
    eps = 8.0 / 255.0
    spec = replace(PROJECTION_SPECS[family], epsilon=eps)
    x = np.full((3, 4), 0.5)
    y = np.array([0, 1, 2])
    out = run_attack(linear_model(), x, y, spec)
    assert np.all((out == x + eps) | (out == x - eps))


@pytest.mark.parametrize("family", list(PROJECTION_SPECS))
def test_engine_applies_bounds_after_ball(family):
    # x lies more than epsilon below the bounds: clipped to the ball first,
    # then to the bounds, every coordinate is the lower bound, whichever
    # way the step went. The other order would leave it at -0.4, the
    # ball's upper edge.
    spec = replace(PROJECTION_SPECS[family], bounds=(0.0, 1.0))
    x = np.full((3, 4), -0.5)
    out = run_attack(linear_model(), x, np.array([0, 1, 2]), spec)
    np.testing.assert_array_equal(out, np.zeros_like(x))


def _outside_the_bounds_batch(rng, rows):
    """x in and around [0, 1] for an epsilon of 0.1: boxes wholly below 0
    and above 1, boxes straddling each bound, interior points, the bounds
    themselves and -0.0."""
    values = np.array([-0.5, -0.05, -0.0, 0.0, 0.03, 0.5, 0.97, 1.0, 1.08, 1.5])
    return rng.choice(values, size=(rows, 4)) + np.where(
        rng.random((rows, 4)) < 0.5, 0.0, rng.uniform(-0.01, 0.01, (rows, 4)))


def test_one_clip_into_the_clipped_box_is_the_two_clip_projection(rng):
    # The engine clips each iterate once, into the projection box clipped
    # to the bounds; that is bitwise the ball clip followed by the bounds
    # clip, for boxes wholly outside the bounds and x with -0.0 entries.
    # The iterate cur + step * sign(grad) is never -0.0 (step > 0, sign(0)
    # is +0.0, and a sum is -0.0 only when both terms are), which matters:
    # numpy's two clip loops break a tie between -0.0 and a +0.0 bound
    # toward different operands.
    eps, bounds = 0.1, (0.0, 1.0)
    x = _outside_the_bounds_batch(rng, 400)
    x[rng.random(x.shape) < 0.1] = -0.0
    step = np.sign(np.array([-0.0, 0.0])) * 0.04 + np.array([-0.0, -0.0])
    assert not np.signbit(step).any()
    lo, hi = (np.clip(a, *bounds) for a in (x - eps, x + eps))
    for g in (x + rng.uniform(-0.3, 0.3, x.shape), np.zeros(x.shape),
              np.where(rng.random(x.shape) < 0.5, x - eps, x + eps),
              rng.choice(np.array(bounds), x.shape), x + 0.0):
        one = np.clip(g, lo, hi)
        two = project_linf(g, x, eps, bounds)
        np.testing.assert_array_equal(one.view(np.int64), two.view(np.int64))

    # And the engine, replayed step by step with the two-clip projection.
    model = make_mlp((4, 8, 3), seed=3)
    x = _outside_the_bounds_batch(rng, 12)
    x[0] = -0.0
    y = rng.integers(0, 3, size=12)
    spec = AttackSpec(AttackFamily.PGD, epsilon=eps, step_size=0.04,
                      iterations=5, bounds=bounds, seed=4)
    stream = np.random.default_rng(np.random.SeedSequence(spec.seed))
    cur = x + spec.start_noise_scale * stream.standard_normal(x.shape)
    for _ in range(spec.iterations):
        _, dx = graph_input_gradient(model, cur, y, LossMode.CE)
        cur = project_linf(cur + spec.step_size * np.sign(dx), x, eps, bounds)
    np.testing.assert_array_equal(pgd(model, x, y, spec).view(np.int64),
                                  cur.view(np.int64))


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
        AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01, spsa_samples=1)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                   spsa_perturb=0.0)
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.FGSM, epsilon=0.1, bounds=(1.0, 0.0))
    with pytest.raises(ConfigError):
        AttackSpec(AttackFamily.PGD, epsilon=0.1, step_size=0.01,
                   start_noise_scale=-1.0)
    spec = AttackSpec("PGD", epsilon=0.1, step_size=0.02, loss_mode="KL")
    assert spec.family is AttackFamily.PGD and spec.loss_mode is LossMode.KL


# A value for each knob that only some families read, valid where it is read.
UNREAD_VALUES = {"step_size": 0.05, "iterations": 5, "start_noise_scale": 0.5,
                 "spsa_samples": 4, "spsa_perturb": 0.01}


@pytest.mark.parametrize("family, knob", [
    pytest.param(family, knob, id=f"{family.value}-{knob}")
    for knob, readers in attacks.AttackSpec._READ_BY.items()
    for family in AttackFamily if family not in readers])
def test_a_family_rejects_a_knob_it_does_not_read(family, knob):
    # The attack would ignore it, and config.json would record a knob that
    # never ran; at its default it is accepted and left unrecorded.
    step = {} if family is AttackFamily.FGSM else {"step_size": 0.02}
    with pytest.raises(ConfigError,
                       match=f"{family.value} does not read {knob}, got "):
        AttackSpec(family, epsilon=0.1, **{**step, knob: UNREAD_VALUES[knob]})
    default = AttackSpec.__dataclass_fields__[knob].default
    spec = AttackSpec(family, epsilon=0.1, **{**step, knob: default})
    assert knob not in to_obj(spec)


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


LABEL_CASES = {
    "fgsm": lambda m, x, y: fgsm(m, x, y, AttackSpec(AttackFamily.FGSM, epsilon=0.1)),
    "pgd": lambda m, x, y: pgd(m, x, y, AttackSpec(AttackFamily.PGD, epsilon=0.1,
                                                   step_size=0.05)),
    "pgd_kl": lambda m, x, y: pgd(m, x, y, AttackSpec(
        AttackFamily.PGD, epsilon=0.1, step_size=0.05, loss_mode=LossMode.KL)),
    "min_pgd_steps": lambda m, x, y: min_pgd_steps(m, x, y, AttackSpec(
        AttackFamily.PGD, epsilon=0.1, step_size=0.05)),
    "cw_pgd": lambda m, x, y: cw_pgd(m, x, y, AttackSpec(
        AttackFamily.CW_PGD, epsilon=0.1, step_size=0.05)),
    "spsa": lambda m, x, y: spsa(m, x, y, AttackSpec(AttackFamily.SPSA, epsilon=0.1,
                                                     step_size=0.01,
                                                     spsa_samples=4)),
}


@pytest.mark.parametrize("case", LABEL_CASES)
def test_every_attack_checks_its_labels_once(rng, case, monkeypatch):
    model = linear_model()
    x = rng.standard_normal((2, 4))
    attack = LABEL_CASES[case]
    with pytest.raises(ValueError, match="labels must be integers"):
        attack(model, x, np.array([0.0, 2.0]))
    with pytest.raises(IndexError):
        attack(model, x, np.array([0, 3]))
    calls = []
    check = attacks._check_labels
    monkeypatch.setattr(attacks, "_check_labels",
                        lambda *args: calls.append(args) or check(*args))
    attack(model, x, np.array([0, 2]))
    assert len(calls) == 1


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
    # The start noise is one draw of the attack's stream, SeedSequence(seed).
    stream = np.random.default_rng(np.random.SeedSequence(spec.seed))
    cur = x + spec.start_noise_scale * stream.standard_normal(x.shape)
    for _ in range(spec.iterations):
        x_t = Tensor(cur, requires_grad=True)
        kl_divergence(ref, softmax(layered_forward(model, x_t))).sum().backward()
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
    step = {} if family is AttackFamily.FGSM else {"step_size": 0.02}
    if not valid:
        with pytest.raises(ConfigError, match=family.value):
            AttackSpec(family, epsilon=0.1, loss_mode=mode, **step)
        return
    spec = AttackSpec(family, epsilon=0.1, loss_mode=mode, **step)
    assert spec.loss_mode is (OWN_LOSS[family] if mode is None else mode)


def test_pgd_is_deterministic_in_seed(rng):
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.2, step_size=0.05,
                      iterations=5, seed=99)
    np.testing.assert_array_equal(pgd(model, x, y, spec), pgd(model, x, y, spec))


def test_pgd_start_noise_is_per_sample_not_per_batch(rng):
    # Row i takes the i-th block of draws from the attack's stream, so two
    # rows with the same input get distinct noise.
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
    x_adv, k = min_pgd_steps(model, x, wrong_y, spec)
    np.testing.assert_array_equal(k, np.zeros(20, dtype=np.int64))
    np.testing.assert_array_equal(x_adv, pgd(model, x, wrong_y, spec))


def test_min_pgd_steps_full_budget_when_unbreakable(rng):
    model = linear_model(seed=1)
    x = rng.standard_normal((20, 4)) * 3.0
    pred = np.argmax(predict_probs(model, x), axis=1)
    spec = AttackSpec(AttackFamily.PGD, epsilon=1e-8, step_size=1e-9,
                      iterations=4, start_noise_scale=0.0)
    _, k = min_pgd_steps(model, x, pred, spec)
    np.testing.assert_array_equal(k, np.full(20, 4, dtype=np.int64))


def test_min_pgd_steps_range_and_mode_check(rng):
    model = make_mlp((4, 8, 3), seed=3)
    x = rng.standard_normal((16, 4))
    y = rng.integers(0, 3, size=16)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.5, step_size=0.1, iterations=6)
    _, k = min_pgd_steps(model, x, y, spec)
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
    x_adv, k = min_pgd_steps(model, x, y, spec)
    np.testing.assert_array_equal(k[:3], 0)
    np.testing.assert_array_equal(k[3:], 7)
    np.testing.assert_array_equal(x_adv, x)


@pytest.mark.parametrize("noise", [0.0, 0.001])
def test_min_pgd_steps_walks_pgds_trajectory(rng, noise):
    # x_adv is bitwise pgd's for the same spec, and kappa is read off that
    # walk: PGD with the first k of its iterations is a prefix of it, so
    # kappa_i is the least k whose k-step PGD misclassifies sample i.
    model = conv_model()
    x = rng.uniform(0.0, 1.0, size=(24, 30))
    y = rng.integers(0, 3, size=24)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.3, step_size=0.05,
                      iterations=5, bounds=(0.0, 1.0), seed=7,
                      start_noise_scale=noise)
    x_adv, k = min_pgd_steps(model, x, y, spec)
    np.testing.assert_array_equal(x_adv, pgd(model, x, y, spec))
    wrong = [predict_labels(model, x) != y] + [
        predict_labels(model, pgd(model, x, y, replace(spec, iterations=i))) != y
        for i in range(1, 6)]
    expected = np.array([next((i for i in range(6) if wrong[i][r]), 5)
                         for r in range(24)])
    np.testing.assert_array_equal(k, expected)
    assert len(set(k.tolist())) > 2  # the walk breaks samples at several steps


def test_min_pgd_steps_makes_one_forward_beyond_pgd(rng):
    # kappa for iterate k is read from step k + 1's gradient forward, so
    # the probe adds only the prediction at x to pgd's forwards.
    model = make_mlp((8, 16, 3), seed=1)
    calls = []
    forward = model._forward

    def counting_forward(x, grad=None):
        calls.append(grad)
        return forward(x, grad)

    model._forward = counting_forward
    x = rng.standard_normal((64, 8))
    y = rng.integers(0, 3, size=64)
    spec = AttackSpec(AttackFamily.PGD, epsilon=0.5, step_size=0.1,
                      iterations=10, seed=3)
    x_pgd = pgd(model, x, y, spec)
    walk = list(calls)
    calls.clear()
    x_adv, k = min_pgd_steps(model, x, y, spec)
    assert calls == [None] + walk
    np.testing.assert_array_equal(x_adv, x_pgd)
    assert len(set(k.tolist())) > 2


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
    out0 = spsa(model, x, y, AttackSpec(AttackFamily.SPSA, epsilon=0.0,
                                        step_size=0.01))
    np.testing.assert_array_equal(out0, x)
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.2, iterations=3,
                      spsa_samples=8, step_size=0.07, seed=2)
    out = spsa(model, x, y, spec)
    assert np.abs(out - x).max() <= 0.2 + 1e-12


def test_spsa_is_black_box(rng):
    # forward-only: no parameter may accumulate a gradient
    model = make_mlp((4, 8, 3), seed=5)
    x = rng.standard_normal((2, 4))
    y = np.array([0, 1])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                      iterations=2, spsa_samples=4, seed=0)
    spsa(model, x, y, spec)
    assert all(p.grad is None for p in model.params.values())


def test_spsa_increases_loss_on_easy_target(rng):
    model = linear_model(seed=3)
    x = rng.standard_normal((4, 4))
    y = np.argmax(predict_probs(model, x), axis=1)
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.5, iterations=8,
                      spsa_samples=32, step_size=0.1, seed=7)
    out = spsa(model, x, y, spec)
    assert ce_sum(model, out, y) > ce_sum(model, x, y)


def test_spsa_deterministic_in_seed(rng):
    model = make_mlp((4, 8, 3), seed=5)
    x = rng.standard_normal((3, 4))
    y = np.array([2, 0, 1])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.2, step_size=0.01,
                      iterations=2, spsa_samples=6, seed=31)
    np.testing.assert_array_equal(spsa(model, x, y, spec),
                                  spsa(model, x, y, spec))


def test_spsa_steps_by_step_size(rng):
    # One iteration with no bounds and a budget wider than the step moves
    # each coordinate by exactly 0 or step_size: the inputs and the step are
    # dyadic, so x +- step_size is exact.
    model = conv_model()
    x = rng.integers(0, 8, size=(3, 30)) / 8.0
    y = np.array([0, 1, 2])
    step = 0.0625
    spec = AttackSpec(AttackFamily.SPSA, epsilon=1.0, step_size=step,
                      spsa_samples=4, seed=5)
    moved = np.abs(spsa(model, x, y, spec) - x)
    assert set(np.unique(moved)) <= {0.0, step}
    assert (moved == step).any()


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
        # Row i's own stream: the seed's SeedSequence spawned at key (i,).
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed,
                                                           spawn_key=(i,)))
        cur = x[i].copy()
        for _ in range(spec.iterations):
            g = old_spsa_gradient_estimate(batch1_ce(model, y[i]), cur,
                                           spec.spsa_samples, spec.spsa_perturb, rng)
            cur = project_linf(cur + spec.step_size * np.sign(g), x[i],
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_spsa_points_are_the_float64_points_cast_once(rng, dtype):
    # The points are built in the scoring dtype in one array: bitwise the
    # float64 x +- d*r stacked and cast, in the same order.
    x = rng.uniform(0.0, 1.0, size=30)
    seen = []

    def losses(points):
        seen.append(points)
        return np.zeros(len(points))
    attacks._spsa_estimate(losses, x, 8, 0.001, np.random.default_rng(2), dtype)
    directions = np.random.default_rng(2).integers(0, 2, size=(8, 30)) * 2.0 - 1.0
    steps = 0.001 * directions
    want = np.stack([x + steps, x - steps], axis=1).reshape(16, 30).astype(dtype)
    (points,) = seen
    assert points.dtype == dtype and points.flags.c_contiguous
    assert points.tobytes() == want.tobytes()


def test_batched_spsa_matches_the_batch1_oracle(rng, monkeypatch):
    model = conv_model()
    # 64 rows per forward: 2, 32 and 33 directions are below, at and just
    # past one forward's rows, 100 take two forwards.
    monkeypatch.setattr(models, "_CHUNK_ELEMENTS", 1)
    assert models._chunk_rows(model.arch) == 64
    y = np.array([0, 1, 2])
    for seed, num_samples in [(0, 2), (3, 32), (11, 33), (40, 100)]:
        spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                          spsa_samples=num_samples, seed=seed)
        cur = rng.uniform(0.0, 1.0, size=(3, 30))
        batched, _ = attacks._spsa_gradient(model, y, spec, 0)(cur)
        for i, label in enumerate(y):
            oracle = old_spsa_gradient_estimate(
                batch1_ce(model, label), cur[i], num_samples, spec.spsa_perturb,
                attacks._rng(spec, i))
            # A batched forward may round a point's loss a few ulps apart
            # from a batch-1 one; each delta divides the difference of two
            # losses by 2 * perturb, so every component of the average can
            # move by about eps * loss / perturb, however small it is.
            loss = batch1_ce(model, label)(cur[i])
            atol = 4 * np.finfo(np.float64).eps * loss / spec.spsa_perturb
            np.testing.assert_allclose(batched[i], oracle, rtol=1e-12, atol=atol)
    x = rng.uniform(0.0, 1.0, size=(3, 30))
    y = np.array([2, 0, 1])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, iterations=3, spsa_samples=40,
                      step_size=0.02, bounds=(0.0, 1.0), seed=7)
    np.testing.assert_array_equal(spsa(model, x, y, spec),
                                  batch1_spsa(model, x, y, spec))


def test_spsa_scores_points_in_capped_batched_forwards(rng, monkeypatch):
    model = conv_model()
    # The cap is the model's rows per forward; at 64, a row's 80 points
    # take two forwards per iteration.
    monkeypatch.setattr(models, "_CHUNK_ELEMENTS", 1)
    cap = models._chunk_rows(model.arch)
    assert cap == 64
    rows = []
    forward = model._forward

    def counting_forward(x, grad=None):
        rows.append(x.shape[0])
        return forward(x, grad)

    model._forward = counting_forward
    x = rng.uniform(0.0, 1.0, size=(3, 30))
    y = np.array([0, 1, 2])
    spec = AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01, iterations=2,
                      spsa_samples=40, seed=3)
    spsa(model, x, y, spec)
    points = 2 * spec.spsa_samples
    forwards_per_iteration = -(-points // cap)
    assert forwards_per_iteration == 2
    assert max(rows) == cap
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
        (AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                    spsa_samples=4, iterations=2, seed=1), spsa),
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
    # Every forward checks its logits, so a NaN weight makes each attack
    # raise NonFiniteError, and the model is still left untouched.
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
                                    step_size=0.01, spsa_samples=4, seed=1)),
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


# Names whose use builds an autodiff graph: the Tensor class, the tensor
# module's Tensor ops, and the model's graph-node forward and .backward.
GRAPH_NAMES = {"Tensor", "cross_entropy_rows", "kl_divergence", "softmax",
               "sliding_patches"}
GRAPH_METHODS = {"forward", "backward"}


def _graph_uses(source: str) -> list[int]:
    """Lines of ``source`` that name a Tensor or Tensor op, import one, or
    call .forward / .backward."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id in GRAPH_NAMES
                or isinstance(node, ast.alias) and node.name in GRAPH_NAMES
                or isinstance(node, ast.Attribute)
                and node.attr in GRAPH_NAMES | GRAPH_METHODS):
            lines.append(node.lineno)
    return lines


def test_attacks_build_no_autodiff_graph():
    # The guard sees each way a graph could come back ...
    for source in ("from .tensor import Tensor", "t = tensor.Tensor(x)",
                   "x_t = Tensor(x, requires_grad=True)", "loss.sum().backward()",
                   "logits = model.forward(x)", "q = softmax(z)",
                   "rows = cross_entropy_rows(z, y)"):
        assert _graph_uses(source), source
    # ... and finds none in the attacks' hot loop, in the weight scores or in
    # evaluation, whose predictions are plain forwards: only the training
    # loss builds a graph.
    for module in (attacks, reweight):
        with open(module.__file__) as fh:
            lines = _graph_uses(fh.read())
        name = os.path.basename(module.__file__)
        assert not lines, f"{name} builds an autodiff graph at lines {lines}"
    lines = _graph_uses(textwrap.dedent(inspect.getsource(training.evaluate)))
    assert not lines, f"evaluate() builds an autodiff graph at lines {lines}"


def _logit_checks(source: str) -> list[int]:
    """Lines of ``source`` that name ``_check_logits``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "_check_logits"
            or isinstance(node, ast.Attribute) and node.attr == "_check_logits"]


def test_logits_are_checked_only_by_the_forward_and_the_tensor_ops():
    # One numeric-failure path: Classifier._forward checks every network
    # output and the tensor module's ops check what they are handed, so no
    # other module repeats the check.
    for source in ("z = _check_logits(logits)",
                   "p = softmax_values(tensor._check_logits(z))"):
        assert _logit_checks(source), source
    package = os.path.dirname(virlab.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in ("tensor.py", "models.py"):
            with open(os.path.join(package, name)) as fh:
                lines = _logit_checks(fh.read())
            assert not lines, f"{name} checks logits at lines {lines}"


# Names that key or build a random stream.
RNG_NAMES = {"PCG64", "SeedSequence", "default_rng"}


def _stream_keys(source: str) -> list[int]:
    """Lines of ``source`` outside a function named ``_rng`` that name
    PCG64, SeedSequence or default_rng."""
    tree = ast.parse(source)
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_rng"
              for node in ast.walk(f)}
    return [node.lineno for node in ast.walk(tree) if id(node) not in inside
            and (isinstance(node, ast.Name) and node.id in RNG_NAMES
                 or isinstance(node, ast.Attribute) and node.attr in RNG_NAMES
                 or isinstance(node, ast.alias) and node.name in RNG_NAMES)]


def test_attacks_key_their_streams_only_in_rng():
    # One RNG-keying rule: _rng is the only place attacks.py builds a
    # generator. The guard sees each way a second key could come back ...
    for source in ("rng = np.random.default_rng(seed)",
                   "g = np.random.Generator(np.random.PCG64(spec.seed ^ i))",
                   "from numpy.random import SeedSequence",
                   "def _row_rng(spec, i):\n"
                   "    return np.random.default_rng([spec.seed, i])"):
        assert _stream_keys(source), source
    assert not _stream_keys(
        "def _rng(spec, *row):\n    return np.random.Generator(np.random.PCG64("
        "np.random.SeedSequence(spec.seed, spawn_key=row)))")
    # ... and finds none in attacks.py.
    with open(attacks.__file__) as fh:
        lines = _stream_keys(fh.read())
    assert not lines, f"attacks.py keys a stream outside _rng at lines {lines}"


# -- batching --------------------------------------------------------------------


def golden_conv_model(dtype: str = "float64") -> Classifier:
    """The architecture of the golden conv-stem runs (tests/test_golden.py)."""
    stem = ConvStem(height=7, width=6, filters=2, kernel_size=3)
    return Classifier(Arch((stem.out_dim, 6, 3), conv=stem, dtype=dtype), seed=3)


batch_models = pytest.mark.parametrize("make_model, scale", [
    (golden_conv_model, 1.0),
    (lambda: Classifier(Arch((8, 64, 64, 3)), seed=3), 4.0),  # the desk MLP
    (lambda: golden_conv_model("float32"), 1.0),
    (lambda: Classifier(Arch((8, 64, 64, 3), dtype="float32"), seed=3), 4.0),
], ids=["golden_conv", "desk_mlp", "golden_conv_f32", "desk_mlp_f32"])


@batch_models
def test_fgsm_is_one_noise_free_pgd_step_of_epsilon(rng, make_model, scale):
    # FGSM is the white-box walk with step epsilon, one iteration and no
    # start noise: byte for byte a PGD spec that says so.
    model = make_model()
    x = scale * rng.uniform(0.0, 1.0, size=(70, model.arch.input_dim))
    y = rng.integers(0, 3, size=70)
    for bounds in (None, (0.0, scale)):
        want = fgsm(model, x, y, AttackSpec(AttackFamily.FGSM, epsilon=0.1,
                                            bounds=bounds))
        got = pgd(model, x, y, AttackSpec(AttackFamily.PGD, epsilon=0.1,
                                          step_size=0.1, iterations=1,
                                          start_noise_scale=0.0, bounds=bounds))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not np.array_equal(want, x)


@batch_models
def test_chunks_of_64_rows_reproduce_the_whole_batch(rng, make_model, scale):
    # The batch-chunk rule: run in consecutive chunks of 64 rows, the
    # forward and every gradient attack give bitwise the whole batch's
    # output. Chunks of 1 and 3 may differ in the last bits (the BLAS
    # build's edge kernels, see Classifier._forward), so the rule is pinned
    # at 64 only. Start noise stays off: a row's noise is keyed by its
    # position in the chunk, not in the batch (the noise-on rule is pinned
    # on prefixes below).
    model = make_model()
    x = scale * rng.uniform(0.0, 1.0, size=(256, model.arch.input_dim))
    y = rng.integers(0, 3, size=256)
    gradient = dict(epsilon=0.1, step_size=0.04, iterations=3,
                    start_noise_scale=0.0)
    runs = {
        "forward": lambda xs, ys: model._forward(xs)[0],
        "fgsm": lambda xs, ys: fgsm(model, xs, ys, AttackSpec(
            AttackFamily.FGSM, epsilon=0.1)),
        "pgd": lambda xs, ys: pgd(model, xs, ys, AttackSpec(
            AttackFamily.PGD, **gradient)),
        "pgd_kl": lambda xs, ys: pgd(model, xs, ys, AttackSpec(
            AttackFamily.PGD, loss_mode=LossMode.KL, **gradient)),
        "cw_pgd": lambda xs, ys: cw_pgd(model, xs, ys, AttackSpec(
            AttackFamily.CW_PGD, **gradient)),
    }
    for name, run in runs.items():
        whole = run(x, y)
        chunked = np.concatenate([run(x[s:s + 64], y[s:s + 64])
                                  for s in range(0, len(x), 64)])
        np.testing.assert_array_equal(chunked, whole, err_msg=name)
        if name != "forward":
            assert not np.array_equal(whole, x), f"{name} did not move"


@batch_models
def test_a_prefix_of_64_rows_reproduces_its_rows_with_noise_on(rng, make_model,
                                                                scale):
    # Row i's start noise is the i-th block of draws from the attack's
    # stream and SPSA row i draws from its own stream, so a row's randomness
    # does not depend on how many rows follow it: with noise on, the attack
    # on the first 64 rows is bitwise the first 64 rows of the whole batch's.
    model = make_model()
    x = scale * rng.uniform(0.0, 1.0, size=(256, model.arch.input_dim))
    y = rng.integers(0, 3, size=256)
    gradient = dict(epsilon=0.1, step_size=0.04, iterations=3, seed=7)
    specs = {
        "pgd": AttackSpec(AttackFamily.PGD, **gradient),
        "pgd_kl": AttackSpec(AttackFamily.PGD, loss_mode=LossMode.KL, **gradient),
        "cw_pgd": AttackSpec(AttackFamily.CW_PGD, **gradient),
        "spsa": AttackSpec(AttackFamily.SPSA, epsilon=0.1, step_size=0.01,
                           iterations=2, spsa_samples=8, seed=7),
    }
    for name, spec in specs.items():
        whole = run_attack(model, x, y, spec)
        np.testing.assert_array_equal(run_attack(model, x[:64], y[:64], spec),
                                      whole[:64], err_msg=name)
        assert not np.array_equal(whole, x), f"{name} did not move"


@pytest.mark.parametrize("family", [AttackFamily.PGD, AttackFamily.SPSA],
                         ids=["pgd", "spsa"])
def test_no_two_seed_row_pairs_share_a_stream(rng, family):
    # Seed s at row 1 and seed s + 1 at row 0 draw from different streams
    # (keying rows by seed XOR i made them one). Two equal rows isolate the
    # stream: a zero model has a zero input gradient, so PGD returns its
    # noisy start; SPSA's two directions set each coordinate's step.
    if family is AttackFamily.PGD:
        model = make_mlp((30, 8, 3))
        for p in model.params.values():
            p.data = np.zeros_like(p.data)
        spec = AttackSpec(family, epsilon=1.0, step_size=0.1,
                          start_noise_scale=0.1)
    else:
        model = conv_model()
        spec = AttackSpec(family, epsilon=0.1, step_size=0.01, spsa_samples=2)
    x = np.repeat(rng.uniform(0.0, 1.0, size=(1, 30)), 2, axis=0)
    y = np.array([1, 1])
    row1 = run_attack(model, x, y, replace(spec, seed=1234))[1]
    row0 = run_attack(model, x, y, replace(spec, seed=1235))[0]
    assert not np.array_equal(row1, x[1]) and not np.array_equal(row0, x[0])
    assert not np.array_equal(row1, row0)
