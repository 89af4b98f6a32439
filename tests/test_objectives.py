"""Objective reductions: weighted losses collapse to their unweighted
counterparts at unit weights, decompose per sample, and treat weights as
constants in the graph."""

import numpy as np
import pytest

from conftest import make_mlp
from oracles import finite_diff_grad
from virlab.codec import to_obj
from virlab.errors import ConfigError, ShapeError
from virlab.objectives import (ObjectiveFamily, ObjectiveSpec, at_loss,
                               trades_loss, vir_at_loss, vir_trades_loss)
from virlab.reweight import Ablation, WeightScheme
from virlab.tensor import Tensor, cross_entropy_rows, kl_divergence, softmax


def batch(rng, n=6, d=4, classes=3):
    x_nat = rng.standard_normal((n, d))
    x_adv = x_nat + 0.1 * np.sign(rng.standard_normal((n, d)))
    y = rng.integers(0, classes, size=n)
    return x_nat, x_adv, y


def test_objective_spec_validation():
    with pytest.raises(ConfigError):
        ObjectiveSpec(ObjectiveFamily.TRADES, trade_off=0.0)
    with pytest.raises(ConfigError):
        ObjectiveSpec("TRADES", trade_off=-1.0)
    spec = ObjectiveSpec("AT", weight_scheme=WeightScheme("VIR", ablation="SV_ONLY"))
    assert spec.family is ObjectiveFamily.AT
    assert spec.weight_scheme.ablation is Ablation.SV_ONLY
    # AT reads no trade_off: one set away from its default is rejected, and
    # the default is not recorded
    with pytest.raises(ConfigError, match="AT does not read trade_off, got -5.0"):
        ObjectiveSpec(ObjectiveFamily.AT, trade_off=-5.0)
    assert "trade_off" not in to_obj(ObjectiveSpec(ObjectiveFamily.AT))


def test_at_loss_is_mean_adversarial_ce(rng):
    model = make_mlp((4, 8, 3), seed=1)
    _, x_adv, y = batch(rng)
    loss = at_loss(model, x_adv, y)
    manual = cross_entropy_rows(model.forward(Tensor(x_adv)), y).data.mean()
    np.testing.assert_allclose(loss.item(), manual, rtol=1e-15)


def _value_and_grads(model, make_loss):
    model.zero_grad()
    loss = make_loss()
    loss.backward()
    return loss.item(), {n: p.grad.copy() for n, p in model.params.items()}


def test_unit_weights_collapse_to_unweighted(rng):
    # at_loss/trades_loss run the weighted kernels with w = 1; multiplying
    # by 1.0 is exact, so value and every parameter gradient must be bitwise
    # those of the unweighted graphs built here from the tensor primitives.
    for trial in range(10):
        model = make_mlp((4, 8, 3), seed=trial)
        x_nat, x_adv, y = batch(rng)

        def plain_trades():
            z_nat, z_adv = model.forward(x_nat), model.forward(x_adv)
            kl = kl_divergence(softmax(z_nat), softmax(z_adv))
            return (cross_entropy_rows(z_nat, y) + 5.0 * kl).mean()

        pairs = (
            (lambda: at_loss(model, x_adv, y),
             lambda: cross_entropy_rows(model.forward(x_adv), y).mean()),
            (lambda: trades_loss(model, x_nat, x_adv, y, 5.0), plain_trades),
        )
        for wrapped, plain in pairs:
            got, got_grads = _value_and_grads(model, wrapped)
            want, want_grads = _value_and_grads(model, plain)
            assert got == want
            for name in want_grads:
                np.testing.assert_array_equal(got_grads[name], want_grads[name])


def test_vir_at_loss_decomposes_per_sample(rng):
    model = make_mlp((4, 8, 3), seed=2)
    x_nat, x_adv, y = batch(rng, n=8)
    w = rng.uniform(0.1, 3.0, size=8)
    whole = vir_at_loss(model, x_nat, x_adv, y, w).item()
    singles = [
        vir_at_loss(model, x_nat[i : i + 1], x_adv[i : i + 1], y[i : i + 1],
                    w[i : i + 1]).item()
        for i in range(8)
    ]
    np.testing.assert_allclose(whole, np.mean(singles), rtol=1e-12)


def test_vir_trades_loss_decomposes_per_sample(rng):
    model = make_mlp((4, 8, 3), seed=3)
    x_nat, x_adv, y = batch(rng, n=5)
    w = rng.uniform(0.1, 3.0, size=5)
    whole = vir_trades_loss(model, x_nat, x_adv, y, 5.0, w).item()
    singles = [
        vir_trades_loss(model, x_nat[i : i + 1], x_adv[i : i + 1],
                        y[i : i + 1], 5.0, w[i : i + 1]).item()
        for i in range(5)
    ]
    np.testing.assert_allclose(whole, np.mean(singles), rtol=1e-12)


def test_weight_scaling_is_linear_in_the_adv_term(rng):
    # doubling one sample's weight adds exactly its CE/n again
    model = make_mlp((4, 8, 3), seed=4)
    x_nat, x_adv, y = batch(rng, n=4)
    w = np.ones(4)
    base = vir_at_loss(model, x_nat, x_adv, y, w).item()
    w2 = w.copy()
    w2[1] = 2.0
    bumped = vir_at_loss(model, x_nat, x_adv, y, w2).item()
    ce1 = cross_entropy_rows(model.forward(Tensor(x_adv)), y).data[1]
    np.testing.assert_allclose(bumped - base, ce1 / 4.0, rtol=1e-10)


def test_trades_kl_term_vanishes_when_adv_equals_nat(rng):
    model = make_mlp((4, 8, 3), seed=5)
    x_nat, _, y = batch(rng)
    trades = trades_loss(model, x_nat, x_nat, y, 7.0).item()
    plain_ce = cross_entropy_rows(model.forward(Tensor(x_nat)), y).data.mean()
    np.testing.assert_allclose(trades, plain_ce, rtol=1e-12)


def test_trades_penalty_grows_with_trade_off(rng):
    model = make_mlp((4, 8, 3), seed=6)
    x_nat, x_adv, y = batch(rng)
    losses = [trades_loss(model, x_nat, x_adv, y, t).item() for t in (1.0, 5.0, 25.0)]
    assert losses[0] < losses[1] < losses[2]


def test_vir_trades_weights_only_scale_the_kl_term(rng):
    # zero weights must reduce VIR-TRADES to the natural CE alone
    model = make_mlp((4, 8, 3), seed=7)
    x_nat, x_adv, y = batch(rng)
    zeroed = vir_trades_loss(model, x_nat, x_adv, y, 5.0, np.zeros(len(y))).item()
    plain_ce = cross_entropy_rows(model.forward(Tensor(x_nat)), y).data.mean()
    np.testing.assert_allclose(zeroed, plain_ce, rtol=1e-12)


def test_weights_enter_as_constants(rng):
    # Parameter gradients must match the finite-difference oracle with the
    # weight vector held fixed: no gradient path may route through w.
    model = make_mlp((3, 6, 3), seed=8)
    x_nat, x_adv, y = batch(rng, n=4, d=3)
    w = rng.uniform(0.2, 2.0, size=4)

    def loss_with(name, t):
        saved = model.params[name]
        model.params[name] = t
        try:
            return vir_trades_loss(model, x_nat, x_adv, y, 5.0, w)
        finally:
            model.params[name] = saved

    model.zero_grad()
    vir_trades_loss(model, x_nat, x_adv, y, 5.0, w).backward()
    for name, p in model.params.items():
        numeric = finite_diff_grad(lambda t: loss_with(name, t), p.data)
        np.testing.assert_allclose(p.grad, numeric, rtol=1e-4, atol=1e-8)


def test_objective_shape_validation(rng):
    model = make_mlp((4, 8, 3), seed=9)
    x_nat, x_adv, y = batch(rng)
    with pytest.raises(ShapeError):
        vir_at_loss(model, x_nat, x_adv, y, np.ones(len(y) + 1))
    with pytest.raises(ShapeError):
        vir_trades_loss(model, x_nat, x_adv[:3], y, 5.0, np.ones(len(y)))
    with pytest.raises(ConfigError):
        trades_loss(model, x_nat, x_adv, y, 0.0)
    with pytest.raises(ConfigError):
        vir_trades_loss(model, x_nat, x_adv, y, -2.0, np.ones(len(y)))

