"""Autodiff core: op gradients against the finite-difference oracle, the
fused stable ops, and the scalar-backward contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virlab.errors import ShapeError
from virlab.tensor import (PROB_FLOOR, Tensor, cross_entropy,
                           cross_entropy_rows, finite_diff_grad,
                           kl_divergence, sliding_patches, softmax)


def check_grad(build, x0, rtol=1e-5, atol=1e-7):
    """Autodiff gradient of build(x) (a scalar) vs central differences."""
    t = Tensor(x0, requires_grad=True)
    build(t).backward()
    numeric = finite_diff_grad(build, x0)
    np.testing.assert_allclose(t.grad, numeric, rtol=rtol, atol=atol)


def projected(out: Tensor, seed: int) -> Tensor:
    """Fixed random projection to a scalar, so any op can be grad-checked."""
    rng = np.random.default_rng(seed)
    return (out * Tensor(rng.standard_normal(out.shape))).sum()


# -- construction and bookkeeping ----------------------------------------------


def test_scalar_constructor_keeps_zero_dim():
    t = Tensor(3.5)
    assert t.data.shape == ()
    assert t.data.dtype == np.float64
    assert t.item() == 3.5


def test_reductions_produce_true_scalars():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert x.sum().shape == ()
    assert x.mean().shape == ()
    assert x.sum().item() == 15.0
    assert x.mean().item() == 2.5


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def test_matmul_rejects_non_2d():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)) @ Tensor(np.ones(3))


def test_detach_blocks_gradient_flow():
    x = Tensor(np.ones(4), requires_grad=True)
    y = x * 2.0
    (y.detach() * 3.0).sum().backward()
    assert x.grad is None


def test_zero_grad_and_accumulation():
    x = Tensor(np.ones(3), requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))
    (x.sum()).backward()
    np.testing.assert_allclose(x.grad, 3.0 * np.ones(3))  # accumulates
    x.zero_grad()
    assert x.grad is None


def test_first_gradient_is_stored_as_if_added_to_zeros():
    # The grad buffer starts as 0.0 + g, so a -0.0 gradient entry is kept
    # as +0.0; a plain copy would keep the sign and could move artifacts.
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * Tensor(np.array([-0.0, -1.0]))).sum().backward()
    np.testing.assert_array_equal(np.signbit(x.grad), [False, True])


def test_first_gradient_never_aliases_another_tensors_gradient():
    # add passes its output's gradient through and reshape views it; a parent
    # that adopted that array instead of copying it would share one buffer
    # with its child, and the parent's next accumulation would change both.
    for through in (lambda t: t + 1.0, lambda t: t.reshape(3, 2).reshape(6)):
        for first in (True, False):
            x = Tensor(np.arange(6.0), requires_grad=True)
            h = through(x)
            direct, via = x.sum(), (h * 2.0).sum()
            (via + direct if first else direct + via).backward()
            np.testing.assert_array_equal(h.grad, np.full(6, 2.0))
            np.testing.assert_array_equal(x.grad, np.full(6, 3.0))
            assert not np.shares_memory(x.grad, h.grad)


def test_diamond_graph_accumulates_once_per_path():
    # f(x) = x*x + x  ->  f'(x) = 2x + 1
    x = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
    (x * x + x).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0)


def test_oracle_matches_analytic_gradient():
    # The oracle itself must be trustworthy: d/dx sum(x^2) = 2x.
    x0 = np.array([[0.5, -1.5], [2.0, 0.0]])
    num = finite_diff_grad(lambda t: (t * t).sum(), x0)
    np.testing.assert_allclose(num, 2.0 * x0, rtol=1e-7, atol=1e-8)


# -- elementwise and structural op gradients ------------------------------------


def test_add_gradient_with_row_broadcast():
    rng = np.random.default_rng(0)
    bias = Tensor(rng.standard_normal(4), requires_grad=True)
    x0 = rng.standard_normal((3, 4))

    def with_input(t):
        return projected(t + bias, seed=7)

    check_grad(with_input, x0)
    # and the broadcast side: gradient of the bias sums over the batch axis
    t = Tensor(x0, requires_grad=True)
    bias.zero_grad()
    projected(t + bias, seed=7).backward()
    proj = np.random.default_rng(7).standard_normal((3, 4))
    np.testing.assert_allclose(bias.grad, proj.sum(axis=0), rtol=1e-12)
    assert bias.grad.shape == (4,)


def test_mul_gradient_with_scalar_broadcast():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((2, 5))
    check_grad(lambda t: projected(t * 3.25, seed=11), x0)
    check_grad(lambda t: projected(2.0 - t, seed=11), x0)  # rsub
    check_grad(lambda t: projected(-t, seed=11), x0)


def test_matmul_gradient_both_operands():
    rng = np.random.default_rng(2)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))
    b_const = Tensor(b0)
    check_grad(lambda t: projected(t @ b_const, seed=3), a0)
    a_const = Tensor(a0)
    check_grad(lambda t: projected(a_const @ t, seed=3), b0)


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4, 4))
    x0[np.abs(x0) < 0.05] += 0.2
    check_grad(lambda t: projected(t.relu(), seed=5), x0)


def test_sum_axis_and_mean_gradients():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((3, 5))
    check_grad(lambda t: projected(t.sum(axis=0), seed=13), x0)
    check_grad(lambda t: projected(t.sum(axis=1), seed=13), x0)
    check_grad(lambda t: t.mean(), x0)


def test_max_axis_gradient_and_first_argmax_ties():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((4, 6))
    check_grad(lambda t: projected(t.max(axis=1), seed=17), x0)
    # exact tie: all gradient goes to the first maximal entry
    t = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
    t.max(axis=1).sum().backward()
    np.testing.assert_array_equal(t.grad, [[1.0, 0.0, 0.0]])


def test_reshape_gradient_round_trips():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((2, 6))
    check_grad(lambda t: projected(t.reshape(3, 4), seed=19), x0)


# -- fused stable ops ------------------------------------------------------------


def test_softmax_rows_and_gradient():
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal((3, 4)) * 2.0
    p = softmax(Tensor(z0)).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert p.min() > 0.0
    check_grad(lambda t: projected(softmax(t), seed=23), z0)


def test_softmax_survives_extreme_logits():
    z = Tensor(np.array([[1e4, 0.0, -1e4], [-1e4, -1e4, -1e4]]))
    p = softmax(z).data
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p[0], [1.0, 0.0, 0.0], atol=1e-300)
    np.testing.assert_allclose(p[1], np.full(3, 1.0 / 3.0), atol=1e-12)


def test_cross_entropy_rows_values_and_gradient():
    z0 = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    y = np.array([0, 2])
    rows = cross_entropy_rows(Tensor(z0), y).data
    expected = -np.log(np.exp(z0) / np.exp(z0).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(rows, expected[[0, 1], y], rtol=1e-12)
    rng = np.random.default_rng(8)
    z1 = rng.standard_normal((5, 4))
    y1 = np.array([0, 1, 2, 3, 1])
    check_grad(lambda t: cross_entropy_rows(t, y1).sum(), z1)
    check_grad(lambda t: cross_entropy(t, y1), z1)


def test_cross_entropy_stable_at_extreme_logits():
    z = Tensor(np.array([[1e4, 0.0], [-1e4, 0.0]]))
    rows = cross_entropy_rows(z, np.array([0, 0])).data
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(rows[1], 1e4, rtol=1e-12)


def test_cross_entropy_label_validation():
    z = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cross_entropy_rows(z, np.array([0.0, 1.0]))  # float labels
    with pytest.raises(IndexError):
        cross_entropy_rows(z, np.array([0, 3]))
    with pytest.raises(ShapeError):
        cross_entropy_rows(z, np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        cross_entropy_rows(Tensor(np.array([[np.inf, 0.0]])), np.array([0]))


def test_cross_entropy_equals_kl_from_onehot():
    # CE(z, y) == KL(onehot(y) || softmax(z)); the onehot rows exercise the
    # 0 * log 0 convention.
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal((4, 5))
    y = np.array([1, 0, 4, 2])
    onehot = np.zeros((4, 5))
    onehot[np.arange(4), y] = 1.0

    ce = cross_entropy_rows(Tensor(z0), y).data
    kl = kl_divergence(Tensor(onehot), softmax(Tensor(z0))).data
    np.testing.assert_allclose(ce, kl, rtol=1e-12)

    t1 = Tensor(z0, requires_grad=True)
    cross_entropy_rows(t1, y).sum().backward()
    t2 = Tensor(z0, requires_grad=True)
    kl_divergence(Tensor(onehot), softmax(t2)).sum().backward()
    np.testing.assert_allclose(t1.grad, t2.grad, rtol=1e-10, atol=1e-12)


def test_kl_gradient_through_softmax_both_sides():
    rng = np.random.default_rng(10)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((3, 4))
    b_const = Tensor(b0)
    check_grad(lambda t: kl_divergence(softmax(t), softmax(b_const)).sum(), a0)
    a_const = Tensor(a0)
    check_grad(lambda t: kl_divergence(softmax(a_const), softmax(t)).sum(), b0)


def test_kl_input_validation():
    good = Tensor(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        kl_divergence(Tensor(np.array([[-0.1, 1.1]])), good)
    with pytest.raises(ValueError):
        kl_divergence(Tensor(np.array([[0.6, 0.6]])), good)
    with pytest.raises(ShapeError):
        kl_divergence(good, Tensor(np.array([[0.25, 0.25, 0.5]])))
    with pytest.raises(ShapeError):
        kl_divergence(Tensor(np.array([0.5, 0.5])), good)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_kl_gibbs_inequality(seed, classes):
    """KL(p || q) >= 0 for random simplex rows, zero iff p == q."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(classes), size=3)
    q = rng.dirichlet(np.ones(classes), size=3)
    kl = kl_divergence(Tensor(p), Tensor(q)).data
    assert np.all(kl >= -1e-12)
    self_kl = kl_divergence(Tensor(p), Tensor(p)).data
    np.testing.assert_allclose(self_kl, 0.0, atol=1e-12)


def test_kl_clamps_tiny_q_instead_of_diverging():
    p = Tensor(np.array([[1.0, 0.0]]))
    q = Tensor(np.array([[0.0, 1.0]]))
    val = kl_divergence(p, q).data[0]
    np.testing.assert_allclose(val, -np.log(PROB_FLOOR), rtol=1e-12)


# -- sliding patches -------------------------------------------------------------


def test_sliding_patches_values_match_naive_loop():
    rng = np.random.default_rng(11)
    h, w, k = 4, 5, 2
    imgs = rng.standard_normal((2, h * w))
    got = sliding_patches(Tensor(imgs), h, w, k).data
    naive = []
    for b in range(2):
        img = imgs[b].reshape(h, w)
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                naive.append(img[i : i + k, j : j + k].reshape(-1))
    np.testing.assert_array_equal(got, np.array(naive))


def test_sliding_patches_gradient():
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((2, 12))  # 3x4 images, kernel 2
    check_grad(lambda t: projected(sliding_patches(t, 3, 4, 2), seed=29), x0)


@pytest.mark.parametrize("h, w, k", [(28, 28, 5), (28, 28, 1), (28, 28, 28),
                                     (9, 13, 4)])
def test_sliding_patches_backward_is_bitwise_the_scatter_add(h, w, k):
    rng = np.random.default_rng(13)
    batch = 4
    x = Tensor(rng.standard_normal((batch, h * w)), requires_grad=True)
    out = sliding_patches(x, h, w, k)
    g = rng.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()  # out.grad is exactly g

    # Oracle: scatter-add every patch element onto its flat input index,
    # patches in row-major scan order, elements row-major within a patch.
    out_h, out_w = h - k + 1, w - k + 1
    rows = np.arange(out_h)[:, None, None, None] + np.arange(k)[None, None, :, None]
    cols = np.arange(out_w)[None, :, None, None] + np.arange(k)[None, None, None, :]
    flat_idx = (rows * w + cols).reshape(-1)
    expected = np.zeros((batch, h * w))
    np.add.at(expected.T, flat_idx, g.reshape(batch, -1).T)
    assert np.array_equal(x.grad.view(np.int64), expected.view(np.int64))


def test_sliding_patches_shape_validation():
    with pytest.raises(ShapeError):
        sliding_patches(Tensor(np.ones((1, 11))), 3, 4, 2)
    with pytest.raises(ShapeError):
        sliding_patches(Tensor(np.ones((1, 12))), 3, 4, 5)
