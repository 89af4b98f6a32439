"""Autodiff core: op gradients against the finite-difference oracle, the
fused stable ops, and the scalar-backward contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (finite_diff_grad, offset_loop_scatter, openblas_core,
                     unpadded_stem_input_gradient)
from virlab.errors import ShapeError
from virlab.models import _STEM_BLOCK, ConvStem, _stem_input_gradient, _stem_output
from virlab.tensor import (PROB_FLOOR, Tensor, _patch_fold, _patch_rows,
                           _patch_scatter, _patch_slabs, _scatter_tail,
                           cross_entropy_rows, kl_divergence, sliding_patches,
                           softmax)


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
    check_grad(lambda t: cross_entropy_rows(t, y1).mean(), z1)


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


PATCH_SHAPES = [(28, 28, 5), (28, 28, 1), (28, 28, 28), (9, 13, 4)]


def scatter_add_oracle(g, batch, h, w, k):
    """Input gradient from ``g``, the row-major patch rows' gradient
    [batch * out_h * out_w, k * k], in g's dtype: scatter-add every patch
    element onto its flat input index, patches in row-major scan order,
    elements row-major within a patch."""
    out_h, out_w = h - k + 1, w - k + 1
    rows = np.arange(out_h)[:, None, None, None] + np.arange(k)[None, None, :, None]
    cols = np.arange(out_w)[None, :, None, None] + np.arange(k)[None, None, None, :]
    flat_idx = (rows * w + cols).reshape(-1)
    expected = np.zeros((batch, h * w), dtype=g.dtype)
    np.add.at(expected.T, flat_idx, g.reshape(batch, -1).T)
    return expected


def _bits(a):
    return a.view(np.int64 if a.dtype == np.float64 else np.int32)


@pytest.mark.parametrize("h, w, k", PATCH_SHAPES)
def test_sliding_patches_backward_is_bitwise_the_scatter_add(h, w, k):
    # The Tensor op pads its row-major gradient into the zero-bordered
    # grid and hands _patch_scatter that grid's strided transpose.
    rng = np.random.default_rng(13)
    batch = 4
    x = Tensor(rng.standard_normal((batch, h * w)), requires_grad=True)
    out = sliding_patches(x, h, w, k)
    g = rng.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()  # out.grad is exactly g

    expected = scatter_add_oracle(g, batch, h, w, k)
    assert np.array_equal(_bits(x.grad), _bits(expected))


@pytest.mark.parametrize("batch", [1, 7, 8, 9])
@pytest.mark.parametrize("h, w, k", PATCH_SHAPES)
def test_patch_grad_of_offset_major_slabs_is_bitwise_the_scatter_add(h, w, k, batch):
    # The conv stem hands _patch_scatter C-contiguous offset-major slabs in
    # the zero-bordered layout, [k * k, batch * h * w]. The border holds
    # zeros of either sign (a dot product with a zero column may round to
    # -0.0) and the patches some -0.0 entries; the scatter must still be
    # bitwise np.add.at's over the patch rows alone, in either dtype. No
    # BLAS call is made.
    rng = np.random.default_rng(17)
    out_h, out_w = h - k + 1, w - k + 1
    for dtype in (np.float64, np.float32):
        g = rng.standard_normal((batch * out_h * out_w, k * k)).astype(dtype)
        g[rng.random(g.shape) < 0.05] = -0.0
        grid = np.copysign(np.zeros((batch, h, w, k * k), dtype=dtype),
                           rng.standard_normal((batch, h, w, k * k)).astype(dtype))
        grid[:, :out_h, :out_w] = g.reshape(batch, out_h, out_w, k * k)
        slabs = np.ascontiguousarray(grid.reshape(-1, k * k).T)

        got = _patch_scatter(slabs, batch, h, w, k)
        expected = scatter_add_oracle(g, batch, h, w, k)
        assert got.shape == (batch, h * w) and got.dtype == dtype
        assert np.array_equal(_bits(got), _bits(expected)), dtype


# (height, width, kernel_size, filters): the paper's stem, a 1x1 kernel,
# the model tests' two 7x6 stems and a wide 9x13 one.
SLAB_STEMS = [(28, 28, 5, 8), (28, 28, 1, 8), (7, 6, 3, 2), (7, 6, 2, 3),
              (9, 13, 4, 5)]
STEM_BATCHES = (1, 2, 3, 7, 8, 16, 17, 63, 64, 127, 128, 129, 300)


FOLD_BATCHES = (*range(1, 18), 63, 64, 65, 128, 129, 130)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h, w, k", [stem[:3] for stem in SLAB_STEMS])
def test_patch_fold_is_bitwise_the_offset_loop(h, w, k, dtype):
    # numpy does not document the order of a reduction over several axes,
    # so this pins it: the one reduction must add every pixel's terms in the
    # offset loop's order, from +0.0. Some slab columns are all -0.0, and
    # some pixels take only -0.0 terms, the first of them included (at k = 1
    # the only one), where a reduction started at its first term rather than
    # at +0.0 would keep -0.0.
    rng = np.random.default_rng(41)
    k2, tail = k * k, _scatter_tail(w, k)
    widest = max(FOLD_BATCHES) * h * w
    values = rng.standard_normal((k2, widest)).astype(dtype)
    values[rng.random(values.shape) < 0.05] = -0.0
    for batch in FOLD_BATCHES:
        m = batch * h * w
        slabs = values[:, :m].copy()
        slabs[:, rng.integers(0, m, size=3)] = -0.0
        for p in (m - 1, tail, *rng.integers(tail, m, size=3)):
            for o in range(k2):
                at = p - (o // k * w + o % k)
                if at >= 0:
                    slabs[o, at] = -0.0
        rows = np.zeros((k2, m + tail), dtype=dtype)
        rows[:, :m] = slabs
        want = offset_loop_scatter(slabs, batch, h, w, k)
        got = _patch_fold(rows, w, k)
        assert got.dtype == dtype and got.shape == (m,)
        assert not np.any(np.signbit(want) & (want == 0.0)), batch  # no -0.0
        assert _bits(got).tobytes() == _bits(want).tobytes(), batch
        scattered = _patch_scatter(slabs, batch, h, w, k)
        assert _bits(scattered).tobytes() == _bits(want).tobytes(), batch


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h, w, k", [stem[:3] for stem in SLAB_STEMS])
def test_patch_slabs_are_the_patch_rows_transposed(h, w, k, dtype):
    # The offset-major gather is the row-major one's transpose, byte for
    # byte, as one C-contiguous [k * k, batch * positions] array.
    rng = np.random.default_rng(19)
    for batch in (1, 3):
        v = rng.standard_normal((batch, h * w)).astype(dtype)
        slabs = _patch_slabs(v, h, w, k)
        assert slabs.flags.c_contiguous and slabs.dtype == dtype
        assert slabs.shape == (k * k, batch * (h - k + 1) * (w - k + 1))
        assert slabs.T.tobytes() == _patch_rows(v, h, w, k).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h, w, k, filters", SLAB_STEMS)
def test_patch_slabs_stem_product_is_bitwise_the_row_major_product(
        h, w, k, filters, dtype):
    # Every forward takes the stem's product as slabs.T @ W; it must be
    # bitwise the patch rows' patches @ W, which the layered graph takes,
    # at every batch.
    rng = np.random.default_rng(23)
    weight = rng.uniform(-1.0 / k, 1.0 / k, size=(k * k, filters)).astype(dtype)
    for batch in STEM_BATCHES:
        v = rng.uniform(0.0, 1.0, size=(batch, h * w)).astype(dtype)
        got = _patch_slabs(v, h, w, k).T @ weight
        want = _patch_rows(v, h, w, k) @ weight
        assert got.tobytes() == want.tobytes(), batch


def _stem_case(h, w, k, filters, batch, dtype, seed):
    """(stem, weight, fmap, g) for a stem's input gradient at ``batch``
    images: uniform weights, normal pre-relu outputs and output
    gradients, both with some exact zeros."""
    conv = ConvStem(height=h, width=w, filters=filters, kernel_size=k)
    rng = np.random.default_rng(seed)
    weight = rng.uniform(-1.0 / k, 1.0 / k, size=(k * k, filters)).astype(dtype)
    fmap = rng.standard_normal(
        (batch * conv.out_height * conv.out_width, filters)).astype(dtype)
    g = rng.standard_normal((batch, conv.out_dim)).astype(dtype)
    fmap[rng.random(fmap.shape) < 0.02] = 0.0
    g[rng.random(g.shape) < 0.02] = -0.0
    return conv, weight, fmap, g


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h, w, k, filters", SLAB_STEMS)
def test_stem_input_gradient_of_64_row_chunks_is_the_whole_batch(
        h, w, k, filters, dtype):
    # The stem walks its batch in blocks aligned to image 0, of a size that
    # divides 64: chunks [0:64] and [64:128] make the calls the whole 128
    # rows make, so the result is bitwise the same on every BLAS kernel.
    conv, weight, fmap, g = _stem_case(h, w, k, filters, 128, dtype, seed=31)
    per_image = conv.out_height * conv.out_width
    whole = _stem_input_gradient(conv, weight, fmap, g)
    chunks = [_stem_input_gradient(conv, weight, fmap[s * per_image:(s + 64) * per_image],
                                   g[s:s + 64]) for s in (0, 64)]
    assert whole.dtype == np.float64 and whole.shape == (128, h * w)
    assert np.concatenate(chunks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stem_input_gradient_is_the_unpadded_product_at_the_paper_stem(dtype):
    # The zero-bordered layout changes the product's column count and
    # positions, so its rounding is the unpadded W @ g.T's only where that
    # has been measured: at the paper's stem, on OpenBLAS's SkylakeX
    # kernel, bitwise at every batch. Other kernels round some products
    # differently (the declared change); there the two must still agree
    # within the filters + k * k roundings each pixel's sum takes.
    h, w, k, filters = SLAB_STEMS[0]
    bitwise = openblas_core() in (None, "SkylakeX")
    for batch in STEM_BATCHES:
        conv, weight, fmap, g = _stem_case(h, w, k, filters, batch, dtype, seed=batch)
        got = _stem_input_gradient(conv, weight, fmap, g)
        want = unpadded_stem_input_gradient(conv, weight, fmap, g)
        if bitwise:
            assert got.tobytes() == want.tobytes(), batch
        else:
            scale = unpadded_stem_input_gradient(conv, np.abs(weight), fmap, np.abs(g))
            bound = (filters + k * k) * float(np.finfo(dtype).eps) * scale
            assert np.all(np.abs(got - want) <= bound), batch


# The PR 25 stems and one with a single output position per image, where a
# block of one image makes a one-row product.
BLOCKED_STEMS = SLAB_STEMS + [(5, 5, 5, 2)]
BLOCKED_BATCHES = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300)


def _stem_output_case(h, w, k, filters, batch, dtype, seed):
    """(stem, weight, bias, x): uniform weights and inputs in [0, 1], and a
    bias that moves some outputs across the relu."""
    conv = ConvStem(height=h, width=w, filters=filters, kernel_size=k)
    rng = np.random.default_rng(seed)
    weight = rng.uniform(-1.0 / k, 1.0 / k, size=(k * k, filters)).astype(dtype)
    bias = (0.1 * rng.standard_normal(filters)).astype(dtype)
    x = rng.uniform(0.0, 1.0, size=(batch, h * w)).astype(dtype)
    return conv, weight, bias, x


def _whole_stem_output(conv, weight, bias, x):
    """The stem's output from one product over the whole batch's slabs."""
    h = (_patch_slabs(x, conv.height, conv.width, conv.kernel_size).T @ weight
         ).reshape(len(x), conv.out_dim)
    return np.maximum(h + np.tile(bias, conv.out_height * conv.out_width), 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h, w, k, filters", BLOCKED_STEMS)
def test_blocked_stem_output_is_bitwise_the_whole_batch_product(
        h, w, k, filters, dtype):
    # Forwards that form no weight gradient take the stem's product one
    # block of images at a time. Its output, bias and relu included, is
    # bitwise one product over the whole batch's slabs, except in the
    # declared case: one output position per image and a last block of one
    # image, a one-row product numpy hands to a matrix-vector BLAS call.
    # There only that image's row may move, and it is bitwise that image's
    # own product. The reference needs one BLAS thread: with several, the
    # Haswell and Katmai kernels round the whole batch's product by where
    # the thread split puts a row, while the blocked output stays put.
    for batch in BLOCKED_BATCHES:
        conv, weight, bias, x = _stem_output_case(h, w, k, filters, batch, dtype,
                                                  seed=batch)
        got = _stem_output(conv, weight, bias, x)
        want = _whole_stem_output(conv, weight, bias, x)
        assert got.shape == want.shape and got.dtype == dtype
        if conv.out_height * conv.out_width == 1 and batch > 1 and batch % _STEM_BLOCK == 1:
            assert got[:-1].tobytes() == want[:-1].tobytes(), batch
            alone = _whole_stem_output(conv, weight, bias, x[-1:])
            assert got[-1:].tobytes() == alone.tobytes(), batch
            bound = k * k * float(np.finfo(dtype).eps) * (np.abs(weight).sum(axis=0)
                                                          + np.abs(bias))
            assert np.all(np.abs(got[-1] - want[-1]) <= bound), batch
        else:
            assert got.tobytes() == want.tobytes(), batch


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h, w, k, filters", BLOCKED_STEMS)
def test_stem_output_of_64_row_chunks_is_the_whole_batch(h, w, k, filters, dtype):
    # The blocks start at image 0 and divide 64, so chunks that start at a
    # multiple of 64 rows make the calls the whole batch makes, on every
    # BLAS kernel; a ragged last chunk of one image is the whole batch's
    # last block too, so the declared one-row case keeps this rule.
    for batch in (128, 129):
        conv, weight, bias, x = _stem_output_case(h, w, k, filters, batch, dtype,
                                                  seed=37)
        whole = _stem_output(conv, weight, bias, x)
        chunks = [_stem_output(conv, weight, bias, x[s:s + 64])
                  for s in range(0, batch, 64)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes(), batch


def test_sliding_patches_shape_validation():
    with pytest.raises(ShapeError):
        sliding_patches(Tensor(np.ones((1, 11))), 3, 4, 2)
    with pytest.raises(ShapeError):
        sliding_patches(Tensor(np.ones((1, 12))), 3, 4, 5)
