"""Weighting schemes: frozen closed-form values, monotonicity and bound
properties, burn-in exactness, and the record CSV round trip.

Expected constants were computed independently with 50-digit mpmath and are
asserted at 1e-9 relative tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mlp
from virlab import reweight
from virlab.errors import ConfigError, DataFormatError, ShapeError
from virlab.models import Classifier, predict_probs
from virlab.objectives import ObjectiveFamily, ObjectiveSpec
from virlab.reweight import (WEIGHT_CSV_HEADER, Ablation, WeightFamily,
                             WeightRecord, WeightScheme, batch_weights,
                             discrepancy_score, gairat_weight, mail_weight,
                             probability_margin, read_weight_records,
                             vir_weight, vulnerability_score,
                             write_weight_records)

REL = 1e-9


def test_vulnerability_score_frozen_values():
    assert vulnerability_score(0.0, 7.0, 10.0) == 7.0
    np.testing.assert_allclose(vulnerability_score(0.5, 7.0, 10.0),
                               0.04716562899359827, rtol=REL)
    np.testing.assert_allclose(vulnerability_score(1.0, 7.0, 10.0),
                               3.1779950833739395e-04, rtol=REL)
    np.testing.assert_allclose(vulnerability_score(0.5, 8.0, 3.0),
                               1.7850412811874385, rtol=REL)


def test_vulnerability_score_array_and_domain():
    arr = vulnerability_score(np.array([0.0, 0.5, 1.0]), 7.0, 10.0)
    assert arr.shape == (3,)
    np.testing.assert_allclose(
        arr, [7.0, 0.04716562899359827, 3.1779950833739395e-04], rtol=REL)
    assert isinstance(vulnerability_score(0.5, 7.0, 10.0), float)
    with pytest.raises(ValueError):
        vulnerability_score(-0.01, 7.0, 10.0)
    with pytest.raises(ValueError):
        vulnerability_score(1.01, 7.0, 10.0)
    with pytest.raises(ValueError):
        vulnerability_score(np.array([0.5, 1.2]), 7.0, 10.0)
    with pytest.raises(ValueError):
        vulnerability_score(np.array([0.5, np.nan]), 7.0, 10.0)


def test_discrepancy_score_frozen_values():
    assert discrepancy_score([0.3, 0.7], [0.3, 0.7]) == 0.0
    np.testing.assert_allclose(discrepancy_score([0.75, 0.25], [0.25, 0.75]),
                               0.5493061443340549, rtol=REL)
    fwd = discrepancy_score([0.9, 0.1], [0.5, 0.5])
    rev = discrepancy_score([0.5, 0.5], [0.9, 0.1])
    np.testing.assert_allclose(fwd, 0.3680642071684971, rtol=REL)
    np.testing.assert_allclose(rev, 0.5108256237659907, rtol=REL)
    assert fwd != rev  # KL is asymmetric


def test_discrepancy_score_matrix_rows():
    p = np.array([[0.75, 0.25], [0.5, 0.5]])
    q = np.array([[0.25, 0.75], [0.9, 0.1]])
    rows = discrepancy_score(p, q)
    np.testing.assert_allclose(
        rows, [0.5493061443340549, 0.5108256237659907], rtol=REL)


def test_vir_weight_frozen_values():
    assert vir_weight(123.0, 0.0, 0.007) == 0.007  # floor attained exactly
    np.testing.assert_allclose(vir_weight(7.0, 0.5, 0.007), 3.507, rtol=REL)
    w = vir_weight(vulnerability_score(0.5, 8.0, 3.0), math.log(2.0), 1.6)
    np.testing.assert_allclose(w, 2.8372963312381856, rtol=REL)


def test_gairat_weight_frozen_values():
    np.testing.assert_allclose(gairat_weight(0, 10), 0.9996646498695335, rtol=REL)
    np.testing.assert_allclose(gairat_weight(5, 10), 0.11920292202211756, rtol=REL)
    np.testing.assert_allclose(gairat_weight(10, 10), 6.144174602214718e-06, rtol=REL)


def test_gairat_weight_domain_and_monotonicity():
    with pytest.raises(ValueError):
        gairat_weight(-1, 10)
    with pytest.raises(ValueError):
        gairat_weight(11, 10)
    with pytest.raises(ValueError):
        gairat_weight(np.array([3.0, np.nan]), 10)
    vals = gairat_weight(np.arange(11), 10)
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals > 0) & (vals < 1))


def test_gairat_weight_discreteness():
    rng = np.random.default_rng(0)
    k = rng.integers(0, 11, size=500)
    vals = gairat_weight(k, 10)
    assert len(np.unique(vals)) <= 11


def test_probability_margin_examples():
    assert probability_margin([[0.6, 0.3, 0.1]], [0]) == pytest.approx(0.3, rel=REL)
    assert probability_margin([np.full(4, 0.25)], [2]) == pytest.approx(0.0, abs=1e-15)
    assert probability_margin([[0.1, 0.9]], [0]) == pytest.approx(-0.8, rel=REL)
    with pytest.raises(ConfigError):
        probability_margin([[1.0]], [0])
    with pytest.raises(IndexError):
        probability_margin([[0.5, 0.5]], [2])
    with pytest.raises(IndexError):
        probability_margin([[0.5, 0.5]], [-1])
    with pytest.raises(ShapeError):
        probability_margin([[0.5, 0.5], [0.2, 0.8]], [0])
    with pytest.raises(ValueError, match="labels must be integers"):
        probability_margin([[0.5, 0.5]], [1.0])


def margin_loop(p, y):
    """Row by row: true-class probability minus the largest other entry."""
    return np.array([p[i, y[i]] - np.delete(p[i], y[i]).max()
                     for i in range(len(y))])


def test_probability_margin_is_the_per_row_loop():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, c = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(c), size=n)
        y = rng.integers(0, c, size=n)
        np.testing.assert_array_equal(probability_margin(p, y), margin_loop(p, y))


def test_mail_weight_frozen_values():
    assert mail_weight(0.0, 10.0, 0.0) == 0.5
    assert mail_weight(0.37, 10.0, 0.37) == 0.5  # pm == beta centers at 1/2
    np.testing.assert_allclose(mail_weight(1.0, 10.0, 0.0),
                               4.5397868702434395e-05, rtol=REL)
    np.testing.assert_allclose(mail_weight(-1.0, 10.0, 0.0),
                               0.9999546021312976, rtol=REL)


def test_mail_weight_stable_at_extreme_slope():
    lo = mail_weight(1.0, 1e4, 0.0)
    hi = mail_weight(-1.0, 1e4, 0.0)
    assert 0.0 <= lo < 1e-300
    assert hi == 1.0  # saturates cleanly, never overflows
    arr = mail_weight(np.linspace(-1, 1, 9), 1e4, 0.0)
    assert np.all(np.isfinite(arr))


# -- properties ------------------------------------------------------------------


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 5.0))
@settings(max_examples=100, deadline=None)
def test_vir_monotone_decreasing_in_prob_true(p1, p2, s_d):
    if abs(p1 - p2) < 1e-9:
        return
    lo, hi = min(p1, p2), max(p1, p2)
    w_lo = vir_weight(vulnerability_score(lo, 7.0, 10.0), s_d, 0.007)
    w_hi = vir_weight(vulnerability_score(hi, 7.0, 10.0), s_d, 0.007)
    assert w_lo > w_hi


@given(st.floats(0.0, 1.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
@settings(max_examples=100, deadline=None)
def test_vir_monotone_increasing_in_discrepancy(p, d1, d2):
    if abs(d1 - d2) < 1e-9:
        return
    lo, hi = min(d1, d2), max(d1, d2)
    s_v = vulnerability_score(p, 7.0, 10.0)
    assert vir_weight(s_v, hi, 0.007) > vir_weight(s_v, lo, 0.007)


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 3.0)),
                min_size=2, max_size=16))
@settings(max_examples=100, deadline=None)
def test_vir_floor_and_extremal_assignment(pairs):
    probs = np.array([p for p, _ in pairs])
    s_d = np.array([d for _, d in pairs])
    s_v = vulnerability_score(probs, 7.0, 10.0)
    w = vir_weight(s_v, s_d, 0.007)
    assert np.all(w >= 0.007)
    product = s_v * s_d
    # adding the floor can round distinct tiny products to identical weights;
    # the extremal-assignment claim applies wherever w still distinguishes
    if np.sum(w == w.max()) == 1:
        assert np.argmax(w) == np.argmax(product)
    if np.sum(w == w.min()) == 1:
        assert np.argmin(w) == np.argmin(product)


def test_mail_weight_strictly_decreasing():
    pm = np.linspace(-1, 1, 41)
    vals = mail_weight(pm, 10.0, 0.0)
    assert np.all(np.diff(vals) < 0)


# -- scheme validation -----------------------------------------------------------


def test_weight_scheme_validation():
    with pytest.raises(ConfigError):
        WeightScheme(WeightFamily.VIR, alpha=0.0)
    with pytest.raises(ConfigError):
        WeightScheme(WeightFamily.VIR, gamma=0.5)
    with pytest.raises(ConfigError):
        WeightScheme(WeightFamily.VIR, beta=-0.1)
    with pytest.raises(ConfigError):
        WeightScheme(WeightFamily.VIR, burn_in_epoch=-1)
    assert WeightScheme("UNIFORM").family is WeightFamily.UNIFORM


@pytest.mark.parametrize("family", ["GAIRAT", "MAIL", "UNIFORM"])
def test_only_vir_takes_an_ablation(family):
    assert WeightScheme(family, ablation="FULL").ablation is Ablation.FULL
    for ablation in ("SV_ONLY", "SD_ONLY"):
        assert WeightScheme("VIR", ablation=ablation).ablation is Ablation(ablation)
        with pytest.raises(ConfigError, match=f"ablation {ablation} needs family VIR"):
            WeightScheme(family, ablation=ablation)


def test_preset_schemes_match_published_defaults():
    at = WeightScheme(WeightFamily.VIR)
    assert (at.alpha, at.gamma, at.beta) == (7.0, 10.0, 0.007)
    assert ObjectiveSpec(ObjectiveFamily.AT).weight_scheme == at
    # VIR-TRADES's published (alpha, gamma, beta) form a valid VIR scheme.
    tr = WeightScheme(WeightFamily.VIR, alpha=8.0, gamma=3.0, beta=1.6)
    assert at.burn_in_epoch == tr.burn_in_epoch == 75


# -- batch_weights ---------------------------------------------------------------


def logit_model(classes=2) -> Classifier:
    """Identity dense layer: the input row IS the logit row."""
    model = make_mlp((classes, classes), seed=0)
    model.params["dense0.weight"].data[:] = np.eye(classes)
    model.params["dense0.bias"].data[:] = 0.0
    return model


def test_burn_in_emits_exact_ones_for_every_family():
    rng = np.random.default_rng(1)
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)
    for family in WeightFamily:
        scheme = WeightScheme(family, burn_in_epoch=75)
        w, records = batch_weights(scheme, 75, model, x, x, y,
                                   k_values=np.zeros(6, dtype=int))
        assert w.dtype == np.float64
        np.testing.assert_array_equal(w, np.ones(6))
        assert all(r.weight == 1.0 and r.s_v is None and r.s_d is None
                   for r in records)


def test_uniform_is_ones_at_any_epoch():
    rng = np.random.default_rng(2)
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    w, _ = batch_weights(WeightScheme(WeightFamily.UNIFORM, burn_in_epoch=0),
                         100, model, x, x, y)
    np.testing.assert_array_equal(w, np.ones(5))


def test_vir_orders_vulnerable_samples_first(monkeypatch):
    # prob_true 0.2 vs 0.8 with s_d pinned equal: the vulnerable sample wins.
    model = logit_model()
    a = math.log(0.2 / 0.8)
    b = math.log(0.8 / 0.2)
    x = np.array([[a, 0.0], [b, 0.0]])
    y = np.array([0, 0])
    scheme = WeightScheme(WeightFamily.VIR, burn_in_epoch=75)
    monkeypatch.setattr(reweight, "discrepancy_score",
                        lambda p_nat, p_adv: np.ones(len(p_nat)))
    w, records = batch_weights(scheme, 77, model, x, x, y)
    assert w[0] > w[1]
    np.testing.assert_allclose(records[0].prob_true, 0.2, rtol=1e-12)
    np.testing.assert_allclose(records[1].prob_true, 0.8, rtol=1e-12)
    np.testing.assert_allclose(
        w, vulnerability_score(np.array([0.2, 0.8]), 7.0, 10.0) * 1.0 + 0.007,
        rtol=1e-9)
    assert records[0].s_d == 1.0 and records[1].s_d == 1.0


def test_vir_weights_recompute_from_model_predictions(rng):
    model = make_mlp((4, 8, 3), seed=3)
    x_nat = rng.standard_normal((7, 4))
    x_adv = x_nat + 0.3 * np.sign(rng.standard_normal((7, 4)))
    y = rng.integers(0, 3, size=7)
    scheme = WeightScheme(WeightFamily.VIR, burn_in_epoch=10)
    w, records = batch_weights(scheme, 11, model, x_nat, x_adv, y)
    p_nat = predict_probs(model, x_nat)
    p_adv = predict_probs(model, x_adv)
    s_v = vulnerability_score(p_nat[np.arange(7), y], 7.0, 10.0)
    s_d = discrepancy_score(p_nat, p_adv)
    np.testing.assert_allclose(w, s_v * s_d + 0.007, rtol=1e-12)
    np.testing.assert_allclose([r.s_v for r in records], s_v, rtol=1e-12)
    np.testing.assert_allclose([r.s_d for r in records], s_d, rtol=1e-12)


def test_vir_ablations_drop_the_other_factor(rng):
    model = make_mlp((4, 8, 3), seed=3)
    x_nat = rng.standard_normal((5, 4))
    x_adv = x_nat + 0.2
    y = rng.integers(0, 3, size=5)

    def weights(ablation):
        scheme = WeightScheme(WeightFamily.VIR, burn_in_epoch=0, ablation=ablation)
        return batch_weights(scheme, 1, model, x_nat, x_adv, y)

    w_full, rec = weights(Ablation.FULL)
    w_sv, _ = weights(Ablation.SV_ONLY)
    w_sd, _ = weights(Ablation.SD_ONLY)
    np.testing.assert_allclose(w_full, w_sv * w_sd + 0.007, rtol=1e-12)
    np.testing.assert_allclose([r.s_v for r in rec], w_sv, rtol=1e-12)
    np.testing.assert_allclose([r.s_d for r in rec], w_sd, rtol=1e-12)


def test_gairat_batch_weights_and_errors(rng):
    model = make_mlp((4, 8, 3), seed=4)
    x = rng.standard_normal((4, 4))
    y = rng.integers(0, 3, size=4)
    scheme = WeightScheme(WeightFamily.GAIRAT, burn_in_epoch=0)
    k = np.array([0, 3, 5, 10])
    w, _ = batch_weights(scheme, 1, model, x, x, y, k_values=k, k_budget=10)
    np.testing.assert_allclose(w, gairat_weight(k, 10), rtol=1e-12)
    w, _ = batch_weights(scheme, 1, model, x, x, y, k_values=k // 2, k_budget=5)
    np.testing.assert_allclose(w, gairat_weight(k // 2, 5), rtol=1e-12)
    with pytest.raises(ConfigError):
        batch_weights(scheme, 1, model, x, x, y)  # probe output missing
    with pytest.raises(ConfigError):
        batch_weights(scheme, 1, model, x, x, y, k_values=k)  # budget missing
    with pytest.raises(ShapeError):
        batch_weights(scheme, 1, model, x, x, y, k_values=k[:2], k_budget=10)
    with pytest.raises(ValueError):
        batch_weights(scheme, 1, model, x, x, y, k_values=k, k_budget=5)
    with pytest.raises(ValueError, match="labels must be integers"):
        batch_weights(scheme, 1, model, x, x, y.astype(float), k_values=k,
                      k_budget=10)


def test_mail_batch_weights(rng):
    model = make_mlp((4, 8, 3), seed=5)
    x_nat = rng.standard_normal((6, 4))
    x_adv = x_nat + 0.25
    y = rng.integers(0, 3, size=6)
    scheme = WeightScheme(WeightFamily.MAIL, gamma=10.0, beta=0.0,
                          burn_in_epoch=0)
    w, _ = batch_weights(scheme, 1, model, x_nat, x_adv, y)
    p_adv = predict_probs(model, x_adv)
    np.testing.assert_allclose(w, mail_weight(margin_loop(p_adv, y), 10.0, 0.0),
                               rtol=1e-12)
    with pytest.raises(ValueError, match="labels must be integers"):
        batch_weights(scheme, 1, model, x_nat, x_adv, y.astype(float))


def test_batch_weights_alignment_errors(rng):
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((4, 4))
    y = np.array([0, 1, 2, 0])
    scheme = WeightScheme(WeightFamily.VIR)
    with pytest.raises(ShapeError):
        batch_weights(scheme, 1, model, x, x[:3], y)
    with pytest.raises(ShapeError):
        batch_weights(scheme, 1, model, x, x, y[:3])
    with pytest.raises(ShapeError):
        batch_weights(scheme, 1, model, x, x, y, indices=np.arange(5))


def test_batch_weights_records_carry_dataset_indices(rng):
    model = make_mlp((4, 8, 3), seed=1)
    x = rng.standard_normal((3, 4))
    y = np.array([2, 0, 1])
    idx = np.array([140, 7, 33])
    _, records = batch_weights(WeightScheme(WeightFamily.VIR), 90, model, x, x, y,
                               indices=idx)
    assert [r.sample_index for r in records] == [140, 7, 33]
    assert [r.class_label for r in records] == [2, 0, 1]
    assert all(r.epoch == 90 for r in records)
    assert all(0.0 <= r.prob_true <= 1.0 for r in records)


# -- record CSV ----------------------------------------------------------------


def rec(epoch, idx, cls, w, s_v=None, s_d=None, p=0.5):
    return WeightRecord(epoch=epoch, sample_index=idx, class_label=cls,
                        prob_true=p, s_v=s_v, s_d=s_d, weight=w)


def test_weight_records_csv_round_trip(tmp_path):
    records = [
        rec(76, 10, 0, 0.00812, s_v=0.047, s_d=0.024, p=0.5),
        rec(76, 11, 2, 1.0),  # burn-in style row: empty score cells
    ]
    path = tmp_path / "weights.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(WEIGHT_CSV_HEADER) + "\n")
        write_weight_records(records, fh)
        write_weight_records([rec(77, 10, 0, 0.009, s_v=0.05, s_d=0.04)], fh)
    text = path.read_text()
    assert text.count("epoch") == 1  # appending never repeats the header
    assert "np.float64" not in text
    back = read_weight_records(path)
    assert back == records + [rec(77, 10, 0, 0.009, s_v=0.05, s_d=0.04)]


def test_read_weight_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_weight_records(path)


@pytest.mark.parametrize("text, where", [
    ("", ":1:"),
    ("a,b,c\n1,2,3\n", ":1:"),
    (",".join(WEIGHT_CSV_HEADER) + "\n1,0,x,0.5,,,1.0\n", ":2:"),
    (",".join(WEIGHT_CSV_HEADER) + "\n1,0,2,0.5,,,1.0\n1,0,2,0.5\n", ":3:"),
    (",".join(WEIGHT_CSV_HEADER) + "\n1,0,2,0.5,,,1.0,9\n", ":2:"),
])
def test_read_weight_records_names_the_bad_line(tmp_path, text, where):
    path = tmp_path / "weights.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=where):
        read_weight_records(path)


def test_write_weight_records_appends_to_a_non_seekable_stream():
    class WriteOnly:  # no tell() or seek(), as a pipe
        def __init__(self):
            self.text = ""

        def write(self, s):
            self.text += s

    fh = WriteOnly()
    write_weight_records([rec(1, 0, 0, 1.0)], fh)
    write_weight_records([rec(2, 0, 0, 1.0, s_v=0.5, s_d=0.25)], fh)
    assert fh.text == "1,0,0,0.5,,,1.0\n2,0,0,0.5,0.5,0.25,1.0\n"
