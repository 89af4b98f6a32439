"""Two-class Gaussian-mixture theory: closed-form risks against independently
computed values (50-digit mpmath oracle, frozen below), Monte Carlo
agreement, and the vulnerability-ordering corollary."""

import numpy as np
import pytest

from oracles import linear_risk, true_class_posterior
from virlab.errors import ConfigError
from virlab.gmm import (CorollaryReport, GmmSpec, LinearClassifier,
                        corollary_check, margin_true_class_prob,
                        monte_carlo_risks, optimal_linear, risk_report,
                        sample_gmm, std_normal_cdf, theorem1_risks)

REL = 1e-9

CANON = GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=2.0)

# mpmath (50 digits): R-, R+ for d=4, eta=1, sigma=2 at each K
FROZEN_RISKS = {
    1.5: (0.13853051930550964, 0.27136058791216217),
    2.0: (0.10793519173010149, 0.35152444002085825),
    4.0: (0.04773864258555756, 0.4668449351442504),
}
FROZEN_C = 0.4751678202812827  # projected threshold for the canonical spec


def test_spec_validation():
    with pytest.raises(ConfigError):
        GmmSpec(d=0, eta=1.0, sigma=1.0, k_var=2.0)
    with pytest.raises(ConfigError):
        GmmSpec(d=4, eta=-1.0, sigma=1.0, k_var=2.0)
    with pytest.raises(ConfigError):
        GmmSpec(d=4, eta=1.0, sigma=0.0, k_var=2.0)
    with pytest.raises(ConfigError):
        GmmSpec(d=4, eta=1.0, sigma=1.0, k_var=1.0)  # q(K) singular at K=1
    np.testing.assert_array_equal(CANON.mu, np.ones(4))


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    np.testing.assert_allclose(std_normal_cdf(1.959964), 0.9750000009035577,
                               rtol=REL)
    np.testing.assert_allclose(std_normal_cdf(-1.0), 0.15865525393145705,
                               rtol=REL)
    rng = np.random.default_rng(0)
    for z in rng.uniform(-6, 6, size=50):
        assert abs(std_normal_cdf(-z) - (1.0 - std_normal_cdf(z))) < 1e-12
    with pytest.raises(ValueError):
        std_normal_cdf(float("nan"))


def test_theorem1_risks_frozen_values():
    for k, (rm, rp) in FROZEN_RISKS.items():
        got_rm, got_rp = theorem1_risks(GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=k))
        np.testing.assert_allclose(got_rm, rm, rtol=REL)
        np.testing.assert_allclose(got_rp, rp, rtol=REL)


def test_theorem1_separated_classes_have_no_risk():
    rm, rp = theorem1_risks(GmmSpec(d=4, eta=100.0, sigma=2.0, k_var=2.0))
    assert rm < 1e-10 and rp < 1e-10


def test_theorem1_ordering_for_random_specs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        spec = GmmSpec(d=int(rng.integers(1, 33)),
                       eta=float(rng.uniform(0.1, 5.0)),
                       sigma=float(rng.uniform(0.1, 5.0)),
                       k_var=float(rng.uniform(1.05, 8.0)))
        rm, rp = theorem1_risks(spec)
        assert 0.0 <= rm <= rp < 1.0
        # strict ordering, except where both tails have underflowed to 0
        assert rm < rp or rp < 1e-12


def test_wide_class_risk_monotone_in_k():
    ks = np.linspace(1.1, 8.0, 70)
    rps = [theorem1_risks(GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=float(k)))[1]
           for k in ks]
    assert np.all(np.diff(rps) >= -1e-15)


def test_optimal_linear_threshold_and_direction():
    clf = optimal_linear(CANON)
    np.testing.assert_allclose(clf.omega, np.full(4, 0.5), rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(clf.omega), 1.0, rtol=1e-12)
    np.testing.assert_allclose(-clf.b, FROZEN_C, rtol=REL)


def test_threshold_consistency_for_random_specs():
    # the two derivations of c (from either class's risk) must agree; an
    # ArithmeticError from optimal_linear is the failure signal
    rng = np.random.default_rng(2)
    for _ in range(100):
        spec = GmmSpec(d=int(rng.integers(1, 33)),
                       eta=float(rng.uniform(0.1, 5.0)),
                       sigma=float(rng.uniform(0.1, 5.0)),
                       k_var=float(rng.uniform(1.05, 8.0)))
        optimal_linear(spec)


def test_linear_risk_matches_theorem_for_optimal_classifier():
    clf = optimal_linear(CANON)
    rm, rp = linear_risk(clf, CANON)
    np.testing.assert_allclose((rm, rp), theorem1_risks(CANON), rtol=1e-12)
    with pytest.raises(ConfigError):
        linear_risk(LinearClassifier(omega=np.zeros(4), b=0.0), CANON)


def test_no_perturbed_linear_classifier_beats_the_optimum():
    clf = optimal_linear(CANON)
    best = 0.5 * sum(linear_risk(clf, CANON))
    rng = np.random.default_rng(3)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-4, 0)
        omega = clf.omega + scale * rng.standard_normal(4)
        if np.linalg.norm(omega) == 0.0:
            continue
        b = clf.b + scale * rng.standard_normal()
        total = 0.5 * sum(linear_risk(LinearClassifier(omega, b), CANON))
        assert total >= best - 1e-12


def test_sign_zero_predicts_plus_one():
    clf = LinearClassifier(omega=np.array([1.0, 0.0]), b=0.0)
    np.testing.assert_array_equal(clf.predict(np.zeros((1, 2))), [1])


# -- sampling --------------------------------------------------------------------


def test_sample_gmm_deterministic_and_validated():
    x1, y1 = sample_gmm(CANON, 1000, seed=7)
    x2, y2 = sample_gmm(CANON, 1000, seed=7)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert set(np.unique(y1)) == {-1, 1}
    with pytest.raises(ConfigError):
        sample_gmm(CANON, 0)


def test_sample_gmm_label_frequency_matches_prior():
    n = 100_000
    _, y = sample_gmm(CANON, n, seed=11)
    freq = float((y == 1).mean())
    assert abs(freq - 0.5) <= 4.0 * np.sqrt(0.25 / n)


def test_sample_gmm_class_means_within_clt_bounds():
    n = 100_000
    x, y = sample_gmm(CANON, n, seed=13)
    for cls, sign, std in ((-1, -1.0, CANON.sigma),
                           (1, 1.0, CANON.k_var * CANON.sigma)):
        rows = x[y == cls]
        se = std / np.sqrt(rows.shape[0])
        np.testing.assert_array_less(np.abs(rows.mean(axis=0) - sign * CANON.eta),
                                     5.0 * se)


def test_sample_gmm_std_ratio_matches_k_var():
    n = 100_000
    x, y = sample_gmm(CANON, n, seed=17)
    ratio = x[y == 1].std() / x[y == -1].std()
    assert abs(ratio - CANON.k_var) / CANON.k_var < 0.05


# -- Monte Carlo -----------------------------------------------------------------


def test_monte_carlo_risks_of_constant_classifier():
    # b = -inf surrogate: everything predicted -1
    always_minus = LinearClassifier(omega=np.full(4, 0.5), b=-1e300)
    rm, rp, se_m, se_p = monte_carlo_risks(always_minus, CANON, 10_000, seed=0)
    assert (rm, rp) == (0.0, 1.0)
    assert (se_m, se_p) == (0.0, 0.0)


def test_monte_carlo_rejects_small_samples():
    with pytest.raises(ConfigError):
        monte_carlo_risks(optimal_linear(CANON), CANON, 9_999)


def test_monte_carlo_matches_closed_form_within_five_se():
    clf = optimal_linear(CANON)
    rm, rp, se_m, se_p = monte_carlo_risks(clf, CANON, 1_000_000, seed=19)
    true_rm, true_rp = theorem1_risks(CANON)
    assert abs(rm - true_rm) < 5.0 * se_m
    assert abs(rp - true_rp) < 5.0 * se_p


def test_monte_carlo_se_scales_like_inverse_sqrt_n():
    clf = optimal_linear(CANON)
    _, _, se1, _ = monte_carlo_risks(clf, CANON, 100_000, seed=23)
    _, _, se2, _ = monte_carlo_risks(clf, CANON, 200_000, seed=23)
    ratio = se1 / se2
    assert abs(ratio - np.sqrt(2.0)) < 0.1 * np.sqrt(2.0)


def test_risk_report_bundles_everything():
    report = risk_report(CANON, n=100_000, seed=29)
    np.testing.assert_allclose(report.r_minus, FROZEN_RISKS[2.0][0], rtol=REL)
    np.testing.assert_allclose(report.r_plus, FROZEN_RISKS[2.0][1], rtol=REL)
    assert report.p_minus == 1.0 - report.r_minus
    assert report.p_plus == 1.0 - report.r_plus
    assert report.mc_agrees
    assert report.n == 100_000


# -- the corollary ---------------------------------------------------------------


def test_corollary_closed_form_ordering():
    report = corollary_check(CANON, n=100_000, seed=31)
    np.testing.assert_allclose(report.p_minus, 0.8920648082698985, rtol=REL)
    np.testing.assert_allclose(report.p_plus, 0.6484755599791417, rtol=REL)
    assert report.ordering_holds and report.prob_ordering_holds
    assert report.passed


def test_corollary_holds_across_k_sweep():
    for k in (1.5, 2.0, 4.0):
        report = corollary_check(GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=k),
                                 n=100_000, seed=37)
        assert report.passed
        # the mean estimated true-class probability separates by a clear gap
        assert report.prob_mean_minus - report.prob_mean_plus > 0.05


def test_corollary_gap_closes_as_k_approaches_one():
    spec = GmmSpec(d=4, eta=1.0, sigma=2.0, k_var=1.0001)
    rm, rp = theorem1_risks(spec)
    assert abs((1.0 - rm) - (1.0 - rp)) < 0.01


def test_margin_prob_is_monotone_readout_in_unit_interval():
    clf = optimal_linear(CANON)
    x, y = sample_gmm(CANON, 2_000, seed=41)
    prob = margin_true_class_prob(clf, CANON, x, y)
    assert prob.shape == (2_000,)
    assert prob.min() > 0.0 and prob.max() < 1.0
    margin = y * (x @ clf.omega + clf.b)
    order = np.argsort(margin)
    assert np.all(np.diff(prob[order]) >= 0)


def test_bayes_posterior_class_means_are_identical():
    """With equal priors, E[P(y_true | x) | y] is the same for both classes
    for ANY pair of class densities: integrating (p+^2 - p-^2)/(p+ + p-)
    equals the integral of p+ - p-, which is zero. This degeneracy is why
    the corollary's Monte Carlo readout uses the classifier margin instead."""
    for k in (1.5, 4.0):
        spec = GmmSpec(d=3, eta=1.0, sigma=1.5, k_var=k)
        x, y = sample_gmm(spec, 200_000, seed=43)
        post = true_class_posterior(spec, x, y)
        assert np.all((post >= 0.0) & (post <= 1.0))
        minus, plus = post[y == -1], post[y == 1]
        se = np.sqrt(minus.var() / minus.size + plus.var() / plus.size)
        assert abs(minus.mean() - plus.mean()) < 5.0 * se


def test_corollary_report_passed_requires_both_orderings():
    good = CorollaryReport(p_minus=0.9, p_plus=0.6, ordering_holds=True,
                           prob_mean_minus=0.8, prob_mean_plus=0.7,
                           prob_ordering_holds=True)
    assert good.passed
    half = CorollaryReport(p_minus=0.9, p_plus=0.6, ordering_holds=True,
                           prob_mean_minus=0.7, prob_mean_plus=0.8,
                           prob_ordering_holds=False)
    assert not half.passed
