"""Two-class Gaussian mixture with unequal variances, in closed form.

The mixture is balanced: each label is drawn with probability 1/2. Class
-1 is N(-mu, sigma^2 I) and class +1 is N(+mu, (K*sigma)^2 I) with
mu = (eta, ..., eta) and K > 1, so the +1 class is the wider one. The
module gives the optimal linear classifier, its exact class-conditional
risks

    R- = Phi(A - K*sqrt(A^2 + q)),   R+ = Phi(-K*A + sqrt(A^2 + q)),
    A  = (2/(K^2-1)) * (sqrt(d)*eta/sigma),   q = 2*ln(K)/(K^2-1),

Monte Carlo cross-checks, and the corollary that the wider class ends up
with the lower correct-class probability (it is the more vulnerable one).

Labels here are +-1; the dataset layer maps them to {0,1} for training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class GmmSpec:
    d: int
    eta: float
    sigma: float
    k_var: float

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.k_var <= 1:
            raise ConfigError(f"k_var must exceed 1, got {self.k_var}")

    @property
    def mu(self) -> np.ndarray:
        return np.full(self.d, self.eta)


@dataclass(frozen=True)
class LinearClassifier:
    """Predicts sign(<omega, x> + b), with sign(0) = +1."""

    omega: np.ndarray
    b: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        score = x @ np.asarray(self.omega, dtype=np.float64) + self.b
        return np.where(score >= 0.0, 1, -1)


def sample_gmm(spec: GmmSpec, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw (features, labels in {-1,+1}); deterministic in seed."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    x = rng.standard_normal((n, spec.d))
    stds = np.where(labels == 1, spec.k_var * spec.sigma, spec.sigma)
    x = x * stds[:, None] + labels[:, None] * spec.mu[None, :]
    return x, labels


def std_normal_cdf(z: float) -> float:
    """Phi(z) via the complementary error function; |error| < 1e-12."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _theorem_terms(spec: GmmSpec) -> tuple[float, float, float]:
    k = spec.k_var
    a = (2.0 / (k * k - 1.0)) * (math.sqrt(spec.d) * spec.eta / spec.sigma)
    q = 2.0 * math.log(k) / (k * k - 1.0)
    return a, q, math.sqrt(a * a + q)


def theorem1_risks(spec: GmmSpec) -> tuple[float, float]:
    """Closed-form class-conditional risks (R-, R+) of the optimal linear rule."""
    a, _, root = _theorem_terms(spec)
    k = spec.k_var
    return (std_normal_cdf(a - k * root), std_normal_cdf(-k * a + root))


def optimal_linear(spec: GmmSpec) -> LinearClassifier:
    """Risk-minimizing linear classifier: omega = mu/|mu|, threshold c on the
    projection, b = -c.

    c has two algebraically equal derivations (from either class's risk);
    both are evaluated and must agree within 1e-9.
    """
    a, _, root = _theorem_terms(spec)
    k = spec.k_var
    sd_eta = math.sqrt(spec.d) * spec.eta
    c_plus = sd_eta + k * spec.sigma * (-k * a + root)
    c_minus = -sd_eta + spec.sigma * (-a + k * root)
    if abs(c_plus - c_minus) > 1e-9:
        raise ArithmeticError(
            f"threshold derivations disagree: {c_plus} vs {c_minus}"
        )
    omega = spec.mu / np.linalg.norm(spec.mu)
    return LinearClassifier(omega=omega, b=-c_plus)


def monte_carlo_risks(classifier: LinearClassifier, spec: GmmSpec, n: int,
                      seed: int = 0) -> tuple[float, float, float, float]:
    """Empirical (R-, R+, SE-, SE+) over n mixture draws.

    Standard errors are binomial, sqrt(R(1-R)/n_class).
    """
    if n < 10_000:
        raise ConfigError(f"need n >= 10^4 for stable estimates, got {n}")
    x, labels = sample_gmm(spec, n, seed)
    pred = classifier.predict(x)
    out = []
    for cls in (-1, 1):
        mask = labels == cls
        n_cls = int(mask.sum())
        if n_cls == 0:
            raise ValueError(f"class {cls:+d} absent from the sample")
        risk = float((pred[mask] != cls).mean())
        out.extend([risk, math.sqrt(risk * (1.0 - risk) / n_cls)])
    r_minus, se_minus, r_plus, se_plus = out
    return r_minus, r_plus, se_minus, se_plus


def margin_true_class_prob(classifier: LinearClassifier, spec: GmmSpec,
                           x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """A classifier's estimated true-class probability: probit link on the
    signed margin, softened by the narrow class's projected scale.

    Deliberately NOT the mixture's Bayes posterior. With equal priors the
    class-conditional mean of the true-class Bayes posterior is identical
    for both classes (integrate (p+^2 - p-^2)/(p+ + p-) = p+ - p- over x),
    so it cannot rank one class as more vulnerable on average. A monotone
    readout of the margin, which is what a trained model actually emits,
    has no such degeneracy.
    """
    x = np.asarray(x, dtype=np.float64)
    margin = labels * (x @ classifier.omega + classifier.b)
    scale = spec.sigma * float(np.linalg.norm(classifier.omega))
    return np.array([std_normal_cdf(v) for v in margin / scale])


@dataclass(frozen=True)
class CorollaryReport:
    p_minus: float
    p_plus: float
    ordering_holds: bool
    prob_mean_minus: float
    prob_mean_plus: float
    prob_ordering_holds: bool

    @property
    def passed(self) -> bool:
        return self.ordering_holds and self.prob_ordering_holds


def corollary_check(spec: GmmSpec, n: int = 100_000, seed: int = 0) -> CorollaryReport:
    """Is the wider class the more vulnerable one, two ways?

    Closed form: P- = 1-R- must exceed P+ = 1-R+. Monte Carlo: the optimal
    classifier's mean estimated true-class probability must be lower for
    class +1 samples (margin_true_class_prob explains the choice of
    estimate).
    """
    r_minus, r_plus = theorem1_risks(spec)
    x, labels = sample_gmm(spec, n, seed)
    prob = margin_true_class_prob(optimal_linear(spec), spec, x, labels)
    mean_minus = float(prob[labels == -1].mean())
    mean_plus = float(prob[labels == 1].mean())
    return CorollaryReport(
        p_minus=1.0 - r_minus,
        p_plus=1.0 - r_plus,
        ordering_holds=(1.0 - r_minus) > (1.0 - r_plus),
        prob_mean_minus=mean_minus,
        prob_mean_plus=mean_plus,
        prob_ordering_holds=mean_plus < mean_minus,
    )


@dataclass(frozen=True)
class RiskReport:
    spec: GmmSpec
    r_minus: float
    r_plus: float
    mc_r_minus: float
    mc_r_plus: float
    se_minus: float
    se_plus: float
    n: int

    @property
    def p_minus(self) -> float:
        return 1.0 - self.r_minus

    @property
    def p_plus(self) -> float:
        return 1.0 - self.r_plus

    @property
    def mc_agrees(self) -> bool:
        """Monte Carlo within five standard errors of the closed forms."""
        return (abs(self.mc_r_minus - self.r_minus) < 5.0 * self.se_minus
                and abs(self.mc_r_plus - self.r_plus) < 5.0 * self.se_plus)


def risk_report(spec: GmmSpec, n: int = 1_000_000, seed: int = 0) -> RiskReport:
    """Closed forms plus Monte Carlo cross-check for the optimal classifier."""
    r_minus, r_plus = theorem1_risks(spec)
    mc_minus, mc_plus, se_minus, se_plus = monte_carlo_risks(
        optimal_linear(spec), spec, n, seed
    )
    return RiskReport(spec=spec, r_minus=r_minus, r_plus=r_plus,
                      mc_r_minus=mc_minus, mc_r_plus=mc_plus,
                      se_minus=se_minus, se_plus=se_plus, n=n)
