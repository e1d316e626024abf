"""Beta-distribution and beta-mixture math.

Everything the training loss, the crop aggregation, and the uncertainty
measure need: log-density, analytic loss gradients, the loss of a whole
batch, closed-form moments, equal-weight mixture summarization, and the
two special functions (ln B and digamma) implemented locally so their
accuracy is test-enforced rather than inherited from whatever libm the
platform ships. The log-density and its gradient are each written once,
as unvalidated kernels that every caller here runs.

All functions here are pure and operate on Python floats; they are safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalError

__all__ = [
    "BetaParams",
    "BetaMixture",
    "PredictiveSummary",
    "ln_beta_fn",
    "digamma",
    "beta_log_pdf",
    "beta_nll_grad",
    "beta_nll_batch",
    "beta_moments",
    "mixture_summary",
    "mixture_density_grid",
    "clip_label",
    "hard_label",
]

# Arguments below this are raised by recurrence before the asymptotic
# series is applied; at x >= 10 the truncated series is accurate to ~1e-15.
_ASYMPTOTIC_MIN = 10.0

# Stirling-series coefficients B_2n / (2n (2n-1)) for
# ln Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi)/2 + sum c_k / x^(2k-1).
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_2n / 2n for psi(x) ~ ln x - 1/(2x) - sum d_k / x^(2k).
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _require_positive_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def _stirling_tail(x: float) -> float:
    """Correction series J(x) with lnGamma(x) = Stirling(x) + J(x), x >= 10."""
    inv = 1.0 / x
    inv2 = inv * inv
    total = 0.0
    power = inv
    for c in _STIRLING_COEFFS:
        total += c * power
        power *= inv2
    return total


def ln_beta_fn(alpha: float, beta: float) -> float:
    """ln B(alpha, beta) = lnGamma(alpha) + lnGamma(beta) - lnGamma(alpha+beta).

    Evaluated without forming the individual lnGamma values: both arguments
    are raised above 10 with the identity B(a, b) = B(a+1, b) * (a+b) / a and
    the remaining Stirling terms are combined so the large (x ln x)-scale
    contributions cancel algebraically instead of numerically.
    """
    return _ln_beta(_require_positive_finite(alpha, "alpha"),
                    _require_positive_finite(beta, "beta"))


def _ln_beta(a: float, b: float) -> float:
    """ln_beta_fn for floats already known to be positive and finite."""
    shift = 0.0
    while a < _ASYMPTOTIC_MIN:
        # ln B(a,b) = ln B(a+1,b) + ln(a+b) - ln(a)
        shift += math.log1p(b / a)
        a += 1.0
    while b < _ASYMPTOTIC_MIN:
        shift += math.log1p(a / b)
        b += 1.0

    s = a + b
    # (a-1/2) ln(a/s) + (b-1/2) ln(b/s) - ln(s)/2 + ln(2 pi)/2, with the
    # ratios evaluated through log1p to keep them accurate when one
    # argument dwarfs the other.
    main = (
        -(a - 0.5) * math.log1p(b / a)
        - (b - 0.5) * math.log1p(a / b)
        - 0.5 * math.log(s)
        + _HALF_LN_TWO_PI
    )
    return shift + main + _stirling_tail(a) + _stirling_tail(b) - _stirling_tail(s)


def digamma(x: float) -> float:
    """psi(x) = d/dx lnGamma(x) for x > 0.

    Upward recurrence psi(x+1) = psi(x) + 1/x lifts the argument above 10,
    then the asymptotic expansion finishes the job.
    """
    return _digamma(_require_positive_finite(x, "x"))


def _digamma(x: float) -> float:
    """digamma for a float already known to be positive and finite."""
    acc = 0.0
    while x < _ASYMPTOTIC_MIN:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv2
    for d in _DIGAMMA_COEFFS:
        tail += d * power
        power *= inv2
    return acc + math.log(x) - 0.5 * inv - tail


@dataclass(frozen=True)
class BetaParams:
    """One beta distribution over the positive-class probability.

    The network head emits one of these per crop; softplus keeps both
    parameters strictly positive, and the constructor enforces it.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive_finite(self.alpha, "alpha")
        _require_positive_finite(self.beta, "beta")


@dataclass(frozen=True)
class BetaMixture:
    """Equal-weight mixture of per-crop beta components (weights implied 1/N)."""

    components: tuple[BetaParams, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class PredictiveSummary:
    """Point estimate plus spread of the mixture."""

    mean: float
    variance: float

    @property
    def uncertainty(self) -> float:
        """4x the variance, clamped at 1 against rounding: a
        [0,1]-supported random variable has variance at most 1/4, so the
        scaling maps it onto [0,1]."""
        return min(4.0 * self.variance, 1.0)


def _label_logs(t: float) -> tuple[float, float]:
    """(ln t, ln(1 - t)) for a label strictly inside (0, 1)."""
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie strictly inside (0,1), got {t!r}")
    return math.log(t), math.log1p(-t)


def _log_pdf(alpha: float, beta: float, ln_b: float, log_t: float,
             log_1mt: float) -> float:
    """ln Beta(t; alpha, beta) from ln B(alpha, beta), ln t and ln(1 - t),
    for (alpha, beta) already known to be positive and finite. ln B is an
    argument so that a caller evaluating one component at many points
    computes it once."""
    return (alpha - 1.0) * log_t + (beta - 1.0) * log_1mt - ln_b


def _nll_grad(alpha: float, beta: float, log_t: float,
              log_1mt: float) -> tuple[float, float]:
    """The (alpha, beta) gradient of -_log_pdf, unvalidated like it."""
    psi_sum = _digamma(alpha + beta)
    return _digamma(alpha) - psi_sum - log_t, _digamma(beta) - psi_sum - log_1mt


def beta_log_pdf(t: float, p: BetaParams) -> float:
    """Log density of Beta(alpha, beta) at t, for t strictly inside (0,1).

    Hard labels must be passed through clip_label first; the density is
    unbounded (or zero) at the interval ends.
    """
    alpha, beta = float(p.alpha), float(p.beta)
    return _log_pdf(alpha, beta, _ln_beta(alpha, beta), *_label_logs(t))


def beta_nll_grad(t: float, p: BetaParams) -> tuple[float, float]:
    """Gradient of -beta_log_pdf(t, .) with respect to (alpha, beta)."""
    return _nll_grad(float(p.alpha), float(p.beta), *_label_logs(t))


def beta_nll_batch(rows, targets, label_eps: float) -> tuple[float, list]:
    """Mean beta negative log-likelihood of a batch, and its gradient.

    rows holds one (alpha, beta) head output per crop and targets one
    [0,1] label per crop, both as Python floats; each label is clipped
    into [label_eps, 1-label_eps] first. Returns the mean NLL and, per
    crop, the (alpha, beta) gradient of that mean. The head outputs are
    checked once for the whole batch; a bad value raises the ValueError
    BetaParams gives for the first one.
    """
    for alpha, beta in rows:
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            BetaParams(alpha, beta)
    batch = len(rows)
    nll_sum = 0.0
    grad = []
    for (alpha, beta), t in zip(rows, targets):
        log_t, log_1mt = _label_logs(clip_label(t, label_eps))
        nll_sum -= _log_pdf(alpha, beta, _ln_beta(alpha, beta), log_t, log_1mt)
        d_alpha, d_beta = _nll_grad(alpha, beta, log_t, log_1mt)
        grad.append((d_alpha / batch, d_beta / batch))
    return nll_sum / batch, grad


def beta_moments(p: BetaParams) -> tuple[float, float, float]:
    """(mean, second moment, variance) of one beta component, closed form."""
    a, b = p.alpha, p.beta
    one = 1.0
    if a + b == math.inf:
        # Above 1.8e308 the sum itself overflows; halving a, b and the 1
        # leaves every ratio below unchanged.
        a, b, one = a / 2, b / 2, 0.5
    s = a + b
    mean = a / s
    second_den = s * (s + one)
    # Above s of about 1.3e154 the denominator overflows; the factored
    # form is the same ratio and stays finite there.
    if second_den < math.inf:
        second = a * (a + one) / second_den
    else:
        second = mean * ((a + one) / (s + one))
    return mean, second, second - mean * mean


def mixture_summary(m: BetaMixture) -> PredictiveSummary:
    """Aggregate an equal-weight mixture into its mean and variance.

    Moments of the mixture are the plain averages of the component moments.
    The variance is clamped only against negative-zero rounding; an
    uncertainty materially outside [0,1] means the moment math is broken
    and raises.
    """
    n = len(m.components)
    mean_sum = 0.0
    second_sum = 0.0
    for comp in m.components:
        c_mean, c_second, _ = beta_moments(comp)
        mean_sum += c_mean
        second_sum += c_second
    mean = mean_sum / n
    variance = second_sum / n - mean * mean
    if variance < 0.0:
        if variance < -1e-12:
            raise InternalError(
                f"mixture variance {variance!r} is negative beyond rounding"
            )
        variance = 0.0
    if 4.0 * variance > 1.0 + 1e-12:
        raise InternalError(
            f"uncertainty {4.0 * variance!r} exceeds 1 beyond rounding")
    return PredictiveSummary(mean=mean, variance=variance)


def mixture_density_grid(
    m: BetaMixture, n_points: int, eps: float
) -> list[tuple[float, float]]:
    """Mixture pdf sampled on a uniform grid spanning [eps, 1-eps]."""
    n_points = int(n_points)
    eps = float(eps)
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")
    comps = []
    for c in m.components:
        alpha, beta = float(c.alpha), float(c.beta)
        comps.append((alpha, beta, _ln_beta(alpha, beta)))
    n = len(comps)
    step = (1.0 - 2.0 * eps) / (n_points - 1)
    out = []
    for i in range(n_points):
        # Hit the right endpoint exactly rather than accumulating steps.
        t = 1.0 - eps if i == n_points - 1 else eps + i * step
        log_t, log_1mt = _label_logs(t)
        pdf = sum(math.exp(_log_pdf(a, b, ln_b, log_t, log_1mt))
                  for a, b, ln_b in comps) / n
        out.append((t, pdf))
    return out


def clip_label(t: float, eps: float) -> float:
    """Pull a [0,1] label into [eps, 1-eps] so the log-likelihood stays finite."""
    t = float(t)
    eps = float(eps)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"label must lie in [0,1], got {t!r}")
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")
    return max(eps, min(1.0 - eps, t))


def hard_label(p: float) -> int:
    """The class of a probability or soft target: 1 iff p >= 0.5, so a tie
    goes to class 1. Every class decision in the package cuts here."""
    return 1 if p >= 0.5 else 0
