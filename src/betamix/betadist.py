"""Beta-distribution and beta-mixture math.

Everything the training loss, the crop aggregation, and the uncertainty
measure need: log-density, analytic loss gradients, closed-form moments,
equal-weight mixture summarization, and the two special functions (ln B
and digamma) implemented locally so their accuracy is test-enforced
rather than inherited from whatever libm the platform ships.

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
    a = _require_positive_finite(alpha, "alpha")
    b = _require_positive_finite(beta, "beta")

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
    x = _require_positive_finite(x, "x")
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
    """Point estimate plus spread of the mixture.

    uncertainty is exactly 4x the variance: a [0,1]-supported random
    variable has variance at most 1/4, so the scaling maps it onto [0,1].
    """

    mean: float
    variance: float
    uncertainty: float


def beta_log_pdf(t: float, p: BetaParams) -> float:
    """Log density of Beta(alpha, beta) at t, for t strictly inside (0,1).

    Hard labels must be passed through clip_label first; the density is
    unbounded (or zero) at the interval ends.
    """
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie strictly inside (0,1), got {t!r}")
    return (
        (p.alpha - 1.0) * math.log(t)
        + (p.beta - 1.0) * math.log1p(-t)
        - ln_beta_fn(p.alpha, p.beta)
    )


def beta_nll_grad(t: float, p: BetaParams) -> tuple[float, float]:
    """Gradient of -beta_log_pdf(t, .) with respect to (alpha, beta)."""
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie strictly inside (0,1), got {t!r}")
    psi_sum = digamma(p.alpha + p.beta)
    d_alpha = digamma(p.alpha) - psi_sum - math.log(t)
    d_beta = digamma(p.beta) - psi_sum - math.log1p(-t)
    return d_alpha, d_beta


def beta_moments(p: BetaParams) -> tuple[float, float, float]:
    """(mean, second moment, variance) of one beta component, closed form."""
    a, b = p.alpha, p.beta
    s = a + b
    mean = a / s
    second = a * (a + 1.0) / (s * (s + 1.0))
    return mean, second, second - mean * mean


def mixture_summary(m: BetaMixture) -> PredictiveSummary:
    """Aggregate an equal-weight mixture into mean/variance/uncertainty.

    Moments of the mixture are the plain averages of the component moments.
    The uncertainty is clamped only against negative-zero rounding; a value
    materially outside [0,1] means the moment math is broken and raises.
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
    uncertainty = 4.0 * variance
    if uncertainty > 1.0:
        if uncertainty > 1.0 + 1e-12:
            raise InternalError(
                f"uncertainty {uncertainty!r} exceeds 1 beyond rounding"
            )
        uncertainty = 1.0
    return PredictiveSummary(mean=mean, variance=variance, uncertainty=uncertainty)


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
    n = len(m.components)
    step = (1.0 - 2.0 * eps) / (n_points - 1)
    out = []
    for i in range(n_points):
        # Hit the right endpoint exactly rather than accumulating steps.
        t = 1.0 - eps if i == n_points - 1 else eps + i * step
        pdf = sum(math.exp(beta_log_pdf(t, c)) for c in m.components) / n
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
