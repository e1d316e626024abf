"""Oracle-backed tests for the beta and beta-mixture math.

High-precision expected values were computed with mpmath (50 digits)
before the implementation existed and are frozen below; random sweeps
re-check against live mpmath, quadrature, and finite-difference oracles.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from betamix.betadist import (
    BetaMixture,
    BetaParams,
    PredictiveSummary,
    beta_log_pdf,
    beta_moments,
    beta_nll_batch,
    beta_nll_grad,
    clip_label,
    digamma,
    hard_label,
    ln_beta_fn,
    mixture_density_grid,
    mixture_summary,
)
from conftest import (beta_nll_reference, beta_pdf_reference,
                      mixture_moments_by_quadrature)

mp.mp.dps = 40

EULER_MASCHERONI = 0.5772156649015328606


class TestLnBeta:
    def test_uniform_normalizer_is_zero(self):
        assert ln_beta_fn(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_analytic_half(self):
        assert ln_beta_fn(2.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-13)

    def test_frozen_high_precision_value(self):
        # mpmath, 50 digits: log(beta(3.7, 0.2))
        assert ln_beta_fn(3.7, 0.2) == pytest.approx(1.2845558018544327, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(200):
            a = float(10 ** rng.uniform(-3, 4))
            b = float(10 ** rng.uniform(-3, 4))
            assert ln_beta_fn(a, b) == pytest.approx(ln_beta_fn(b, a), rel=1e-14,
                                                     abs=1e-13)

    def test_accuracy_moderate_range(self, rng):
        """Absolute error <= 1e-10 against mpmath wherever |ln B| stays
        far from the float64 representation ceiling."""
        worst = 0.0
        for _ in range(400):
            a = float(10 ** rng.uniform(-3, 3))
            b = float(10 ** rng.uniform(-3, 3))
            true = float(mp.log(mp.beta(a, b)))
            worst = max(worst, abs(ln_beta_fn(a, b) - true))
        assert worst <= 1e-10

    def test_accuracy_full_range(self, rng):
        """Over the full [1e-3, 1e6] box the error stays within 1e-10 or
        two ulps of the true value, whichever is larger; |ln B| can reach
        ~1.4e6, where one float64 ulp is already ~2.3e-10."""
        for _ in range(400):
            a = float(10 ** rng.uniform(-3, 6))
            b = float(10 ** rng.uniform(-3, 6))
            true = float(mp.log(mp.beta(a, b)))
            tol = max(1e-10, 2.0 * math.ulp(abs(true)))
            assert abs(ln_beta_fn(a, b) - true) <= tol, (a, b)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0),
                                     (float("nan"), 1.0), (float("inf"), 1.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(ValueError):
            ln_beta_fn(a, b)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)

    def test_psi_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-12)

    def test_frozen_high_precision_value(self):
        # mpmath, 50 digits: digamma(7.31)
        assert digamma(7.31) == pytest.approx(1.9192872188262907, abs=1e-12)

    def test_accuracy_sweep(self, rng):
        worst = 0.0
        for _ in range(500):
            x = float(10 ** rng.uniform(-3, 6))
            worst = max(worst, abs(digamma(x) - float(mp.digamma(x))))
        assert worst <= 1e-9

    def test_recurrence_identity(self, rng):
        """psi(x+1) - psi(x) = 1/x to 1e-9 across [0.01, 1000]."""
        for _ in range(500):
            x = float(10 ** rng.uniform(-2, 3))
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            digamma(x)


class TestBetaLogPdf:
    def test_uniform_density(self):
        assert beta_log_pdf(0.3, BetaParams(1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_linear_density_unit_point(self):
        # Beta(2,1) has pdf 2t, equal to 1 at t = 0.5.
        assert beta_log_pdf(0.5, BetaParams(2.0, 1.0)) == pytest.approx(0.0, abs=1e-13)

    def test_frozen_high_precision_value(self):
        # mpmath, 50 digits: log pdf of Beta(5, 2) at 0.9
        assert beta_log_pdf(0.9, BetaParams(5.0, 2.0)) == pytest.approx(
            0.6771702260368045, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.1])
    def test_domain_errors(self, t):
        with pytest.raises(ValueError):
            beta_log_pdf(t, BetaParams(2.0, 2.0))


class TestBetaNllGrad:
    def test_exact_zero_alpha_gradient(self):
        """At t = 1/e with a uniform component, psi(1) - psi(2) = -1
        cancels ln t = -1 exactly."""
        d_alpha, _ = beta_nll_grad(math.exp(-1.0), BetaParams(1.0, 1.0))
        assert d_alpha == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_at_half(self):
        d_alpha, d_beta = beta_nll_grad(0.5, BetaParams(3.3, 3.3))
        assert d_alpha == pytest.approx(d_beta, abs=1e-13)

    def test_frozen_finite_difference_pair(self):
        """Central differences (h=1e-5) of the log pdf at (0.7, 3.2, 1.4),
        computed in 50-digit arithmetic and frozen."""
        d_alpha, d_beta = beta_nll_grad(0.7, BetaParams(3.2, 1.4))
        assert d_alpha == pytest.approx(-0.05792677994254281, rel=1e-4)
        assert d_beta == pytest.approx(-0.27085235544132707, rel=1e-4)

    def test_matches_finite_differences_sweep(self, rng):
        """1000 random (alpha, beta, t): analytic gradient within relative
        1e-4 of live central differences of beta_log_pdf."""
        h = 1e-5
        for _ in range(1000):
            a = float(rng.uniform(0.1, 100.0))
            b = float(rng.uniform(0.1, 100.0))
            t = float(rng.uniform(0.01, 0.99))
            d_alpha, d_beta = beta_nll_grad(t, BetaParams(a, b))
            fd_a = -(beta_log_pdf(t, BetaParams(a + h, b))
                     - beta_log_pdf(t, BetaParams(a - h, b))) / (2 * h)
            fd_b = -(beta_log_pdf(t, BetaParams(a, b + h))
                     - beta_log_pdf(t, BetaParams(a, b - h))) / (2 * h)
            assert abs(d_alpha - fd_a) <= 1e-4 * max(abs(fd_a), 1e-3)
            assert abs(d_beta - fd_b) <= 1e-4 * max(abs(fd_b), 1e-3)


def _bits(*values):
    return [float(v).hex() for v in values]


class TestOracleBits:
    """Every caller of the shared log-density and gradient returns the
    bits of conftest's scalar beta oracle."""

    @staticmethod
    def _sweep(rng, n=300):
        alphas = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
        betas = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
        ts = np.concatenate([rng.uniform(1e-6, 1.0 - 1e-6, n - 4),
                             [1e-6, 0.5, 0.995, 1.0 - 1e-6]])
        return list(zip(alphas.tolist(), betas.tolist(), ts.tolist()))

    def test_public_log_pdf_and_gradient(self, rng):
        for a, b, t in self._sweep(rng):
            log_pdf, d_alpha, d_beta = beta_nll_reference(a, b, t)
            p = BetaParams(a, b)
            assert _bits(beta_log_pdf(t, p)) == _bits(log_pdf), (a, b, t)
            assert _bits(*beta_nll_grad(t, p)) == _bits(d_alpha, d_beta), (a, b, t)

    def test_batch_loss_and_gradient(self, rng):
        """Labels at 0 and 1 are clipped before the oracle sees them."""
        sweep = self._sweep(rng, 64)
        targets = [0.0, 1.0] + [t for _, _, t in sweep[2:]]
        loss, grad = beta_nll_batch([(a, b) for a, b, _ in sweep], targets, 0.02)
        expected_loss = 0.0
        for (a, b, _), t, (g_alpha, g_beta) in zip(sweep, targets, grad):
            log_pdf, d_alpha, d_beta = beta_nll_reference(a, b, clip_label(t, 0.02))
            expected_loss += -log_pdf
            assert _bits(g_alpha, g_beta) == _bits(d_alpha / 64, d_beta / 64)
        assert _bits(loss) == _bits(expected_loss / 64)

    def test_density_grid(self):
        comps = ((0.7, 3.0), (2.5, 2.5), (40.0, 1.3))
        mixture = BetaMixture(tuple(BetaParams(a, b) for a, b in comps))
        for t, pdf in mixture_density_grid(mixture, 201, 1e-4):
            expected = sum(math.exp(beta_nll_reference(a, b, t)[0])
                           for a, b in comps) / 3
            assert _bits(pdf) == _bits(expected), t


class TestBetaMoments:
    def test_uniform(self):
        mean, second, variance = beta_moments(BetaParams(1.0, 1.0))
        assert mean == pytest.approx(0.5)
        assert variance == pytest.approx(1.0 / 12.0)

    def test_mean_formula(self):
        mean, _, _ = beta_moments(BetaParams(2.0, 6.0))
        assert mean == pytest.approx(0.25)

    def test_frozen_quadrature_values(self):
        # mpmath quadrature of t*pdf and t^2*pdf for Beta(4.2, 1.7)
        mean, second, variance = beta_moments(BetaParams(4.2, 1.7))
        assert mean == pytest.approx(0.7118644067796610, abs=1e-8)
        assert second == pytest.approx(0.5364775239498895, abs=1e-8)
        assert variance == pytest.approx(0.0297265903101308, abs=1e-8)

    def test_matches_gauss_legendre_sweep(self, rng):
        """Closed-form variance within 1e-7 of 400-node quadrature."""
        for _ in range(100):
            a = float(10 ** rng.uniform(0, 2))
            b = float(10 ** rng.uniform(0, 2))
            _, _, variance = beta_moments(BetaParams(a, b))
            _, var_q = mixture_moments_by_quadrature([(a, b)])
            assert variance == pytest.approx(var_q, abs=1e-7)

    def test_small_shape_parameters_against_mpmath(self):
        """Quadrature struggles below alpha, beta = 1; tanh-sinh handles
        the endpoint singularities."""
        for a, b in [(0.3, 0.7), (0.15, 2.5), (0.5, 0.5)]:
            mean, _, variance = beta_moments(BetaParams(a, b))
            pdf = lambda x: x ** (a - 1) * (1 - x) ** (b - 1) / mp.beta(a, b)
            mean_q = float(mp.quad(lambda x: x * pdf(x), [0, 1]))
            second_q = float(mp.quad(lambda x: x * x * pdf(x), [0, 1]))
            assert mean == pytest.approx(mean_q, abs=1e-10)
            assert variance == pytest.approx(second_q - mean_q ** 2, abs=1e-10)

    def test_float32_range_keeps_the_closed_form_bits(self, rng):
        """Wherever s * (s + 1) is finite, as it is for any pair of
        float32 parameters, the moments are the closed form's, bit for
        bit."""
        top = math.log10(float(np.finfo(np.float32).max))
        for _ in range(2000):
            a, b = (float(np.float32(10 ** rng.uniform(-40, top)))
                    for _ in range(2))
            s = a + b
            mean = a / s
            second = a * (a + 1.0) / (s * (s + 1.0))
            assert beta_moments(BetaParams(a, b)) == \
                (mean, second, second - mean * mean)


class TestMixtureSummary:
    def test_single_component_equals_component(self):
        summary = mixture_summary(BetaMixture((BetaParams(1.0, 1.0),)))
        assert summary.mean == pytest.approx(0.5)
        assert summary.uncertainty == pytest.approx(1.0 / 3.0)

    def test_symmetric_pair_mean(self):
        summary = mixture_summary(
            BetaMixture((BetaParams(2.0, 6.0), BetaParams(6.0, 2.0))))
        assert summary.mean == pytest.approx(0.5)

    def test_frozen_bimodal_uncertainty(self):
        """{(50,1),(1,50)}: numerical integration of the mixture pdf gives
        uncertainty 0.9245852187028658 (mpmath, 50 digits; the exact
        moment formulas agree to all digits)."""
        summary = mixture_summary(
            BetaMixture((BetaParams(50.0, 1.0), BetaParams(1.0, 50.0))))
        assert summary.uncertainty == pytest.approx(0.9245852187028658, abs=1e-12)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            BetaMixture(())

    def test_uncertainty_is_four_variances(self, rng):
        for _ in range(200):
            comps = tuple(
                BetaParams(float(10 ** rng.uniform(-1.5, 2.5)),
                           float(10 ** rng.uniform(-1.5, 2.5)))
                for _ in range(int(rng.integers(1, 12))))
            s = mixture_summary(BetaMixture(comps))
            assert s.uncertainty == pytest.approx(4.0 * s.variance, rel=1e-12)

    def test_uncertainty_is_derived_from_variance(self):
        """uncertainty is 4 * variance bit for bit, clamped to 1 where
        rounding puts the variance just above 1/4."""
        assert PredictiveSummary(0.3, 0.1).uncertainty == 4.0 * 0.1
        assert PredictiveSummary(0.5, 0.25 + 1e-14).uncertainty == 1.0

    def test_bounds_sweep(self, rng):
        """uncertainty in [0,1] and variance <= mean(1-mean), everywhere."""
        for _ in range(2000):
            comps = tuple(
                BetaParams(float(10 ** rng.uniform(-2, 3)),
                           float(10 ** rng.uniform(-2, 3)))
                for _ in range(int(rng.integers(1, 16))))
            s = mixture_summary(BetaMixture(comps))
            assert 0.0 <= s.uncertainty <= 1.0
            assert 0.0 <= s.mean <= 1.0
            assert s.variance <= s.mean * (1.0 - s.mean) + 1e-15

    @pytest.mark.parametrize("a, b", [(1e154, 1e154), (1e155, 1e155),
                                      (1e200, 1e200), (1e160, 1e100),
                                      (1e300, 1.0)])
    def test_huge_concentration_is_finite(self, a, b):
        """A component whose s * (s + 1) overflows still has a finite
        variance: (1e154, 1e154) raised a variance of -0.25, and the
        others gave NaN."""
        s = mixture_summary(BetaMixture((BetaParams(a, b),)))
        assert 0.0 <= s.variance <= 0.25
        assert 0.0 <= s.uncertainty <= 1.0
        assert s.mean == pytest.approx(a / (a + b), rel=1e-15)

    def test_matches_mixture_quadrature(self, rng):
        """Mixture mean/variance against direct integration, 1e-6."""
        for _ in range(60):
            comps = [(float(10 ** rng.uniform(0, 1.7)),
                      float(10 ** rng.uniform(0, 1.7)))
                     for _ in range(int(rng.integers(1, 11)))]
            s = mixture_summary(BetaMixture(tuple(BetaParams(a, b)
                                                  for a, b in comps)))
            mean_q, var_q = mixture_moments_by_quadrature(comps)
            assert s.mean == pytest.approx(mean_q, abs=1e-6)
            assert s.variance == pytest.approx(var_q, abs=1e-6)

    def test_component_order_is_irrelevant(self, rng):
        comps = [BetaParams(float(10 ** rng.uniform(-1, 2)),
                            float(10 ** rng.uniform(-1, 2))) for _ in range(7)]
        base = mixture_summary(BetaMixture(tuple(comps)))
        perm = mixture_summary(BetaMixture(tuple(reversed(comps))))
        assert base.mean == pytest.approx(perm.mean, rel=1e-12)
        assert base.variance == pytest.approx(perm.variance, rel=1e-12, abs=1e-15)


class TestMixtureDensityGrid:
    def test_uniform_component_is_flat(self):
        grid = mixture_density_grid(BetaMixture((BetaParams(1.0, 1.0),)), 3, 0.25)
        assert [t for t, _ in grid] == pytest.approx([0.25, 0.5, 0.75])
        assert [p for _, p in grid] == pytest.approx([1.0, 1.0, 1.0])

    def test_grid_endpoints_exact(self):
        grid = mixture_density_grid(BetaMixture((BetaParams(2.0, 3.0),)), 11, 0.01)
        assert grid[0][0] == 0.01
        assert grid[-1][0] == 1.0 - 0.01

    def test_bimodal_matches_pointwise_oracle(self):
        comps = [(8.0, 2.0), (2.0, 8.0)]
        mixture = BetaMixture(tuple(BetaParams(a, b) for a, b in comps))
        grid = mixture_density_grid(mixture, 101, 1e-3)
        ts = np.array([t for t, _ in grid])
        expected = 0.5 * (beta_pdf_reference(ts, 8.0, 2.0)
                          + beta_pdf_reference(ts, 2.0, 8.0))
        np.testing.assert_allclose([p for _, p in grid], expected, rtol=1e-10)
        # bimodal: interior minimum at the center, maxima on both sides
        pdf = np.array([p for _, p in grid])
        center = pdf[50]
        assert pdf.max() > 2.0 * center

    def test_normalization(self, rng):
        """Trapezoid integral of a dense grid is within 1e-3 of 1 for
        components with alpha, beta >= 1."""
        for _ in range(5):
            comps = tuple(BetaParams(float(rng.uniform(1, 20)),
                                     float(rng.uniform(1, 20)))
                          for _ in range(int(rng.integers(1, 6))))
            grid = mixture_density_grid(BetaMixture(comps), 100_000, 1e-6)
            ts = np.array([t for t, _ in grid])
            pdf = np.array([p for _, p in grid])
            assert np.trapezoid(pdf, ts) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("n,eps", [(1, 0.1), (0, 0.1), (5, 0.0), (5, 0.5),
                                       (5, -0.1)])
    def test_grid_parameter_errors(self, n, eps):
        with pytest.raises(ValueError):
            mixture_density_grid(BetaMixture((BetaParams(1.0, 1.0),)), n, eps)


class TestClipLabel:
    @pytest.mark.parametrize("t,eps,expected", [
        (0.0, 0.01, 0.01),
        (0.5, 0.01, 0.5),
        (1.0, 0.001, 0.999),
    ])
    def test_examples(self, t, eps, expected):
        assert clip_label(t, eps) == pytest.approx(expected)

    def test_idempotent_and_order_preserving(self, rng):
        eps = 0.05
        values = np.sort(rng.uniform(0, 1, size=200))
        clipped = [clip_label(float(v), eps) for v in values]
        assert clipped == [clip_label(c, eps) for c in clipped]
        assert all(x <= y for x, y in zip(clipped, clipped[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            clip_label(1.5, 0.01)
        with pytest.raises(ValueError):
            clip_label(0.5, 0.6)


class TestHardLabel:
    @pytest.mark.parametrize("p,expected", [
        (0.0, 0),
        (math.nextafter(0.5, 0.0), 0),
        (0.5, 1),
        (1.0, 1),
    ])
    def test_boundary(self, p, expected):
        """A tie at 0.5 goes to class 1; the next float below it does not."""
        assert hard_label(p) == expected


class TestBetaParamsInvariants:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -2.0),
                                     (float("nan"), 1.0), (1.0, float("inf"))])
    def test_constructor_rejects_invalid(self, a, b):
        with pytest.raises(ValueError):
            BetaParams(a, b)
