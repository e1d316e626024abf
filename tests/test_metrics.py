"""Classification metrics against exact-rational arithmetic."""

import math
from fractions import Fraction

import pytest

from betamix.betadist import BetaMixture, BetaParams, PredictiveSummary
from betamix.errors import UsageError
from betamix.metrics import (
    ConfusionCounts,
    aurc,
    auroc_uncertainty,
    confusion,
    coverage_curve,
    report,
    report_csv_rows,
)
from betamix.predict import Prediction
from conftest import auroc_pairwise_reference


def make_prediction(predicted, true, uncertainty=0.1, accepted=None):
    summary = PredictiveSummary(mean=float(predicted), variance=uncertainty / 4.0,
                                uncertainty=uncertainty)
    return Prediction(record_id=f"r{id(summary) % 9999}", summary=summary,
                      components=BetaMixture((BetaParams(1.0, 1.0),)),
                      predicted_class=predicted, true_target=true,
                      accepted=accepted)


def rational_report(tp, fp, fn, tn):
    """Independent recomputation with exact rationals; 0/0 ratios are 0."""
    def ratio(num, den):
        return Fraction(num, den) if den else Fraction(0)

    def prf(tp_, fp_, fn_):
        p = ratio(tp_, tp_ + fp_)
        r = ratio(tp_, tp_ + fn_)
        f = ratio(2 * p * r, p + r) if p + r else Fraction(0)
        return p, r, f

    pa, ra, fa = prf(tp, fp, fn)
    pn, rn, fno = prf(tn, fn, fp)
    return (pa, ra, fa, pn, rn, fno,
            Fraction(pa + pn, 2), Fraction(ra + rn, 2), Fraction(fa + fno, 2))


class TestConfusion:
    def test_perfect_predictor(self):
        preds = [make_prediction(1, 1.0), make_prediction(0, 0.0)]
        counts = confusion(preds)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 0, 1)

    def test_single_false_positive(self):
        counts = confusion([make_prediction(1, 0.0)])
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 1, 0, 0)

    def test_hand_enumerated_fixture(self):
        preds = [
            make_prediction(1, 1.0), make_prediction(1, 1.0),   # tp, tp
            make_prediction(1, 0.0),                            # fp
            make_prediction(0, 1.0), make_prediction(0, 1.0),   # fn, fn
            make_prediction(0, 0.0), make_prediction(0, 0.0),   # tn, tn
            make_prediction(0, 0.0),                            # tn
        ]
        counts = confusion(preds)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 2, 3)
        assert counts.total == 8

    def test_soft_targets_binarized(self):
        preds = [make_prediction(1, 0.7), make_prediction(1, 0.3)]
        counts = confusion(preds)
        assert (counts.tp, counts.fp) == (1, 1)

    def test_only_accepted_filter(self):
        preds = [make_prediction(1, 1.0, accepted=True),
                 make_prediction(1, 0.0, accepted=False)]
        assert confusion(preds, only_accepted=True).total == 1
        assert confusion(preds).total == 2

    def test_missing_target_rejected(self):
        pred = make_prediction(1, 1.0)
        broken = Prediction(record_id="x", summary=pred.summary,
                            components=pred.components, predicted_class=1,
                            true_target=None)
        with pytest.raises(UsageError):
            confusion([broken])


class TestReport:
    def test_table_shaped_arithmetic(self):
        rep = report(ConfusionCounts(tp=17, fp=3, fn=4, tn=76))
        assert rep.class_a.precision == pytest.approx(0.85)
        assert rep.class_a.recall == pytest.approx(17 / 21)
        assert rep.class_a.f1 == pytest.approx(2 * 0.85 * (17 / 21)
                                               / (0.85 + 17 / 21))
        assert rep.n_evaluated == 100
        assert rep.n_misclassified == 7

    def test_degenerate_class_flagged(self):
        """A class never predicted nor present scores 0, not 0/0."""
        rep = report(ConfusionCounts(tp=0, fp=0, fn=0, tn=10))
        assert rep.class_a.precision == 0.0
        assert rep.class_a.recall == 0.0
        assert rep.class_a.f1 == 0.0
        assert rep.class_no.precision == 1.0
        assert rep.class_no.recall == 1.0
        assert rep.class_no.f1 == 1.0

    def test_f1_is_harmonic_mean(self):
        rep = report(ConfusionCounts(tp=5, fp=2, fn=3, tn=10))
        p, r = rep.class_a.precision, rep.class_a.recall
        assert rep.class_a.f1 == pytest.approx(2 * p * r / (p + r))

    def test_against_rational_oracle(self, rng):
        for _ in range(300):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 20, size=4))
            rep = report(ConfusionCounts(tp, fp, fn, tn))
            pa, ra, fa, pn, rn, fno, mp_, mr, mf = rational_report(tp, fp, fn, tn)
            assert abs(rep.class_a.precision - float(pa)) < 1e-12
            assert abs(rep.class_a.recall - float(ra)) < 1e-12
            assert abs(rep.class_a.f1 - float(fa)) < 1e-12
            assert abs(rep.class_no.precision - float(pn)) < 1e-12
            assert abs(rep.class_no.f1 - float(fno)) < 1e-12
            assert abs(rep.macro_precision - float(mp_)) < 1e-12
            assert abs(rep.macro_recall - float(mr)) < 1e-12
            assert abs(rep.macro_f1 - float(mf)) < 1e-12

    def test_order_invariance(self, rng):
        preds = [make_prediction(int(p), float(t))
                 for p, t in rng.integers(0, 2, size=(30, 2))]
        rep_a = report(confusion(preds))
        rep_b = report(confusion(list(reversed(preds))))
        assert rep_a == rep_b


class TestCoverageCurve:
    def build_fixture(self):
        """Errors carry maximal uncertainty; correct answers are certain."""
        preds = [make_prediction(i % 2, float(i % 2), uncertainty=0.01 * i)
                 for i in range(8)]
        preds += [make_prediction(1, 0.0, uncertainty=0.9),
                  make_prediction(0, 1.0, uncertainty=0.95)]
        return preds

    def test_full_fraction_equals_plain_report(self):
        preds = self.build_fixture()
        curve = coverage_curve(preds, [1.0])
        assert curve[0][1] == report(confusion(preds))

    def test_output_length(self):
        preds = self.build_fixture()
        assert len(coverage_curve(preds, [1.0, 0.9, 0.5])) == 3

    def test_small_fraction_reaches_perfect_f1(self):
        curve = coverage_curve(self.build_fixture(), [0.8])
        _, rep = curve[0]
        assert rep.n_misclassified == 0
        assert rep.macro_f1 == pytest.approx(1.0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(UsageError):
            coverage_curve(self.build_fixture(), [0.0])


def aurc_by_coverage_curve(preds):
    """AURC from coverage_curve at every k/N: the mean of the kept
    subsets' error rates. A keep fraction of k/N keeps exactly k
    predictions, and the oracle checks that each subset has k."""
    n = len(preds)
    curve = coverage_curve(preds, [k / n for k in range(1, n + 1)])
    assert [rep.n_evaluated for _, rep in curve] == list(range(1, n + 1))
    return sum(rep.n_misclassified / rep.n_evaluated for _, rep in curve) / n


class TestAurc:
    def test_hand_computed(self):
        """Eight certain right answers, then two wrong ones: the risk is 0
        up to k = 8, then 1/9 and 2/10."""
        preds = TestCoverageCurve().build_fixture()
        assert aurc(preds) == pytest.approx((1 / 9 + 2 / 10) / 10, rel=1e-15)

    def test_ties_keep_input_order(self):
        wrong, right = make_prediction(1, 0.0, 0.5), make_prediction(1, 1.0, 0.5)
        assert aurc([wrong, right]) == pytest.approx((1 / 1 + 1 / 2) / 2)
        assert aurc([right, wrong]) == pytest.approx((0 / 1 + 1 / 2) / 2)

    @pytest.mark.parametrize("n", [9, 25, 40, 100])
    def test_matches_coverage_curve_oracle(self, rng, n):
        # Uncertainties from a four-value set, so many predictions tie.
        preds = [make_prediction(int(rng.integers(2)), float(rng.integers(2)),
                                 uncertainty=float(rng.integers(4)) / 4)
                 for _ in range(n)]
        assert aurc(preds) == pytest.approx(aurc_by_coverage_curve(preds),
                                            rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aurc([])

    def test_missing_target_rejected(self):
        with pytest.raises(UsageError):
            aurc([make_prediction(1, None)])


class TestAurocUncertainty:
    def test_hand_computed(self):
        """Eight right answers at 0 to 0.07 and two wrong ones at 0.9 and
        0.95 separate perfectly. Moved to 0.07, the second wrong answer
        beats seven right ones and ties with the eighth."""
        preds = TestCoverageCurve().build_fixture()
        assert auroc_uncertainty(preds) == 1.0
        preds[-1] = make_prediction(0, 1.0, uncertainty=0.01 * 7)
        assert auroc_uncertainty(preds) == (8 + 7.5) / 16

    def test_tie_counts_half(self):
        wrong, right = make_prediction(1, 0.0, 0.5), make_prediction(1, 1.0, 0.5)
        assert auroc_uncertainty([wrong, right]) == 0.5
        assert auroc_uncertainty([make_prediction(1, 0.0, 0.2), right]) == 0.0

    def test_nan_when_all_right_or_all_wrong(self):
        right = [make_prediction(1, 1.0, u) for u in (0.1, 0.2)]
        wrong = [make_prediction(0, 1.0, u) for u in (0.1, 0.2)]
        assert math.isnan(auroc_uncertainty(right))
        assert math.isnan(auroc_uncertainty(wrong))
        assert math.isnan(auroc_uncertainty([]))

    @pytest.mark.parametrize("n", [2, 9, 40, 100])
    def test_matches_pairwise_oracle(self, rng, n):
        # Uncertainties from a four-value set, so many pairs tie.
        preds = [make_prediction(int(rng.integers(2)), float(rng.integers(2)),
                                 uncertainty=float(rng.integers(4)) / 4)
                 for _ in range(n)]
        expected = auroc_pairwise_reference(
            [p.summary.uncertainty for p in preds],
            [p.predicted_class != p.true_target for p in preds])
        got = auroc_uncertainty(preds)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_missing_target_rejected(self):
        with pytest.raises(UsageError):
            auroc_uncertainty([make_prediction(1, None)])


class TestCsvExport:
    def test_layout(self):
        rep = report(ConfusionCounts(tp=17, fp=3, fn=4, tn=76))
        rows = report_csv_rows(rep)
        assert [r[0] for r in rows] == ["A", "NO", "Overall"]
        assert all(len(r) == 4 for r in rows)
        assert float(rows[0][1]) == pytest.approx(0.85)
