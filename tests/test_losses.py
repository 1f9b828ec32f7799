import numpy as np
import pytest

import modkernel.autodiff as ad
from modkernel.errors import ConfigurationError, ContractError
from modkernel.losses import LOSS_KINDS, make_loss, risk, risk_tensor

from oracles import loss_terms_reference

# A grid with the hinge corners, signed zeros, the tanh-mse saturation
# point and the extremes of the float range.
SCORE_GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 1331),
    [0.0, -0.0, 1.0, -1.0, 30.0, -30.0, 1e300, -1e300,
     np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)],
])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMakeLoss:
    def test_xe2_at_zero(self):
        loss = make_loss("xe2")
        assert loss.ell_plus(0.0) == pytest.approx(np.log(2.0))
        assert loss.ell_minus(0.0) == pytest.approx(np.log(2.0))

    def test_hinge_at_one(self):
        loss = make_loss("hinge")
        assert loss.ell_plus(1.0) == 0.0
        assert loss.ell_minus(1.0) == 2.0

    def test_tanh_mse_limits(self):
        loss = make_loss("tanh-mse")
        assert loss.ell_plus(30.0) == pytest.approx(0.0, abs=1e-12)
        assert loss.ell_minus(30.0) == pytest.approx(4.0, abs=1e-12)

    def test_underscore_alias(self):
        assert make_loss("tanh_mse").kind == "tanh-mse"

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_loss("focal")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            make_loss("hinge", lam=-0.1)

    def test_kinds_are_the_builtin_losses(self):
        assert LOSS_KINDS == ("xe2", "tanh-mse", "hinge")

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_terms_match_reference_bit_for_bit(self, kind):
        loss = make_loss(kind)
        ref_plus, ref_minus = loss_terms_reference(kind)
        assert same_bits(loss.ell_plus(SCORE_GRID), ref_plus(SCORE_GRID))
        assert same_bits(loss.ell_minus(SCORE_GRID), ref_minus(SCORE_GRID))
        block = SCORE_GRID[:1330].reshape(10, 133)
        assert same_bits(loss.ell_plus(block), ref_plus(block))
        for t in SCORE_GRID[-10:]:
            assert same_bits(loss.ell_plus(t), ref_plus(t)), t
            assert same_bits(loss.ell_minus(t), ref_minus(t)), t


class TestRisk:
    def _set(self, y):
        return np.asarray(y) == 1

    def test_satisfied_hinge_margins(self):
        labeled = self._set([1, 1, 0, 0])
        scores = np.array([2.0, 2.0, -2.0, -2.0])
        assert risk(make_loss("hinge"), scores, labeled) == 0.0

    def test_xe2_at_zero_scores(self):
        labeled = self._set([1, 0])
        assert risk(make_loss("xe2"), np.zeros(2), labeled) == pytest.approx(
            np.log(2.0))

    def test_matches_term_by_term_loop(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 12)
        scores = rng.standard_normal(12)
        labeled = self._set(y)
        for kind in ("xe2", "tanh-mse", "hinge"):
            loss = make_loss(kind, lam=0.3)
            total = 0.0
            for i, s in enumerate(scores):
                term = loss.ell_plus(s) if y[i] == 1 else loss.ell_minus(s)
                total += float(term) / len(y)
            total += 0.3 * 1.7
            assert risk(loss, scores, labeled, w_norm=1.7) == pytest.approx(
                total, abs=1e-12)

    def test_depends_on_the_positive_set_only(self):
        """I- is the complement of I+: the labels of the other examples,
        and how many distinct ones there are, do not matter."""
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(8)
        y = np.array([1, 0, 2, 1, 3, 0, 1, 2])
        others = np.where(y == 1, 1, -7)
        binary = np.where(y == 1, 1, 0)
        loss = make_loss("tanh-mse", lam=0.2)
        values = {risk(loss, scores, self._set(labels), w_norm=0.5)
                  for labels in (y, others, binary)}
        assert len(values) == 1

    def test_permutation_invariance_within_sets(self):
        rng = np.random.default_rng(1)
        y = np.array([1, 1, 1, 0, 0])
        scores = rng.standard_normal(5)
        labeled = self._set(y)
        loss = make_loss("xe2")
        base = risk(loss, scores, labeled)
        swapped = scores.copy()
        swapped[[0, 2]] = swapped[[2, 0]]  # both in I+
        swapped[[3, 4]] = swapped[[4, 3]]  # both in I-
        assert risk(loss, swapped, labeled) == pytest.approx(base, abs=1e-12)

    def test_lambda_zero_ignores_weight_norm(self):
        labeled = self._set([1, 0])
        loss = make_loss("hinge", lam=0.0)
        scores = np.array([0.3, -0.2])
        assert risk(loss, scores, labeled, w_norm=0.0) == risk(
            loss, scores, labeled, w_norm=1e6)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            risk(make_loss("xe2"), np.array([bad, -1.0]), self._set([1, 0]))

    def test_lambda_scales_penalty(self):
        labeled = self._set([1, 0])
        loss = make_loss("hinge", lam=0.5)
        base = risk(make_loss("hinge"), np.zeros(2), labeled)
        assert risk(loss, np.zeros(2), labeled, w_norm=2.0) == pytest.approx(
            base + 1.0)


class TestMulticlassXe:
    """Mean softmax cross-entropy of n-by-C logits, as stage 2 trains it."""

    def test_uniform_logits(self):
        logits = np.zeros((4, 10))
        xe = ad.cross_entropy_logits(ad.constant(logits), np.zeros(4, dtype=int))
        assert xe.item() == pytest.approx(np.log(10.0))

    def test_dominant_correct_logit(self):
        logits = np.full((3, 4), -30.0)
        labels = np.array([0, 1, 2])
        logits[np.arange(3), labels] = 30.0
        xe = ad.cross_entropy_logits(ad.constant(logits), labels)
        assert xe.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_log_sum_exp_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3)) * 5
        labels = rng.integers(0, 3, 4)
        total = 0.0
        for i in range(4):
            total += np.log(np.exp(logits[i]).sum()) - logits[i, labels[i]]
        xe = ad.cross_entropy_logits(ad.constant(logits), labels)
        assert xe.item() == pytest.approx(total / 4.0, abs=1e-12)

    def test_two_class_softmax_identity_with_xe2_risk(self):
        # score t as two-class logits (0, t), positive = class 1
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(10) * 2
        y = rng.integers(0, 2, 10)
        decomposed = risk(make_loss("xe2"), scores, y == 1)
        logits = np.stack([np.zeros(10), scores], axis=1)
        xe = ad.cross_entropy_logits(ad.constant(logits), y)
        assert decomposed == pytest.approx(xe.item(), abs=1e-12)


class TestRiskTensor:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_oracle_loop(self, kind):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 9)
        scores = rng.standard_normal((9, 1)) * 2.0
        scores[:3, 0] = (1.0, -1.0, 0.0)
        ref_plus, ref_minus = loss_terms_reference(kind)
        total = 0.0
        for s, label in zip(scores[:, 0], y):
            total += float(ref_plus(s) if label == 1 else ref_minus(s)) / 9
        graph = risk_tensor(make_loss(kind), ad.Tensor(scores), y == 1)
        assert graph.item() == pytest.approx(total, abs=1e-12)
        plain = risk(make_loss(kind, lam=0.3), scores, y == 1, w_norm=1.7)
        assert plain == pytest.approx(total + 0.3 * 1.7, abs=1e-12)

    def test_penalty_needs_weights(self):
        loss = make_loss("hinge", lam=0.1)
        with pytest.raises(ConfigurationError):
            risk_tensor(loss, ad.Tensor(np.zeros((2, 1))),
                        np.array([True, False]))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_positive_lambda_raises(self, kind):
        """The differentiable risk has no penalty term: any lambda > 0 is
        refused, with or without a custom g; lambda 0 is the data term."""
        scores = ad.Tensor(np.array([[0.5], [-0.3]]))
        positive = np.array([True, False])
        for loss in (make_loss(kind, lam=1e-9), make_loss(kind, lam=2.0,
                                                          g=np.square)):
            with pytest.raises(ConfigurationError, match="lambda"):
                risk_tensor(loss, scores, positive)
        plain = risk(make_loss(kind), scores.data, positive)
        assert risk_tensor(make_loss(kind), scores, positive).item() == plain


class TestMonotonicityAudit:
    def test_builtin_losses_clean_on_dense_grid(self):
        grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        for kind in LOSS_KINDS:
            loss = make_loss(kind)
            assert np.all(np.diff(loss.ell_plus(grid)) <= 1e-12), kind
            assert np.all(np.diff(loss.ell_minus(grid)) >= -1e-12), kind
