import numpy as np
import pytest

from modkernel.errors import ConfigurationError, ContractError
from modkernel.geometry import (LemmaInstance, LemmaSolution,
                                committed_bruteforce_reports,
                                construct_e_star, lemma_checks,
                                optimality_bruteforce, random_lemma_instance,
                                run_lemma_suite, weight_lattice)
from modkernel.kernels import FeatureMap
from modkernel.losses import make_loss


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestConstructEStar:
    def test_instance_equal_to_itself(self):
        rng = np.random.default_rng(0)
        e = _unit(rng.standard_normal(3))
        v_plus = _unit(rng.standard_normal(3)) * 1.3
        v_minus = _unit(rng.standard_normal(3)) * 1.3
        inst = LemmaInstance(e, v_plus, v_minus, v_plus.copy(), v_minus.copy())
        sol = construct_e_star(inst)
        assert abs(sol.n_star - sol.n) <= 1e-9
        assert sol.p_star >= sol.p - 1e-9

    def test_antipodal_special_case(self):
        e = np.array([1.0, 0.0])
        v_plus = np.array([1.0, 0.0])
        v_minus = np.array([0.0, 1.0])
        inst = LemmaInstance(e, v_plus, v_minus,
                             np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        sol = construct_e_star(inst)
        assert sol.branch == "antipodal"
        np.testing.assert_allclose(sol.e_star, [1.0, 0.0])
        assert sol.p_star == pytest.approx(1.0)
        assert sol.p_star >= sol.p - 1e-9
        assert sol.n_star == pytest.approx(-1.0)
        assert sol.n_star <= sol.n + 1e-9

    def test_identical_starred_pair(self):
        # coincident starred vectors force v_plus == v_minus
        e = _unit([0.6, 0.8, 0.0])
        shared = np.array([0.0, 1.1, 0.0])
        star = np.array([1.1, 0.0, 0.0])
        inst = LemmaInstance(e, shared, shared.copy(), star, star.copy())
        sol = construct_e_star(inst)
        assert sol.branch == "identical"
        assert abs(np.linalg.norm(sol.e_star) - 1.0) <= 1e-12
        assert sol.p_star == pytest.approx(sol.p, abs=1e-12)
        assert sol.n_star == pytest.approx(sol.n, abs=1e-12)

    def test_randomized_suite_small(self):
        report = run_lemma_suite(num_instances=1000, seed=123)
        assert report.failures == 0
        assert report.branches.get("general", 0) > 0

    def test_general_branch_coefficient_constraint(self):
        rng = np.random.default_rng(5)
        seen = 0
        while seen < 50:
            inst = random_lemma_instance(rng, 4)
            sol = construct_e_star(inst)
            if sol.branch != "general":
                continue
            seen += 1
            resid = abs(sol.a ** 2 * sol.r + sol.b ** 2 * sol.r
                        + 2 * sol.a * sol.b * sol.s - 1.0)
            assert resid <= 1e-9

    def test_invalid_norms_rejected(self):
        e = np.array([1.0, 0.0])
        with pytest.raises(ContractError):
            LemmaInstance(e, np.array([1.0, 0.0]), np.array([0.0, 2.0]),
                          np.array([1.0, 0.0]), np.array([0.0, 1.0])).validate()

    def test_violated_separation_rejected(self):
        e = np.array([1.0, 0.0])
        v_plus = np.array([1.0, 0.0])
        v_minus = np.array([-1.0, 0.0])
        star_plus = np.array([1.0, 0.0])
        star_minus = np.array([0.0, 1.0])  # less separated than the plain pair
        with pytest.raises(ContractError):
            construct_e_star(LemmaInstance(e, v_plus, v_minus,
                                           star_plus, star_minus))

    def test_non_unit_e_rejected(self):
        with pytest.raises(ContractError):
            LemmaInstance(np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                          np.array([0.0, 1.0])).validate()


def _applicable(checks, i):
    """The checks that apply to instance ``i``: name -> (passed, residual)."""
    return {name: (bool(passed[i]), float(residual[i]))
            for name, (applies, passed, residual) in checks.items()
            if applies[i]}


class TestVerifier:
    def _solved(self):
        rng = np.random.default_rng(7)
        batch = random_lemma_instance(rng, 3).as_batch()
        return batch, construct_e_star(batch)

    def test_constructed_solution_passes(self):
        batch, sol = self._solved()
        assert all(passed for passed, _ in
                   _applicable(lemma_checks(batch, sol), 0).values())

    def test_scaled_e_star_fails_unit_norm(self):
        batch, sol = self._solved()
        sol.e_star = sol.e_star * 1.1
        passed, _ = _applicable(lemma_checks(batch, sol), 0)["unit_norm"]
        assert not passed

    def test_tampered_n_star_fails_consistency(self):
        batch, sol = self._solved()
        sol.n_star += 0.01
        checks = _applicable(lemma_checks(batch, sol), 0)
        passed, _ = checks["diagnostics_consistent"]
        assert not passed


# Reports of the earlier per-instance implementation, so any drift in the
# batch code fails; keys are listed in the order the report holds them.
PINNED_SUITES = {
    "defaults": ({}, {
        "failures": 0,
        "branches": [("general", 8840), ("cauchy-schwarz", 1160)],
        "worst_residuals": [
            ("unit_norm", "0x1.f93d000000000p-37"),
            ("plus_score_no_worse", "0x0.0p+0"),
            ("minus_score_no_worse", "0x1.2b00000000000p-45"),
            ("diagnostics_consistent", "0x0.0p+0"),
            ("angle_bound", "0x1.d900000000000p-44"),
            ("minus_score_preserved", "0x1.e600000000000p-45"),
            ("coefficient_constraint", "0x1.0000000000000p-36"),
        ],
    }),
    "1000-seed-123": ({"num_instances": 1000, "seed": 123}, {
        "failures": 0,
        "branches": [("general", 900), ("cauchy-schwarz", 100)],
        "worst_residuals": [
            ("unit_norm", "0x1.a740000000000p-42"),
            ("plus_score_no_worse", "0x0.0p+0"),
            ("minus_score_no_worse", "0x1.8c00000000000p-49"),
            ("diagnostics_consistent", "0x0.0p+0"),
            ("angle_bound", "0x1.1de0000000000p-47"),
            ("minus_score_preserved", "0x1.ec00000000000p-47"),
            ("coefficient_constraint", "0x1.0000000000000p-47"),
        ],
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_SUITES))
def test_lemma_suite_pinned(name):
    kwargs, expected = PINNED_SUITES[name]
    report = run_lemma_suite(**kwargs)
    assert report.failures == expected["failures"]
    assert list(report.branches.items()) == expected["branches"]
    assert [(k, v.hex()) for k, v in report.worst_residuals.items()] \
        == expected["worst_residuals"]


def _stack(instances):
    return LemmaInstance(*(np.stack([getattr(inst, name) for inst in instances])
                           for name in ("e", "v_plus", "v_minus",
                                        "v_plus_star", "v_minus_star")))


def _branch_instances(dim, hand_built):
    """``hand_built`` followed by the first sampled general and
    cauchy-schwarz instances of dimension ``dim``."""
    rng = np.random.default_rng(11)
    found = {}
    while len(found) < 2:
        inst = random_lemma_instance(rng, dim)
        found.setdefault(construct_e_star(inst).branch, inst)
    return [hand_built, found["general"], found["cauchy-schwarz"]]


def _identical_instance():
    e = _unit([0.6, 0.8, 0.0])
    shared = np.array([0.0, 1.1, 0.0])
    star = np.array([1.1, 0.0, 0.0])
    return LemmaInstance(e, shared, shared.copy(), star, star.copy())


def _antipodal_instance():
    return LemmaInstance(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                         np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                         np.array([-1.0, 0.0]))


class TestBatch:
    @pytest.mark.parametrize("dim, hand_built, branch", [
        (3, _identical_instance(), "identical"),
        (2, _antipodal_instance(), "antipodal"),
    ])
    def test_batch_rows_equal_batches_of_one(self, dim, hand_built, branch):
        instances = _branch_instances(dim, hand_built)
        batch = _stack(instances)
        sol = construct_e_star(batch)
        assert list(sol.branch) == [branch, "general", "cauchy-schwarz"]
        checks = lemma_checks(batch, sol)
        for i, inst in enumerate(instances):
            alone = construct_e_star(inst)
            row = sol.row(i)
            np.testing.assert_array_equal(row.e_star, alone.e_star)
            for name in LemmaSolution.__dataclass_fields__:
                if name != "e_star":
                    assert repr(getattr(row, name)) == repr(getattr(alone, name)), name
            one = inst.as_batch()
            checks_alone = _applicable(lemma_checks(one, construct_e_star(one)), 0)
            assert all(passed for passed, _ in checks_alone.values())
            assert _applicable(checks, i) == checks_alone

    @pytest.mark.parametrize("bad", [
        LemmaInstance(np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0])),
        LemmaInstance(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 2.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0])),
        LemmaInstance(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2),
                      np.zeros(2), np.zeros(2)),
        LemmaInstance(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                      np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0])),
    ], ids=["non-unit-e", "unequal-norms", "zero-norm", "less-separated"])
    def test_invalid_instance_in_batch_raises_its_own_message(self, bad):
        with pytest.raises(ContractError) as alone:
            construct_e_star(bad)
        good = _antipodal_instance()
        with pytest.raises(ContractError) as in_batch:
            construct_e_star(_stack([good, bad, good]))
        assert str(in_batch.value) == str(alone.value)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ContractError, match="one dimension"):
            LemmaInstance(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)),
                          np.ones((2, 3)), np.ones((2, 4))).validate()


class TestLemmaSuiteSettings:
    @pytest.mark.parametrize("kwargs, key", [
        ({"num_instances": -5}, "instances"),
        ({"num_instances": 0}, "instances"),
        ({"dims": ()}, "dims"),
        ({"dims": ("a",)}, "dims"),
        ({"dims": (0, 2)}, "dims"),
        ({"seed": -1}, "seed"),
        ({"tol": -1.0}, "tolerance"),
        ({"tol": float("nan")}, "tolerance"),
    ])
    def test_bad_settings_rejected(self, kwargs, key):
        with pytest.raises(ConfigurationError, match=key):
            run_lemma_suite(**kwargs)

    def test_dimension_one_still_runs(self):
        report = run_lemma_suite(num_instances=50, dims=(1, 2), seed=3)
        assert report.passed
        assert set(report.branches) == {"identical", "antipodal", "general",
                                        "cauchy-schwarz"}


class TestBruteforce:
    def test_two_point_instance_attains_zero_hinge_risk(self):
        weights, biases = weight_lattice(2.0, 21, 1)
        report = optimality_bruteforce(
            labels=[1, 0], grid=[[-3.0], [3.0]], feature=FeatureMap("tanh"),
            loss=make_loss("hinge"), weights=weights, biases=biases)
        assert report.passed
        assert report.global_min == pytest.approx(0.0, abs=1e-12)
        assert report.satisfying == 2  # both orientations

    def test_degenerate_single_code_grid(self):
        weights, biases = weight_lattice(1.0, 5, 1)
        report = optimality_bruteforce(
            labels=[1, 0], grid=[[0.5]], feature=FeatureMap("tanh"),
            loss=make_loss("hinge"), weights=weights, biases=biases)
        assert report.passed
        assert report.satisfying == report.assignments == 1

    def test_committed_registry_all_pass(self):
        for report in committed_bruteforce_reports():
            assert report.passed, report.name
            assert report.counterexamples == [], report.name

    def test_infeasible_sizes_rejected(self):
        weights, biases = weight_lattice(1.0, 3, 1)
        with pytest.raises(ConfigurationError):
            optimality_bruteforce(labels=[1, 0] * 4, grid=[[0.0]],
                                  feature=FeatureMap("tanh"),
                                  loss=make_loss("hinge"),
                                  weights=weights, biases=biases)
        with pytest.raises(ConfigurationError):
            optimality_bruteforce(labels=[1, 0, 0, 0, 1, 0],
                                  grid=[[float(i)] for i in range(9)],
                                  feature=FeatureMap("tanh"),
                                  loss=make_loss("hinge"),
                                  weights=weights, biases=biases)

    def test_single_class_rejected(self):
        weights, biases = weight_lattice(1.0, 3, 1)
        with pytest.raises(ConfigurationError):
            optimality_bruteforce(labels=[1, 1], grid=[[0.0], [1.0]],
                                  feature=FeatureMap("tanh"),
                                  loss=make_loss("hinge"),
                                  weights=weights, biases=biases)
