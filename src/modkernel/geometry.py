"""Executable verification of the optimality geometry.

Two tools live here.  The first constructs, for any pair of equal-norm
vector pairs where the starred pair is at least as separated as the plain
pair, a unit direction ``e_star`` scoring the starred pair no worse than a
given unit direction ``e`` scores the plain pair; the construction follows
the closed form a*v_plus_star + b*v_minus_star and is checked by an
independent verifier.  The second exhaustively enumerates tiny two-module
families (finite code grids for the input map, a finite weight lattice for
the linear readout) and confirms that input maps maximizing pairwise
feature separation attain the family-wide minimum of the decomposed risk.

Everything here is pure and deterministic given its inputs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import LEMMA_DEFAULTS
from .errors import ConfigurationError, ContractError
from .kernels import FeatureMap, kernel_eval, rkhs_distance_sq
from .losses import DecomposableLoss, make_loss

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LemmaInstance:
    """A unit vector e and four equal-norm vectors with the starred pair
    at least as separated as the plain pair."""

    e: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    v_plus_star: np.ndarray
    v_minus_star: np.ndarray

    def validate(self) -> None:
        vecs = [self.e, self.v_plus, self.v_minus,
                self.v_plus_star, self.v_minus_star]
        dims = {v.shape for v in vecs}
        if len(dims) != 1 or vecs[0].ndim != 1:
            raise ContractError(f"all five vectors must share one dimension, got {dims}")
        if abs(np.linalg.norm(self.e) - 1.0) > _NORM_TOL:
            raise ContractError("e must be a unit vector")
        norms = [np.linalg.norm(v) for v in vecs[1:]]
        if min(norms) <= 0.0:
            raise ContractError("the four vectors must have positive norm")
        if max(norms) - min(norms) > _NORM_TOL:
            raise ContractError("the four vectors must share a common norm")
        gap = (np.linalg.norm(self.v_plus - self.v_minus)
               - np.linalg.norm(self.v_plus_star - self.v_minus_star))
        if gap > _NORM_TOL:
            raise ContractError(
                "the starred pair must be at least as separated as the plain pair")


@dataclass
class LemmaSolution:
    """The constructed unit direction plus every diagnostic of the
    construction (inner products, coefficients, angles)."""

    e_star: np.ndarray
    a: float
    b: float
    branch: str
    p: float
    n: float
    p_star: float
    n_star: float
    r: float
    s: float
    theta: float
    theta_star: float
    gamma_plus: float
    gamma_minus: float


def _angle(cos_value: float) -> float:
    return float(np.arccos(np.clip(cos_value, -1.0, 1.0)))


def _orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to u (dimension >= 2)."""
    d = u.shape[0]
    basis = np.argmin(np.abs(u))
    cand = np.zeros(d)
    cand[basis] = 1.0
    cand -= (cand @ u) * u
    norm = np.linalg.norm(cand)
    if norm == 0.0:
        raise ContractError("failed to build an orthogonal direction")
    return cand / norm


def construct_e_star(inst: LemmaInstance) -> LemmaSolution:
    """Build the matching unit direction for a valid instance.

    Branches: if the starred vectors coincide, any unit vector hitting the
    required inner product works (built against the span of v_plus_star);
    if they are antipodal, v_plus_star itself (normalized) works; otherwise
    the closed-form coefficients a, b apply.
    """
    inst.validate()
    r = float(inst.v_plus_star @ inst.v_plus_star)
    s = float(inst.v_plus_star @ inst.v_minus_star)
    p = float(inst.e @ inst.v_plus)
    n = float(inst.e @ inst.v_minus)
    rho = np.sqrt(r)
    theta = _angle(float(inst.v_plus @ inst.v_minus) / r)
    theta_star = _angle(s / r)
    gamma_plus = _angle(p / rho)
    gamma_minus = _angle(n / rho)

    if np.array_equal(inst.v_plus_star, inst.v_minus_star):
        # Coincident starred pair: the instance forces v_plus == v_minus,
        # so a unit vector with <e_star, v_plus_star> == p suffices.
        u1 = inst.v_plus_star / rho
        c = float(np.clip(p / rho, -1.0, 1.0))
        residual = np.sqrt(max(1.0 - c * c, 0.0))
        if residual > 0.0:
            # Needs a second direction; in one dimension c is always +-1.
            e_star = c * u1 + residual * _orthonormal_complement(u1)
        else:
            e_star = c * u1
        branch, a, b = "identical", float("nan"), float("nan")
    elif np.array_equal(inst.v_plus_star, -inst.v_minus_star):
        e_star = inst.v_plus_star / rho
        branch, a, b = "antipodal", float("nan"), float("nan")
    else:
        if abs(s) >= r:
            raise ContractError(
                "internal invariant violated: |s| >= r outside the "
                "degenerate branches")
        a = float(np.sqrt(max(r - n * n, 0.0) / (r * r - s * s)))
        b = (n - a * s) / r
        e_star = a * inst.v_plus_star + b * inst.v_minus_star
        branch = "general"
        if float(e_star @ inst.v_plus_star) < p - _NORM_TOL:
            # The closed form preserves <e, v_minus> exactly, but its best
            # plus-score is rho*cos(gamma_minus - theta_star), which falls
            # short of p whenever theta_star - gamma_minus > gamma_plus.
            # On that region v_plus_star itself scores rho >= p while its
            # minus-score rho*cos(theta_star) <= n, so it certifies the
            # inequalities directly (at the cost of the n-equality).
            e_star = inst.v_plus_star / rho
            branch, a, b = "cauchy-schwarz", float("nan"), float("nan")

    p_star = float(e_star @ inst.v_plus_star)
    n_star = float(e_star @ inst.v_minus_star)
    return LemmaSolution(
        e_star=e_star, a=a, b=b, branch=branch,
        p=p, n=n, p_star=p_star, n_star=n_star, r=r, s=s,
        theta=theta, theta_star=theta_star,
        gamma_plus=gamma_plus, gamma_minus=gamma_minus)


@dataclass
class CheckReport:
    """Named pass/fail checks with their worst residuals."""

    checks: dict = field(default_factory=dict)

    def record(self, name: str, passed: bool, residual: float) -> None:
        self.checks[name] = {"passed": bool(passed), "residual": float(residual)}

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": self.checks}


def verify_lemma_solution(inst: LemmaInstance, sol: LemmaSolution,
                          tol: float = 1e-9) -> CheckReport:
    """Independently re-check a solution against its instance.

    Verifies the unit norm of e_star, both score inequalities, the angle
    bound gamma_minus - gamma_plus <= theta, the coefficient constraint of
    the general branch, and that the reported diagnostics match
    recomputation.
    """
    report = CheckReport()
    norm_resid = abs(np.linalg.norm(sol.e_star) - 1.0)
    report.record("unit_norm", norm_resid <= tol, norm_resid)

    p = float(inst.e @ inst.v_plus)
    n = float(inst.e @ inst.v_minus)
    p_star = float(sol.e_star @ inst.v_plus_star)
    n_star = float(sol.e_star @ inst.v_minus_star)
    report.record("plus_score_no_worse", p_star >= p - tol, max(p - p_star, 0.0))
    report.record("minus_score_no_worse", n_star <= n + tol, max(n_star - n, 0.0))

    diag_resid = max(abs(p_star - sol.p_star), abs(n_star - sol.n_star))
    report.record("diagnostics_consistent", diag_resid <= tol, diag_resid)

    angle_gap = (sol.gamma_minus - sol.gamma_plus) - sol.theta
    report.record("angle_bound", angle_gap <= tol, max(angle_gap, 0.0))

    if sol.branch in ("general", "identical"):
        eq_resid = abs(n_star - n)
        report.record("minus_score_preserved", eq_resid <= tol, eq_resid)
    if sol.branch == "general":
        unit_resid = abs(sol.a ** 2 * sol.r + sol.b ** 2 * sol.r
                         + 2.0 * sol.a * sol.b * sol.s - 1.0)
        report.record("coefficient_constraint", unit_resid <= tol, unit_resid)
    return report


def random_lemma_instance(rng: np.random.Generator, dim: int,
                          max_tries: int = 1000) -> LemmaInstance:
    """Rejection-sample an instance satisfying the separation condition."""
    for _ in range(max_tries):
        e = rng.standard_normal(dim)
        e /= np.linalg.norm(e)
        rho = rng.uniform(0.5, 2.0)

        def _vec():
            v = rng.standard_normal(dim)
            return v / np.linalg.norm(v) * rho

        v_plus, v_minus = _vec(), _vec()
        v_plus_star, v_minus_star = _vec(), _vec()
        if (np.linalg.norm(v_plus - v_minus)
                <= np.linalg.norm(v_plus_star - v_minus_star)):
            return LemmaInstance(e, v_plus, v_minus, v_plus_star, v_minus_star)
    raise ContractError("failed to sample a valid instance")


@dataclass
class LemmaSuiteReport:
    """Aggregate outcome of a randomized construction-and-verify sweep."""

    instances: int
    failures: int
    worst_residuals: dict
    branches: dict

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {"instances": self.instances, "failures": self.failures,
                "passed": self.passed, "worst_residuals": self.worst_residuals,
                "branches": self.branches}


def run_lemma_suite(num_instances: int = LEMMA_DEFAULTS["instances"],
                    dims=tuple(LEMMA_DEFAULTS["dims"]),
                    seed: int = LEMMA_DEFAULTS["seed"],
                    tol: float = LEMMA_DEFAULTS["tolerance"]) -> LemmaSuiteReport:
    rng = np.random.default_rng(seed)
    failures = 0
    worst: dict[str, float] = {}
    branches: dict[str, int] = {}
    for i in range(num_instances):
        dim = int(dims[i % len(dims)])
        inst = random_lemma_instance(rng, dim)
        sol = construct_e_star(inst)
        branches[sol.branch] = branches.get(sol.branch, 0) + 1
        report = verify_lemma_solution(inst, sol, tol=tol)
        if not report.passed:
            failures += 1
        for name, check in report.checks.items():
            worst[name] = max(worst.get(name, 0.0), check["residual"])
    return LemmaSuiteReport(instances=num_instances, failures=failures,
                            worst_residuals=worst, branches=branches)


# ---------------------------------------------------------------------------
# brute-force optimality oracle
# ---------------------------------------------------------------------------

_MAX_POINTS = 6
_MAX_GRID = 16
_MAX_WEIGHTS = 10_000
_MAX_ASSIGNMENTS = 65_536


@dataclass
class BruteforceReport:
    """Outcome of an exhaustive two-module enumeration."""

    name: str
    assignments: int
    satisfying: int
    global_min: float
    min_over_satisfying: float
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.satisfying > 0 and not self.counterexamples

    def as_dict(self) -> dict:
        return {"name": self.name, "assignments": self.assignments,
                "satisfying": self.satisfying, "global_min": self.global_min,
                "min_over_satisfying": self.min_over_satisfying,
                "counterexamples": self.counterexamples, "passed": self.passed}


def weight_lattice(extent: float, resolution: int, dim: int) -> tuple:
    """All (w, b) with components on a uniform lattice over [-extent, extent]."""
    if resolution < 2 or extent <= 0:
        raise ConfigurationError("lattice needs extent > 0 and resolution >= 2")
    axis = np.linspace(-extent, extent, resolution)
    combos = np.array(list(itertools.product(axis, repeat=dim + 1)))
    return combos[:, :dim], combos[:, dim]


def optimality_bruteforce(labels, grid, feature: FeatureMap,
                          loss: DecomposableLoss, weights: np.ndarray,
                          biases: np.ndarray, name: str = "instance",
                          tol: float = 1e-9) -> BruteforceReport:
    """Exhaustively check: every input map whose inter-class feature
    distances all reach the grid-wide maximum attains, after minimizing the
    readout over the weight lattice, the family-wide risk minimum.

    The claim is relative to the enumerated family: all maps from the n
    points into ``grid`` composed with all lattice readouts.
    """
    labels = np.asarray(labels)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim == 1:
        grid = grid.reshape(-1, 1)
    weights = np.asarray(weights, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    n = labels.shape[0]
    m = grid.shape[0]
    if n > _MAX_POINTS or m > _MAX_GRID or weights.shape[0] > _MAX_WEIGHTS:
        raise ConfigurationError(
            f"infeasible enumeration size: n={n}, |grid|={m}, "
            f"|weights|={weights.shape[0]}")
    if m ** n > _MAX_ASSIGNMENTS:
        raise ConfigurationError(
            f"infeasible enumeration size: {m}^{n} assignments")

    feats = np.atleast_2d(feature.apply(grid))
    diffs = feats[:, None, :] - feats[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    dist_max = float(dists.max())

    classes = np.unique(labels)
    if classes.shape[0] != 2:
        raise ConfigurationError("instance must carry exactly two classes")
    plus = labels == classes.max()
    minus = ~plus

    # Per-code, per-readout decomposed losses; assignments then just sum rows.
    scores = feats @ weights.T + biases[None, :]
    loss_plus = np.asarray(loss.ell_plus(scores), dtype=np.float64)
    loss_minus = np.asarray(loss.ell_minus(scores), dtype=np.float64)
    penalty = loss.lam * np.array([loss.g(np.linalg.norm(w)) for w in weights])

    plus_idx = np.flatnonzero(plus)
    minus_idx = np.flatnonzero(minus)
    global_min = np.inf
    satisfying: list[tuple] = []
    min_by_assignment: dict[tuple, float] = {}
    for assign in itertools.product(range(m), repeat=n):
        codes = np.asarray(assign)
        total = (loss_plus[codes[plus_idx]].sum(axis=0)
                 + loss_minus[codes[minus_idx]].sum(axis=0)) / n + penalty
        best = float(total.min())
        min_by_assignment[assign] = best
        global_min = min(global_min, best)
        pair_d = dists[np.ix_(codes[plus_idx], codes[minus_idx])]
        if pair_d.min() >= dist_max - 1e-12:
            satisfying.append(assign)

    counterexamples = []
    min_over_sat = np.inf
    for assign in satisfying:
        best = min_by_assignment[assign]
        min_over_sat = min(min_over_sat, best)
        if best > global_min + tol:
            counterexamples.append({"assignment": list(assign),
                                    "min_risk": best,
                                    "gap": best - global_min})
    return BruteforceReport(
        name=name, assignments=m ** n, satisfying=len(satisfying),
        global_min=float(global_min), min_over_satisfying=float(min_over_sat),
        counterexamples=counterexamples)


# name: (labels, code grid, loss kind, lattice points per axis); every
# lattice spans [-2, 2] in each weight and in the bias.
_BRUTEFORCE_INSTANCES = {
    "two-point-hinge-1d": ([1, 0], [[-3.0], [3.0]], "hinge", 21),
    "four-point-xe2-1d": ([1, 1, 0, 0], [[-3.0], [-1.0], [1.0], [3.0]],
                          "xe2", 21),
    "four-point-xe2-2d": ([1, 0, 1, 0],
                          [[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]],
                          "xe2", 11),
    "three-point-tanhmse-1d": ([1, 0, 0], [[-2.0], [2.0]], "tanh-mse", 21),
    "one-code-degenerate": ([1, 0], [[1.0]], "hinge", 5),
}


def _run_bruteforce_instance(name: str, labels, grid, loss: str,
                             resolution: int) -> BruteforceReport:
    w, b = weight_lattice(2.0, resolution, len(grid[0]))
    return optimality_bruteforce(
        labels=labels, grid=grid, feature=FeatureMap("tanh"),
        loss=make_loss(loss), weights=w, biases=b, name=name)


def committed_bruteforce_instances() -> dict:
    """The fixed tiny-instance registry exercised by the theorem oracle.

    All instances use the unit-normalized tanh feature map and symmetric
    weight lattices, so a maximally separated assignment can always match
    any competitor's scores within the lattice.  Values are zero-argument
    callables returning a ``BruteforceReport``.
    """
    return {name: functools.partial(_run_bruteforce_instance, name, *spec)
            for name, spec in _BRUTEFORCE_INSTANCES.items()}


def check_distance_kernel_equivalence(fmap: FeatureMap, pairs,
                                      tol: float = 1e-9) -> CheckReport:
    """Over a sample of vector pairs, confirm that the squared feature
    distance is maximal exactly when the kernel value sits at its infimum,
    and that distance^2 + 2k == 2 identically for unit-normalized features.
    """
    alpha, beta = fmap.bounds()
    ks, d2s = [], []
    for u, v in pairs:
        ks.append(kernel_eval(fmap, u, v))
        d2s.append(rkhs_distance_sq(fmap, u, v))
    ks = np.asarray(ks)
    d2s = np.asarray(d2s)
    report = CheckReport()

    identity_resid = float(np.max(np.abs(d2s - (2.0 * alpha - 2.0 * ks))))
    report.record("distance_identity", identity_resid <= 1e-12, identity_resid)

    d2_max = float(d2s.max())
    is_max = d2s >= d2_max - tol
    at_beta = np.abs(ks - beta) <= tol
    mismatches = int(np.sum(is_max != at_beta))
    report.record("max_distance_iff_min_kernel", mismatches == 0,
                  float(mismatches))

    order_by_d2 = np.argsort(-d2s, kind="stable")
    order_by_k = np.argsort(ks, kind="stable")
    agree = bool(np.array_equal(order_by_d2, order_by_k))
    report.record("orderings_mirror", agree, 0.0 if agree else 1.0)
    return report
