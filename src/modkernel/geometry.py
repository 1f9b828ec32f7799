"""Executable verification of the optimality geometry.

Two tools live here.  The first constructs, for any pair of equal-norm
vector pairs where the starred pair is at least as separated as the plain
pair, a unit direction ``e_star`` scoring the starred pair no worse than a
given unit direction ``e`` scores the plain pair; the construction follows
the closed form a*v_plus_star + b*v_minus_star and is re-checked by
``lemma_checks``.  The second exhaustively enumerates tiny two-module
families (finite code grids for the input map, a finite weight lattice for
the linear readout) and confirms that input maps maximizing pairwise
feature separation attain the family-wide minimum of the decomposed risk.

The lemma code is written once, over batches.  A ``LemmaInstance`` holds
one instance (five vectors) or a batch of k instances of one dimension
(five k-by-dim arrays, one instance per row).  Validation, construction
and verification run on whole batches, with boolean masks selecting each
branch of the construction; a single instance goes through the same code
as a batch of one.  ``run_lemma_suite`` samples its instances one at a
time from one random stream and checks them one batch per dimension.

Everything here is pure and deterministic given its inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import LEMMA_DEFAULTS, LEMMA_FIELDS
from .errors import ConfigurationError, ContractError
from .kernels import FeatureMap
from .losses import DecomposableLoss, make_loss
from .serialize import check_entries

_NORM_TOL = 1e-12


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (of the vector, for 1-D input).

    Bit for bit equal to ``np.linalg.norm`` of each row.
    """
    return np.sqrt(np.vecdot(x, x))


@dataclass(frozen=True)
class LemmaInstance:
    """A unit vector e and four equal-norm vectors with the starred pair
    at least as separated as the plain pair.

    Each field is one vector, or a k-by-dim array holding a batch of k
    instances of one dimension, one instance per row.
    """

    e: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    v_plus_star: np.ndarray
    v_minus_star: np.ndarray

    def as_batch(self) -> "LemmaInstance":
        """This batch, or a batch of one holding this instance."""
        vecs = [self.e, self.v_plus, self.v_minus,
                self.v_plus_star, self.v_minus_star]
        dims = {v.shape for v in vecs}
        if len(dims) != 1 or vecs[0].ndim not in (1, 2):
            raise ContractError(f"all five vectors must share one dimension, got {dims}")
        if vecs[0].ndim == 2:
            return self
        return LemmaInstance(*(v[None, :] for v in vecs))

    def validate(self) -> None:
        """Raise ContractError with the first condition that the first
        invalid instance of the batch breaks."""
        b = self.as_batch()
        norms = _norms(np.stack([b.v_plus, b.v_minus,
                                 b.v_plus_star, b.v_minus_star]))
        gap = _norms(b.v_plus - b.v_minus) - _norms(b.v_plus_star - b.v_minus_star)
        conditions = (
            (np.abs(_norms(b.e) - 1.0) <= _NORM_TOL, "e must be a unit vector"),
            (norms.min(axis=0) > 0.0, "the four vectors must have positive norm"),
            (norms.max(axis=0) - norms.min(axis=0) <= _NORM_TOL,
             "the four vectors must share a common norm"),
            (gap <= _NORM_TOL,
             "the starred pair must be at least as separated as the plain pair"),
        )
        valid = np.logical_and.reduce([ok for ok, _ in conditions])
        if not valid.all():
            first = int(np.argmin(valid))
            raise ContractError(next(message for ok, message in conditions
                                     if not ok[first]))


@dataclass
class LemmaSolution:
    """The constructed unit direction plus every diagnostic of the
    construction (inner products, coefficients, angles).

    For a batch, ``e_star`` is k-by-dim and every other field an array
    with one entry per instance.
    """

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

    def row(self, i: int) -> "LemmaSolution":
        """The solution of instance ``i`` of a batch, with Python scalars."""
        values = {f.name: getattr(self, f.name)[i]
                  for f in dataclasses.fields(self)}
        return LemmaSolution(**{name: v if name == "e_star" else v.item()
                                for name, v in values.items()})


def _angle(cos_value: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(cos_value, -1.0, 1.0))


def _orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """For each row of u, a unit vector orthogonal to it (dimension >= 2)."""
    rows = np.arange(u.shape[0])
    cand = np.zeros_like(u)
    cand[rows, np.argmin(np.abs(u), axis=1)] = 1.0
    cand -= np.vecdot(cand, u)[:, None] * u
    norm = _norms(cand)
    if np.any(norm == 0.0):
        raise ContractError("failed to build an orthogonal direction")
    return cand / norm[:, None]


def construct_e_star(inst: LemmaInstance) -> LemmaSolution:
    """Build the matching unit direction for a valid instance, or for each
    instance of a valid batch.

    Branches: if the starred vectors coincide, any unit vector hitting the
    required inner product works (built against the span of v_plus_star);
    if they are antipodal, v_plus_star itself (normalized) works; otherwise
    the closed-form coefficients a, b apply.  A single instance runs as a
    batch of one and gets back a solution of Python scalars.
    """
    batch = inst.as_batch()
    batch.validate()
    vps, vms = batch.v_plus_star, batch.v_minus_star
    r = np.vecdot(vps, vps)
    s = np.vecdot(vps, vms)
    p = np.vecdot(batch.e, batch.v_plus)
    n = np.vecdot(batch.e, batch.v_minus)
    rho = np.sqrt(r)
    theta = _angle(np.vecdot(batch.v_plus, batch.v_minus) / r)
    theta_star = _angle(s / r)
    gamma_plus = _angle(p / rho)
    gamma_minus = _angle(n / rho)

    identical = np.all(vps == vms, axis=1)
    antipodal = ~identical & np.all(vps == -vms, axis=1)
    general = ~(identical | antipodal)
    if np.any(general & (np.abs(s) >= r)):
        raise ContractError(
            "internal invariant violated: |s| >= r outside the "
            "degenerate branches")

    # Antipodal starred pair: v_plus_star itself, normalized.
    u1 = vps / rho[:, None]
    # Coincident starred pair: the instance forces v_plus == v_minus, so a
    # unit vector with <e_star, v_plus_star> == p suffices.
    c = np.clip(p / rho, -1.0, 1.0)
    residual = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    coincident = c[:, None] * u1
    # Rows that need a second direction; in one dimension c is always +-1.
    turn = identical & (residual > 0.0)
    if turn.any():
        coincident[turn] += (residual[turn, None]
                             * _orthonormal_complement(u1[turn]))

    # Closed form.  Degenerate rows divide by zero; no branch keeps them.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt(np.maximum(r - n * n, 0.0) / (r * r - s * s))
        b = (n - a * s) / r
        closed_form = a[:, None] * vps + b[:, None] * vms
    # The closed form preserves <e, v_minus> exactly, but its best
    # plus-score is rho*cos(gamma_minus - theta_star), which falls short of
    # p whenever theta_star - gamma_minus > gamma_plus.  On that region
    # v_plus_star itself scores rho >= p while its minus-score
    # rho*cos(theta_star) <= n, so it certifies the inequalities directly
    # (at the cost of the n-equality).
    closed = general & ~(np.vecdot(closed_form, vps) < p - _NORM_TOL)

    e_star = np.where(closed[:, None], closed_form,
                      np.where(identical[:, None], coincident, u1))
    branch = np.select([identical, antipodal, closed],
                       ["identical", "antipodal", "general"], "cauchy-schwarz")
    sol = LemmaSolution(
        e_star=e_star, a=np.where(closed, a, np.nan),
        b=np.where(closed, b, np.nan), branch=branch,
        p=p, n=n, p_star=np.vecdot(e_star, vps), n_star=np.vecdot(e_star, vms),
        r=r, s=s, theta=theta, theta_star=theta_star,
        gamma_plus=gamma_plus, gamma_minus=gamma_minus)
    return sol if batch is inst else sol.row(0)


def lemma_checks(inst: LemmaInstance, sol: LemmaSolution,
                 tol: float = 1e-9) -> dict:
    """Independently re-check a batch of solutions against their instances.

    Returns ``{check name: (applies, passed, residual)}``, three arrays with
    one entry per instance; a check counts only where it applies.  Checks
    the unit norm of e_star, both score inequalities, the angle bound
    gamma_minus - gamma_plus <= theta, the coefficient constraint of the
    general branch, and that the reported diagnostics match recomputation.
    """
    everywhere = np.ones(inst.e.shape[0], dtype=bool)
    norm_resid = np.abs(_norms(sol.e_star) - 1.0)

    p = np.vecdot(inst.e, inst.v_plus)
    n = np.vecdot(inst.e, inst.v_minus)
    p_star = np.vecdot(sol.e_star, inst.v_plus_star)
    n_star = np.vecdot(sol.e_star, inst.v_minus_star)
    diag_resid = np.maximum(np.abs(p_star - sol.p_star),
                            np.abs(n_star - sol.n_star))
    angle_gap = (sol.gamma_minus - sol.gamma_plus) - sol.theta
    eq_resid = np.abs(n_star - n)
    general = sol.branch == "general"
    unit_resid = np.abs(np.square(sol.a) * sol.r + np.square(sol.b) * sol.r
                        + 2.0 * sol.a * sol.b * sol.s - 1.0)
    return {
        "unit_norm": (everywhere, norm_resid <= tol, norm_resid),
        "plus_score_no_worse": (everywhere, p_star >= p - tol,
                                np.maximum(p - p_star, 0.0)),
        "minus_score_no_worse": (everywhere, n_star <= n + tol,
                                 np.maximum(n_star - n, 0.0)),
        "diagnostics_consistent": (everywhere, diag_resid <= tol, diag_resid),
        "angle_bound": (everywhere, angle_gap <= tol,
                        np.maximum(angle_gap, 0.0)),
        "minus_score_preserved": (general | (sol.branch == "identical"),
                                  eq_resid <= tol, eq_resid),
        "coefficient_constraint": (general, unit_resid <= tol, unit_resid),
    }


_MAX_TRIES = 1000


def _sample_into(rng: np.random.Generator, e: np.ndarray, vecs: np.ndarray,
                 max_tries: int) -> None:
    """Rejection-sample one valid instance in place: e, and the 4-by-dim
    rows v_plus, v_minus, v_plus_star, v_minus_star of ``vecs``.

    Each try draws e, then the common norm, then the four vectors.
    """
    for _ in range(max_tries):
        rng.standard_normal(out=e)
        rho = rng.uniform(0.5, 2.0)
        rng.standard_normal(out=vecs)
        vecs /= _norms(vecs)[:, None]
        vecs *= rho
        diffs = vecs[0::2] - vecs[1::2]
        plain_gap, starred_gap = _norms(diffs)
        if plain_gap <= starred_gap:
            e /= _norms(e)
            return
    raise ContractError("failed to sample a valid instance")


def random_lemma_instance(rng: np.random.Generator, dim: int,
                          max_tries: int = _MAX_TRIES) -> LemmaInstance:
    """Rejection-sample an instance satisfying the separation condition."""
    e, vecs = np.empty(dim), np.empty((4, dim))
    _sample_into(rng, e, vecs, max_tries)
    return LemmaInstance(e, *vecs)


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


# Instances sampled before a block is checked; bounds the suite's memory.
_SUITE_BLOCK = 1024


def run_lemma_suite(num_instances: int = LEMMA_DEFAULTS["instances"],
                    dims=tuple(LEMMA_DEFAULTS["dims"]),
                    seed: int = LEMMA_DEFAULTS["seed"],
                    tol: float = LEMMA_DEFAULTS["tolerance"]) -> LemmaSuiteReport:
    """Sample ``num_instances`` instances, instance i of dimension
    ``dims[i % len(dims)]``, construct and verify each.

    ``worst_residuals`` and ``branches`` list their keys in the order the
    instances first produce them.
    """
    check_entries("lemma", {"instances": num_instances, "dims": dims,
                            "seed": seed, "tolerance": tol}, LEMMA_FIELDS)
    rng = np.random.default_rng(seed)
    failures = 0
    worst: dict[str, float] = {}
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for start in range(0, num_instances, _SUITE_BLOCK):
        block = range(start, min(start + _SUITE_BLOCK, num_instances))
        index = {dim: [i for i in block if dims[i % len(dims)] == dim]
                 for dim in dims}
        rows = {dim: (np.empty((len(idx), dim)), np.empty((len(idx), 4, dim)))
                for dim, idx in index.items()}
        filled = dict.fromkeys(dims, 0)
        for i in block:
            dim = dims[i % len(dims)]
            e, vecs = rows[dim]
            _sample_into(rng, e[filled[dim]], vecs[filled[dim]], _MAX_TRIES)
            filled[dim] += 1
        for dim, (e, vecs) in rows.items():
            if not index[dim]:
                continue
            batch = LemmaInstance(e, *vecs.transpose(1, 0, 2))
            sol = construct_e_star(batch)
            failed = np.zeros(len(e), dtype=bool)
            # Every instance runs the first checks and a later check applies
            # only where an earlier one does, so adding names in check
            # order keeps first-seen order.
            for name, (applies, passed, residual) in lemma_checks(
                    batch, sol, tol).items():
                if applies.any():
                    failed |= applies & ~passed
                    worst[name] = max(worst.get(name, 0.0),
                                      float(np.fmax.reduce(residual[applies])))
            failures += int(failed.sum())
            names, first, count = np.unique(sol.branch, return_index=True,
                                            return_counts=True)
            for name, j, c in zip(names.tolist(), first, count):
                i = index[dim][j]
                counts[name] = counts.get(name, 0) + int(c)
                first_seen[name] = min(first_seen.get(name, i), i)
    branches = {name: counts[name] for name in sorted(counts, key=first_seen.get)}
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
    # Each assignment's readout-minimized risk and separation condition.
    assignments = np.array(list(itertools.product(range(m), repeat=n)))
    best = np.empty(m ** n)
    satisfying = np.empty(m ** n, dtype=bool)
    for k, codes in enumerate(assignments):
        total = (loss_plus[codes[plus_idx]].sum(axis=0)
                 + loss_minus[codes[minus_idx]].sum(axis=0)) / n + penalty
        best[k] = total.min()
        pair_d = dists[np.ix_(codes[plus_idx], codes[minus_idx])]
        satisfying[k] = pair_d.min() >= dist_max - 1e-12

    global_min = float(best.min())
    min_over_sat = float(best[satisfying].min(initial=np.inf))
    counterexamples = [{"assignment": assignments[k].tolist(),
                        "min_risk": float(best[k]),
                        "gap": float(best[k]) - global_min}
                       for k in np.flatnonzero(satisfying
                                               & (best > global_min + tol))]
    return BruteforceReport(
        name=name, assignments=m ** n, satisfying=int(satisfying.sum()),
        global_min=global_min, min_over_satisfying=min_over_sat,
        counterexamples=counterexamples)


# The theorem oracle's instances.  name: (labels, code grid, loss kind,
# lattice points per axis); every lattice spans [-2, 2] in each weight and
# in the bias.
BRUTEFORCE_INSTANCES = {
    "two-point-hinge-1d": ([1, 0], [[-3.0], [3.0]], "hinge", 21),
    "four-point-xe2-1d": ([1, 1, 0, 0], [[-3.0], [-1.0], [1.0], [3.0]],
                          "xe2", 21),
    "four-point-xe2-2d": ([1, 0, 1, 0],
                          [[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]],
                          "xe2", 11),
    "three-point-tanhmse-1d": ([1, 0, 0], [[-2.0], [2.0]], "tanh-mse", 21),
    "one-code-degenerate": ([1, 0], [[1.0]], "hinge", 5),
}


def committed_bruteforce_reports(names=None) -> list:
    """Reports of the named committed instances, in the order named, or
    of every one by name when ``names`` is empty or None.

    All instances use the unit-normalized tanh feature map and symmetric
    weight lattices, so a maximally separated assignment can always match
    any competitor's scores within the lattice.
    """
    names = list(names or sorted(BRUTEFORCE_INSTANCES))
    unknown = [name for name in names if name not in BRUTEFORCE_INSTANCES]
    if unknown:
        raise ConfigurationError(f"unknown theorem-oracle instances: {unknown}")
    reports = []
    for name in names:
        labels, grid, loss, resolution = BRUTEFORCE_INSTANCES[name]
        w, b = weight_lattice(2.0, resolution, len(grid[0]))
        reports.append(optimality_bruteforce(
            labels=labels, grid=grid, feature=FeatureMap("tanh"),
            loss=make_loss(loss), weights=w, biases=b, name=name))
    return reports
