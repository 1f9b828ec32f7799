"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
experiment-level criteria run the committed configs under ``configs/``
through the orchestrator, so the exit status they assert is the same one
the CLI returns.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import modkernel.autodiff as ad
from modkernel import proxies
from modkernel.config import load_config
from modkernel.experiments import run_experiment
from modkernel.geometry import (LemmaInstance, committed_bruteforce_reports,
                                construct_e_star, lemma_checks,
                                random_lemma_instance)
from modkernel.kernels import FeatureMap, kernel_eval, kernel_matrix, rkhs_distance_sq
from modkernel.losses import make_loss, risk_tensor
from modkernel.serialize import read_json

from oracles import SMALL_CONFIGS, central_difference, jacobi_eigenvalues
from test_autodiff import check_all_op_gradients
from test_proxies import check_proxy_gradient

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _report(tmp_path, name):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    cfg.resolved["output_dir"] = str(tmp_path / name)
    status = run_experiment(cfg)
    return status, read_json(tmp_path / name / "report.json")


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences (1e-5 relative)
    for every op, proxy, and loss across 100 random seeds."""
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        check_all_op_gradients(rng)
    for kind in proxies.PROXY_KINDS:
        for seed in range(100):
            check_proxy_gradient(kind, np.random.default_rng(1000 + seed))
    for kind in ("xe2", "tanh-mse", "hinge"):
        loss = make_loss(kind)
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            scores = rng.standard_normal((6, 1))
            positive = rng.integers(0, 2, 6).astype(bool)
            if kind == "hinge":  # keep clear of the nondifferentiable corner
                scores = np.where(np.abs(np.abs(scores) - 1.0) < 1e-3,
                                  scores + 0.01, scores)
            leaf = ad.Tensor(scores, requires_grad=True)
            ad.backward(risk_tensor(loss, leaf, positive))
            fd = central_difference(
                lambda arr: risk_tensor(loss, ad.Tensor(arr), positive).item(),
                scores)
            np.testing.assert_allclose(leaf.grad, fd, rtol=1e-5, atol=1e-8,
                                       err_msg=f"loss {kind}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: gradients match finite differences for all "
          f"ops/proxies/losses, 100 seeds ({elapsed:.1f}s)")


def test_criterion_2_lemma_suite():
    """10^4 randomized instances, d in 2..8: unit norm, score inequalities,
    the n-equality where the closed form claims it, and the coefficient
    constraint, all within 1e-9; zero failures.  The instances are drawn
    one at a time from one stream and checked one batch per dimension."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    dims = (2, 3, 4, 5, 6, 7, 8)
    drawn = {dim: [] for dim in dims}
    for i in range(10_000):
        dim = dims[i % len(dims)]
        drawn[dim].append(random_lemma_instance(rng, dim))
    failures = 0
    general = 0
    for instances in drawn.values():
        batch = LemmaInstance(*np.stack(
            [(inst.e, inst.v_plus, inst.v_minus, inst.v_plus_star,
              inst.v_minus_star) for inst in instances], axis=1))
        sol = construct_e_star(batch)
        checks = lemma_checks(batch, sol, 1e-9)
        ok = (checks["unit_norm"][1]
              & checks["plus_score_no_worse"][1]
              & checks["minus_score_no_worse"][1])
        is_general = sol.branch == "general"
        general += int(is_general.sum())
        ok &= ~is_general | (checks["minus_score_preserved"][1]
                             & checks["coefficient_constraint"][1])
        failures += int((~ok).sum())
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert general > 5_000  # the closed form covers the bulk of the space
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: lemma suite, 10000 instances, 0 failures, "
          f"{general} closed-form solutions ({elapsed:.1f}s)")


def test_criterion_3_theorem_oracle():
    """Every committed tiny instance: separation-condition input maps attain
    the family-wide risk minimum within 1e-9; zero counterexamples."""
    t0 = time.perf_counter()
    reports = committed_bruteforce_reports()
    elapsed = time.perf_counter() - t0
    for report in reports:
        assert report.satisfying > 0, report.name
        assert report.counterexamples == [], report.name
        assert report.min_over_satisfying <= report.global_min + 1e-9
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: exhaustive optimality oracle, "
          f"{len(reports)} instances, 0 counterexamples ({elapsed:.1f}s)")


def test_criterion_4_proxy_maxima():
    """For each negative-only proxy with the tanh kernel: the all-infimum
    configuration attains the analytic maximum, and 10^4 random in-range
    perturbations never exceed it."""
    t0 = time.perf_counter()
    labels = np.array([0, 0, 1, 1, 2, 2])
    part = proxies.partition_pairs(labels)
    beta = -1.0
    n_neg = part.num_negatives
    at_best = np.where(labels[:, None] != labels[None, :], beta, 1.0)
    attained = {kind: proxies.proxy_value(kind, at_best, part, 1.0, beta)
                for kind in proxies.NEO_KINDS}
    assert attained["nmse-neo"] == 0.0
    assert abs(attained["cts-neo"] - (-np.exp(-1.0))) <= 1e-12
    assert abs(attained["al-neo"] - 1.0 / np.sqrt(n_neg)) <= 1e-12

    rng = np.random.default_rng(4)
    n = len(labels)
    for _ in range(10_000):
        K = rng.uniform(beta, 1.0, (n, n))
        K = (K + K.T) / 2.0
        np.fill_diagonal(K, 1.0)
        for kind, best in attained.items():
            assert proxies.proxy_value(kind, K, part, 1.0, beta) <= best + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: analytic proxy maxima attained and never "
          f"exceeded over 10000 perturbations ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_5_modular_vs_e2e_parity(tmp_path):
    """Both training modes on the 10-class random-label memorization toy
    reach >= 99% train accuracy and agree within 2 points."""
    t0 = time.perf_counter()
    status, report = _report(tmp_path, "modular-vs-e2e")
    elapsed = time.perf_counter() - t0
    metrics = report["metrics"]
    assert metrics["modular_train_accuracy"] >= 0.99, (
        f"stage-1 final proxy {metrics['final_proxy']:.4f} (a collapse onto "
        f"one link direction reads -e = -2.718)")
    assert metrics["e2e_train_accuracy"] >= 0.99
    assert metrics["accuracy_gap"] <= 0.02
    assert status == 0
    assert elapsed < 600.0
    print(f"\nPASS criterion 5: modular {metrics['modular_train_accuracy']:.4f} "
          f"vs e2e {metrics['e2e_train_accuracy']:.4f}, gap "
          f"{metrics['accuracy_gap']:.4f}, stage-1 proxy "
          f"{metrics['final_proxy']:.4f} ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_6_proxy_accuracy_monotonicity(tmp_path):
    """>= 8 input-module checkpoints on separable blobs: Spearman between
    proxy value and best retrained accuracy >= 0.9."""
    t0 = time.perf_counter()
    status, report = _report(tmp_path, "proxy-sweep")
    elapsed = time.perf_counter() - t0
    assert report["metrics"]["checkpoints"] >= 8
    assert report["metrics"]["spearman"] >= 0.9
    assert status == 0
    assert elapsed < 600.0
    print(f"\nPASS criterion 6: proxy/accuracy Spearman "
          f"{report['metrics']['spearman']:.3f} over "
          f"{int(report['metrics']['checkpoints'])} checkpoints ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_7_label_efficiency(tmp_path):
    """One labeled example per class on 4-class blobs reaches >= 95% of the
    full-label test accuracy after pairwise-only input training."""
    t0 = time.perf_counter()
    status, report = _report(tmp_path, "label-efficiency")
    elapsed = time.perf_counter() - t0
    metrics = report["metrics"]
    assert metrics["label_efficiency_ratio"] >= 0.95
    assert status == 0
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: 1-per-class accuracy "
          f"{metrics['smallest_budget_accuracy']:.4f} vs full-label "
          f"{metrics['full_budget_accuracy']:.4f} "
          f"(ratio {metrics['label_efficiency_ratio']:.3f}; {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_8_transferability(tmp_path):
    """Proxy-score ranking of >= 4 overlapping binary tasks matches the
    retrain oracle at Spearman >= 0.8 and < 5% of its wall-clock cost."""
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "transferability.json")
    cfg.resolved["output_dir"] = str(tmp_path / "transfer")
    status = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    report = read_json(tmp_path / "transfer" / "report.json")
    meta = read_json(tmp_path / "transfer" / "metadata.json")
    assert report["metrics"]["candidates"] >= 4
    assert report["metrics"]["spearman"] >= 0.8
    assert meta["cost_ratio"] < 0.05
    assert status == 0
    assert elapsed < 600.0
    print(f"\nPASS criterion 8: transfer Spearman "
          f"{report['metrics']['spearman']:.3f} over "
          f"{int(report['metrics']['candidates'])} candidates at "
          f"{meta['cost_ratio'] * 100:.2f}% of oracle cost ({elapsed:.0f}s)")


def test_criterion_9_kernel_identities():
    """distance^2 == 2 - 2k within 1e-12 over 10^4 pairs, the pair at the
    largest distance at the smallest kernel value; kernel matrices
    PSD within -1e-8 on batches of size <= 8 (independent Jacobi oracle)."""
    t0 = time.perf_counter()
    spec = FeatureMap("tanh")
    rng = np.random.default_rng(9)
    ks, d2s = np.empty(10_000), np.empty(10_000)
    for i in range(10_000):
        u, v = rng.standard_normal((2, 4)) * 2.0
        ks[i] = kernel_eval(spec, u, v)
        d2s[i] = rkhs_distance_sq(spec, u, v)
    worst = float(np.max(np.abs(d2s - (2.0 - 2.0 * ks))))
    assert worst <= 1e-12
    # The distance is largest exactly where the kernel is smallest.
    assert np.argmax(d2s) == np.argmin(ks)

    min_eig = np.inf
    for kind in ("relu", "tanh", "sigmoid"):
        kspec = FeatureMap(kind)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            K = kernel_matrix(kspec, rng.standard_normal((n, 3)))
            min_eig = min(min_eig, float(jacobi_eigenvalues(K)[0]))
    assert min_eig >= -1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 9: distance identity residual {worst:.2e}, "
          f"min eigenvalue {min_eig:.2e} ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    """Rerunning every experiment kind with the same config and seed
    reproduces byte-identical CSV/JSON artifacts."""
    t0 = time.perf_counter()
    from modkernel.config import resolve_config

    def collect(outdir):
        files = {}
        for path in sorted(Path(outdir).rglob("*")):
            if path.is_file() and path.suffix in (".json", ".csv") \
                    and path.name != "metadata.json":
                files[str(path.relative_to(outdir))] = path.read_bytes()
        return files

    for kind, doc in SMALL_CONFIGS.items():
        outdir = tmp_path / kind
        cfg = resolve_config(dict(doc, output_dir=str(outdir)))
        runs = []
        for _ in range(2):
            run_experiment(cfg)
            runs.append(collect(outdir))
        assert runs[0].keys() == runs[1].keys(), kind
        for name in runs[0]:
            assert runs[0][name] == runs[1][name], f"{kind}: {name} differs"
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 10: byte-identical reruns across all "
          f"{len(SMALL_CONFIGS)} experiment kinds ({elapsed:.0f}s)")
