"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria marked with runtime caps assert them.  Monte Carlo thresholds use
three-sigma binomial margins around their nominal rates.
"""

import math
import time
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from nystream import (
    Dataset,
    Dictionary,
    KernelSpec,
    NystromFactor,
    RngHandle,
    AccessAudit,
    batch_exact,
    check_condition,
    deff_increment_exact,
    estimate_deff_increment,
    exact_rls,
    fixed_design_risk,
    generate_synthetic,
    gram,
    ink_estimate_run,
    ink_oracle_run,
    krr_approx,
    monotonicity_audit,
    nystrom_approx,
    psd_order_check,
    risk_ratio_bound,
    shrink_expand,
    spectral_norm,
    suggest_batch_m,
    suggest_q_bar,
)
from nystream.evaluation import SyntheticSpec, checkpoint_selection
from nystream.leverage import estimate_rls_batch
from nystream.nystrom import build_selection
from nystream.cli import main as cli_main

from conftest import KernelReads

GAMMA = 1.0
EPSILON = 0.5
DELTA = 0.1
N = 200


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_kernel(rng):
    pick = rng.integers(0, 3)
    if pick == 0:
        return KernelSpec.gaussian_kernel(float(rng.uniform(0.5, 2.0)))
    if pick == 1:
        return KernelSpec.linear_kernel()
    return KernelSpec.polynomial_kernel(2, float(rng.uniform(0.0, 1.0)))


def random_instance(rng, n_max, n_min=2):
    n = int(rng.integers(n_min, n_max + 1))
    ds = Dataset(points=rng.normal(0.0, 1.2, size=(n, int(rng.integers(1, 4)))))
    return gram(ds, random_kernel(rng))


def random_selection(rng, t):
    q = int(rng.integers(0, t + 1))
    if q == 0:
        return build_selection([], {}, t)
    if rng.integers(0, 2):
        idx = rng.integers(0, t, size=q).tolist()  # multiset
    else:
        idx = rng.choice(t, size=q, replace=False).tolist()
    weights = {int(i): float(rng.uniform(0.2, 2.5)) for i in idx}
    return build_selection(idx, weights, t)


def spectral_form_rls(K, gamma):
    lam, U = np.linalg.eigh((K + K.T) / 2)
    lam = np.clip(lam, 0.0, None)
    return (U**2) @ (lam / (lam + gamma))


@pytest.fixture(scope="module")
def bench():
    """Shared 200-point clustered gaussian benchmark with its exact scores."""
    prob = generate_synthetic(
        SyntheticSpec(n=N, d=2, n_clusters=4, cluster_std=0.35, sigma=0.1), rng=2024
    )
    kern = KernelSpec.gaussian_kernel(1.0)
    K = gram(prob.dataset, kern)
    profile = exact_rls(K, GAMMA)
    checkpoints = (50, 100, 150, 200)
    prefix_deff = {t: exact_rls(K[:t, :t], GAMMA).deff for t in checkpoints}
    return SimpleNamespace(
        prob=prob,
        kern=kern,
        K=K,
        profile=profile,
        checkpoint_steps=checkpoints,
        prefix_deff=prefix_deff,
    )


def test_criterion_01_deterministic_psd_sandwich():
    """0 <= K_tilde <= K on 200 random desk-scale instances."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    failures = 0
    for _ in range(200):
        K = random_instance(rng, 100)
        t = K.shape[0]
        sel = random_selection(rng, t)
        gamma = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        K_tilde = nystrom_approx(K, sel, gamma).materialize()
        ok = psd_order_check(np.zeros_like(K), K_tilde, 1e-7) and psd_order_check(
            K_tilde, K, 1e-7
        )
        failures += not ok
    elapsed = time.perf_counter() - started
    report(
        1,
        failures == 0 and elapsed < 30.0,
        f"PSD sandwich on 200 random instances: {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_02_exact_formula_oracles():
    """Score formula vs. its spectral form; increment formula vs. trace
    differences, across 50 random streams of length 50."""
    rng = np.random.default_rng(202)
    worst_rls = 0.0
    worst_inc = 0.0
    for _ in range(50):
        K = random_instance(rng, 50, n_min=50)
        gamma = float(rng.uniform(0.4, 2.0))
        prev = exact_rls(K[:1, :1], gamma)
        worst_rls = max(
            worst_rls, float(np.max(np.abs(prev.tau - spectral_form_rls(K[:1, :1], gamma))))
        )
        for t in range(1, 50):
            cur = exact_rls(K[: t + 1, : t + 1], gamma)
            gap = np.max(np.abs(cur.tau - spectral_form_rls(K[: t + 1, : t + 1], gamma)))
            worst_rls = max(worst_rls, float(gap))
            delta, xi = deff_increment_exact(K[:t, :t], K[:t, t], float(K[t, t]), gamma)
            worst_inc = max(worst_inc, abs(cur.deff - prev.deff - delta))
            prev = cur
    ok = worst_rls <= 1e-10 and worst_inc <= 1e-8
    report(
        2,
        ok,
        f"spectral-form gap {worst_rls:.2e} (cap 1e-10), "
        f"increment gap {worst_inc:.2e} (cap 1e-8)",
    )


def test_criterion_03_monotonicity_audit():
    """Zero monotonicity violations over 50 seeded random streams."""
    started = time.perf_counter()
    violations = 0
    for seed in range(50):
        prob = generate_synthetic(
            SyntheticSpec(n=30, d=2, n_clusters=3, cluster_std=0.5), rng=seed
        )
        rep = monotonicity_audit(prob.dataset, KernelSpec.gaussian_kernel(1.0), 0.8, 30)
        violations += len(rep.violations)
    elapsed = time.perf_counter() - started
    report(
        3,
        violations == 0 and elapsed < 60.0,
        f"50 audited streams, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_04_estimator_sandwiches():
    """With the sketch equal to the matrix and accuracy parameter zero:
    tau/2 <= tau_est <= tau and delta <= delta_est <= 4(1+rho) delta."""
    rng = np.random.default_rng(404)
    failures = 0
    for _ in range(100):
        K = random_instance(rng, 16, n_min=3)
        gamma = float(rng.uniform(0.4, 2.0))
        t = K.shape[0] - 1
        prof = exact_rls(K, gamma)
        est = estimate_rls_batch(K, K, np.diag(K), gamma, 0.0)
        rls_ok = np.all(est <= prof.tau + 1e-9) and np.all(est >= prof.tau / 2 - 1e-9)
        delta, _ = deff_increment_exact(K[:t, :t], K[:t, t], float(K[t, t]), gamma)
        delta_est = estimate_deff_increment(K[:t, :t], K[:t, t], float(K[t, t]), gamma, 0.0)
        rho = float(np.linalg.eigvalsh(K[:t, :t])[-1]) / gamma
        inc_ok = delta - 1e-9 <= delta_est <= 4 * (1 + rho) * delta + 1e-9
        failures += not (rls_ok and inc_ok)
    report(4, failures == 0, f"two-sided estimator bounds on 100 instances: {failures} failures")


def test_criterion_05_shrink_expand_martingale():
    """Weight chains are unbiased (E[b_out] = b_in) and the 1 -> M chain
    survives with probability exactly 1/M, at Monte Carlo scale 1e5."""
    q_bar = 20
    trials = 100_000
    handle = RngHandle(seed=555)
    worst_detail = []
    ok = True
    for row, (l, l_target) in enumerate(product((1, 2, 4), (2, 5, 10))):
        p = 1.0 / ((l_target - 0.5) * q_bar)
        if l >= l_target:
            # threshold not crossed: the chain must not fire at all
            for trial in range(200):
                d = Dictionary.from_weights({0: l}, q_bar=q_bar)
                out = shrink_expand(d, np.array([p, 1.0]), 1, handle, step=row * trials + trial)
                assert out[0] == l
            continue
        survived = 0
        for trial in range(trials):
            d = Dictionary.from_weights({0: l}, q_bar=q_bar)
            out = shrink_expand(d, np.array([p, 1.0]), 1, handle, step=row * trials + trial)
            if out[0]:
                assert out[0] == l_target
                survived += 1
        rate = survived / trials
        mean_b = l_target * rate
        p_surv = l / l_target
        sigma_mean = l_target * math.sqrt(p_surv * (1 - p_surv) / trials)
        mean_ok = abs(mean_b - l) <= 3 * sigma_mean
        surv_ok = True
        if l == 1:
            sigma_surv = math.sqrt(p_surv * (1 - p_surv) / trials)
            surv_ok = abs(rate - 1.0 / l_target) <= 3 * sigma_surv
        ok = ok and mean_ok and surv_ok
        worst_detail.append(f"l={l}->l'={l_target}: mean {mean_b:.4f}")
    report(5, ok, "unbiased chains at 1e5 trials (" + "; ".join(worst_detail) + ")")


def test_criterion_06_batch_reconstruction(bench):
    """Batch sampling at the prescribed budget satisfies the two-sided
    condition in at least 88% of 200 seeded trials."""
    deff = bench.profile.deff
    m = suggest_batch_m(deff, EPSILON, DELTA, N)
    started = time.perf_counter()
    passed = 0
    for seed in range(200):
        sel, _ = batch_exact(bench.prob.dataset, bench.kern, GAMMA, m, rng=seed)
        rep = check_condition(bench.K, nystrom_approx(bench.K, sel, GAMMA).materialize(), GAMMA, EPSILON)
        passed += rep.lower_psd_ok and rep.upper_psd_ok
    elapsed = time.perf_counter() - started
    rate = passed / 200
    report(
        6,
        rate >= 0.88 and elapsed < 300.0,
        f"batch budget m={m}: condition held in {rate:.1%} of 200 trials, {elapsed:.0f}s",
    )


def test_criterion_07_ink_oracle(bench):
    """Streaming with the exact oracle at the prescribed budget: the
    condition holds at every checkpoint in >=88% of 100 trials and the
    dictionary never exceeds eight times the budget."""
    deff = bench.profile.deff
    q_bar = suggest_q_bar(deff, EPSILON, DELTA, N)
    started = time.perf_counter()
    cond_trials = 0
    size_ok = True
    for seed in range(100):
        res = ink_oracle_run(
            bench.prob.dataset, bench.kern, GAMMA, q_bar, rng=seed, checkpoint_every=1
        )
        size_ok = size_ok and all(cp.dict_size <= 8 * q_bar for cp in res.checkpoints)
        all_hold = True
        for cp in res.checkpoints:
            if cp.step not in bench.checkpoint_steps:
                continue
            sel = checkpoint_selection(cp, "ink-oracle")
            K_t = bench.K[: cp.step, : cp.step]
            rep = check_condition(
                K_t, nystrom_approx(K_t, sel, GAMMA).materialize(), GAMMA, EPSILON
            )
            all_hold = all_hold and rep.lower_psd_ok and rep.upper_psd_ok
        cond_trials += all_hold
    elapsed = time.perf_counter() - started
    rate = cond_trials / 100
    report(
        7,
        rate >= 0.88 and size_ok and elapsed < 600.0,
        f"q_bar={q_bar}: condition at all checkpoints in {rate:.0%} of trials, "
        f"size cap respected: {size_ok}, {elapsed:.0f}s",
    )


def test_criterion_08_ink_estimate(bench):
    """End-to-end estimator-driven runs: the dimension estimate dominates
    the exact value at every checkpoint, the size cap holds, and the final
    spectral gap is within gamma/(1-eps) in >=88% of 100 trials."""
    deff = bench.profile.deff
    q_bar = suggest_q_bar(deff, EPSILON, DELTA, N)
    started = time.perf_counter()
    deff_ok = True
    size_ok = True
    gap_passed = 0
    for seed in range(100):
        res = ink_estimate_run(
            bench.prob.dataset, bench.kern, GAMMA, q_bar, EPSILON,
            rng=seed, checkpoint_every=50,
        )
        for cp in res.checkpoints:
            size_ok = size_ok and cp.dict_size <= 8 * q_bar
            deff_ok = deff_ok and cp.deff_tilde >= bench.prefix_deff[cp.step] - 1e-9
        final = res.checkpoints[-1]
        sel = checkpoint_selection(final, "ink-estimate")
        gap = spectral_norm(bench.K - nystrom_approx(bench.K, sel, GAMMA).materialize())
        gap_passed += gap <= GAMMA / (1 - EPSILON)
    elapsed = time.perf_counter() - started
    rate = gap_passed / 100
    report(
        8,
        deff_ok and size_ok and rate >= 0.88,
        f"dimension estimate dominated truth: {deff_ok}, size cap: {size_ok}, "
        f"final gap within bound in {rate:.0%} of trials, {elapsed:.0f}s",
    )


def test_criterion_09_risk_ratio():
    """Wherever the reconstruction condition is confirmed, the approximate
    closed-form risk stays within the guaranteed factor of the exact one."""
    confirmed = 0
    holds = 0
    bound = risk_ratio_bound(GAMMA, 1.0, EPSILON)
    for seed in range(20):
        prob = generate_synthetic(
            SyntheticSpec(n=100, d=2, n_clusters=3, cluster_std=0.4, sigma=0.2, mu=1.0),
            rng=seed,
        )
        kern = KernelSpec.gaussian_kernel(1.0)
        K = gram(prob.dataset, kern)
        profile = exact_rls(K, GAMMA)
        m = suggest_batch_m(profile.deff, EPSILON, DELTA, 100)
        sel, _ = batch_exact(prob.dataset, kern, GAMMA, m, rng=seed)
        K_tilde = nystrom_approx(K, sel, GAMMA).materialize()
        rep = check_condition(K, K_tilde, GAMMA, EPSILON)
        if not (rep.lower_psd_ok and rep.upper_psd_ok):
            continue
        confirmed += 1
        risk_exact = fixed_design_risk(K, prob)
        risk_approx = fixed_design_risk(K_tilde, prob)
        holds += risk_approx <= bound * risk_exact + 1e-8
    report(
        9,
        confirmed > 0 and holds == confirmed,
        f"risk factor {bound:.1f} held in {holds}/{confirmed} confirmed instances",
    )


def test_criterion_10_solver_equivalence():
    """Factored and dense ridge solvers agree to 1e-8 relative; the empty
    dictionary returns y/mu exactly."""
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        K = random_instance(rng, 30, n_min=2)
        t = K.shape[0]
        sel = random_selection(rng, t)
        gamma = float(rng.uniform(0.3, 2.0))
        mu = float(rng.uniform(0.3, 2.0))
        y = rng.normal(size=t)
        factor = nystrom_approx(K, sel, gamma)
        dense = np.linalg.solve(factor.materialize() + mu * np.eye(t), y)
        got = krr_approx(factor, mu, y)
        worst = max(worst, float(np.linalg.norm(got - dense) / np.linalg.norm(dense)))
    y = rng.normal(size=9)
    empty = NystromFactor(cross=np.zeros((9, 0)), sampled=np.zeros((0, 0)), gamma=1.0)
    exact_empty = np.array_equal(krr_approx(empty, 2.0, y), y / 2.0)
    report(
        10,
        worst <= 1e-8 and exact_empty,
        f"worst relative solver disagreement {worst:.2e}; empty case exact: {exact_empty}",
    )


def test_criterion_11_single_pass_and_determinism(bench, tmp_path, monkeypatch):
    """Instrumented streaming run touches each element once and only pairs
    new points with live dictionary members (the exact oracle, which reads
    every earlier point, must fail that check); the CLI is byte-stable."""
    runs = {
        "ink-estimate": lambda audit: ink_estimate_run(
            bench.prob.dataset, bench.kern, GAMMA, 50, EPSILON,
            rng=9, checkpoint_every=1, audit=audit,
        ),
        "ink-oracle": lambda audit: ink_oracle_run(
            bench.prob.dataset, bench.kern, GAMMA, 50, rng=9, checkpoint_every=1, audit=audit,
        ),
    }
    consumed_once, non_live = True, {}
    for algorithm, run in runs.items():
        audit = AccessAudit()
        with monkeypatch.context() as patch:
            reads = KernelReads(patch, bench.prob.dataset.points, audit)
            res = run(audit)
        consumed_once &= audit.points_consumed == list(range(N))
        assert len(reads.calls) >= N  # a kernel call per step at least: the check is not vacuous
        live = {0: frozenset()}
        for cp in res.checkpoints:
            live[cp.step] = frozenset(cp.indices)
        non_live[algorithm] = reads.non_live_pairs(live)
    pairs_ok = non_live["ink-estimate"] == 0 and non_live["ink-oracle"] > 0

    data = tmp_path / "bench.csv"
    rows = np.column_stack([bench.prob.dataset.points, bench.prob.dataset.labels])
    np.savetxt(data, rows, delimiter=",")
    out = tmp_path / "out"
    argv = [
        "run", "--algorithm", "ink-estimate", "--kernel", "gaussian",
        "--bandwidth", "1.0", "--gamma", "1.0", "--epsilon", "0.5",
        "--budget", "300", "--seed", "13", "--checkpoint-every", "50",
        "--input", str(data), "--output", str(out),
    ]
    assert cli_main(argv) == 0
    first_json = (out / "checkpoints.json").read_text()
    first_csv = (out / "metrics.csv").read_bytes()
    assert cli_main(argv) == 0
    second_json = (out / "checkpoints.json").read_text()
    second_csv = (out / "metrics.csv").read_bytes()

    def strip(text):
        return "\n".join(l for l in text.splitlines() if '"generated_at"' not in l)

    deterministic = strip(first_json) == strip(second_json) and first_csv == second_csv
    report(
        11,
        consumed_once and pairs_ok and deterministic,
        f"single consumption: {consumed_once}, live-only kernel queries: {pairs_ok} "
        f"(non-live pairs: ink-estimate {non_live['ink-estimate']}, exact oracle {non_live['ink-oracle']}), "
        f"byte-stable reruns: {deterministic}",
    )
