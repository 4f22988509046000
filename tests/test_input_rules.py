"""The numeric input rules of ``nystream.errors`` at every public entry
point that takes a ruled parameter: inf, -inf, NaN and the first value past
each rule's boundary raise ``InputError`` naming the parameter, before any
kernel evaluation."""

import math
import re

import numpy as np
import pytest

from nystream import (
    Dataset,
    Dictionary,
    EstimateOracle,
    ExactOracle,
    FixedDesignProblem,
    InputError,
    KernelSpec,
    NumericalError,
    NystromFactor,
    RngHandle,
    RunCheckpoint,
    Selection,
    SyntheticSpec,
    alpha_factor,
    batch_exact,
    beta_factor,
    check_condition,
    deff_increment_exact,
    direct_sample,
    estimate_deff_increment,
    evaluation,
    exact_rls,
    generate_synthetic,
    ink_estimate_run,
    ink_oracle_run,
    initial_state,
    kernels,
    krr_approx,
    load_csv,
    monotonicity_audit,
    nystrom_approx,
    pipeline,
    psi_gap,
    rebuild_factor,
    regularized_solve,
    risk_ratio_bound,
    suggest_batch_m,
    suggest_q_bar,
    update_deff,
    verify_checkpoints,
)
from nystream.leverage import estimate_rls_batch

INF, NAN = math.inf, math.nan
# The values each rule rejects: inf, -inf, NaN and the first value past its
# boundary (the smallest negative double below a closed 0).
REJECTED = {
    "positive": (INF, -INF, NAN, 0.0),
    "non_negative": (INF, -INF, NAN, -5e-324),
    "open_unit": (INF, -INF, NAN, 0.0, 1.0),
    "half_open_unit": (INF, -INF, NAN, -5e-324, 1.0),
    "positive_int": (INF, -INF, NAN, 0, 2.5),
    # positive's values, then the bandwidths where 2.0 * bandwidth**2 overflows or is 0
    "gaussian_bandwidth": (INF, -INF, NAN, 0.0, 1e200, 1e-170),
}
ACCEPTED = {
    "positive": 0.5, "non_negative": 0.0, "open_unit": 0.5, "half_open_unit": 0.0, "positive_int": 2,
    "gaussian_bandwidth": 0.5,
}

DS = Dataset(points=[[0.0, 1.0], [1.0, 0.5], [0.3, -0.2], [1.2, 0.4]])
GAUSS = KernelSpec.gaussian_kernel(1.0)
K = np.array([[2.0, 0.5], [0.5, 1.0]])
FACTOR = NystromFactor(cross=K, sampled=K, gamma=1.0)
SEL = Selection([0], [1.0], 2)
CP = RunCheckpoint(step=4, deff_tilde=1.0, indices=(0,), weights=(1.0,))
PROBLEM = FixedDesignProblem(dataset=DS, f_star=np.zeros(4), noise_std=0.1, mu=1.0)

# (entry point, parameter name in the message, rule, call with the value)
ENTRY_POINTS = [
    ("KernelSpec.gaussian_kernel", "bandwidth", "gaussian_bandwidth", lambda v: KernelSpec.gaussian_kernel(v)),
    ("KernelSpec.polynomial_kernel", "degree", "positive_int", lambda v: KernelSpec.polynomial_kernel(v, 1.0)),
    ("KernelSpec.polynomial_kernel", "offset", "non_negative", lambda v: KernelSpec.polynomial_kernel(2, v)),
    ("alpha_factor", "epsilon", "half_open_unit", lambda v: alpha_factor(v)),
    ("beta_factor", "epsilon", "half_open_unit", lambda v: beta_factor(v, 1.0)),
    ("beta_factor", "rho", "non_negative", lambda v: beta_factor(0.5, v)),
    ("exact_rls", "gamma", "positive", lambda v: exact_rls(K, v)),
    ("estimate_rls_batch", "gamma", "positive", lambda v: estimate_rls_batch(K, K, np.diag(K), v, 0.5)),
    ("estimate_rls_batch", "epsilon", "half_open_unit", lambda v: estimate_rls_batch(K, K, np.diag(K), 1.0, v)),
    ("deff_increment_exact", "gamma", "positive", lambda v: deff_increment_exact(K, [0.1, 0.2], 1.0, v)),
    ("estimate_deff_increment", "gamma", "positive", lambda v: estimate_deff_increment(K, [0.1, 0.2], 1.0, v, 0.5)),
    ("estimate_deff_increment", "epsilon", "half_open_unit",
     lambda v: estimate_deff_increment(K, [0.1, 0.2], 1.0, 1.0, v)),
    ("update_deff", "running estimate deff_tilde", "non_negative", lambda v: update_deff(v, 0.1, 0.5)),
    ("update_deff", "epsilon", "half_open_unit", lambda v: update_deff(1.0, 0.1, v)),
    ("regularized_solve", "ridge", "positive", lambda v: regularized_solve(K, v, np.ones(2))),
    ("NystromFactor", "gamma", "positive", lambda v: NystromFactor(cross=K, sampled=K, gamma=v)),
    ("nystrom_approx", "gamma", "positive", lambda v: nystrom_approx(K, SEL, v)),
    ("krr_approx", "mu", "positive", lambda v: krr_approx(FACTOR, v, np.ones(2))),
    ("Dictionary.from_weights", "q_bar", "positive_int", lambda v: Dictionary.from_weights({}, v)),
    ("initial_state", "q_bar", "positive_int", lambda v: initial_state(v, RngHandle(0), GAUSS, 2)),
    ("ExactOracle", "gamma", "positive", lambda v: ExactOracle(DS, GAUSS, v)),
    ("EstimateOracle", "gamma", "positive", lambda v: EstimateOracle(v, 0.5)),
    ("EstimateOracle", "epsilon", "open_unit", lambda v: EstimateOracle(1.0, v)),
    ("ink_oracle_run", "gamma", "positive", lambda v: ink_oracle_run(DS, GAUSS, v, 10)),
    ("ink_oracle_run", "q_bar", "positive_int", lambda v: ink_oracle_run(DS, GAUSS, 1.0, v)),
    ("ink_oracle_run", "checkpoint_every", "positive_int",
     lambda v: ink_oracle_run(DS, GAUSS, 1.0, 10, checkpoint_every=v)),
    ("ink_estimate_run", "gamma", "positive", lambda v: ink_estimate_run(DS, GAUSS, v, 10, 0.5)),
    ("ink_estimate_run", "q_bar", "positive_int", lambda v: ink_estimate_run(DS, GAUSS, 1.0, v, 0.5)),
    ("ink_estimate_run", "epsilon", "open_unit", lambda v: ink_estimate_run(DS, GAUSS, 1.0, 10, v)),
    ("ink_estimate_run", "checkpoint_every", "positive_int",
     lambda v: ink_estimate_run(DS, GAUSS, 1.0, 10, 0.5, checkpoint_every=v)),
    ("batch_exact", "gamma", "positive", lambda v: batch_exact(DS, GAUSS, v, 10)),
    ("batch_exact", "m", "positive_int", lambda v: batch_exact(DS, GAUSS, 1.0, v)),
    ("suggest_batch_m", "deff", "positive", lambda v: suggest_batch_m(v, 0.5, 0.1, 100)),
    ("suggest_batch_m", "epsilon", "open_unit", lambda v: suggest_batch_m(5.0, v, 0.1, 100)),
    ("suggest_batch_m", "delta", "open_unit", lambda v: suggest_batch_m(5.0, 0.5, v, 100)),
    ("suggest_batch_m", "n", "positive_int", lambda v: suggest_batch_m(5.0, 0.5, 0.1, v)),
    ("suggest_q_bar", "deff", "positive", lambda v: suggest_q_bar(v, 0.5, 0.1, 100)),
    ("suggest_q_bar", "epsilon", "open_unit", lambda v: suggest_q_bar(5.0, v, 0.1, 100)),
    ("suggest_q_bar", "delta", "open_unit", lambda v: suggest_q_bar(5.0, 0.5, v, 100)),
    ("suggest_q_bar", "n", "positive_int", lambda v: suggest_q_bar(5.0, 0.5, 0.1, v)),
    ("FixedDesignProblem", "noise_std", "non_negative",
     lambda v: FixedDesignProblem(dataset=DS, f_star=np.zeros(4), noise_std=v, mu=1.0)),
    ("FixedDesignProblem", "mu", "positive",
     lambda v: FixedDesignProblem(dataset=DS, f_star=np.zeros(4), noise_std=0.1, mu=v)),
    ("generate_synthetic", "n", "positive_int",
     lambda v: generate_synthetic(SyntheticSpec(n=v, d=2, n_clusters=2, cluster_std=0.5), 0)),
    ("check_condition", "gamma", "positive", lambda v: check_condition(K, K, v, 0.5)),
    ("check_condition", "epsilon", "half_open_unit", lambda v: check_condition(K, K, 1.0, v)),
    ("psi_gap", "gamma", "positive", lambda v: psi_gap(K, SEL, v)),
    ("risk_ratio_bound", "gamma", "positive", lambda v: risk_ratio_bound(v, 1.0, 0.5)),
    ("risk_ratio_bound", "mu", "positive", lambda v: risk_ratio_bound(1.0, v, 0.5)),
    ("risk_ratio_bound", "epsilon", "half_open_unit", lambda v: risk_ratio_bound(1.0, 1.0, v)),
    ("monotonicity_audit", "gamma", "positive", lambda v: monotonicity_audit(DS, GAUSS, v, 4)),
    ("rebuild_factor", "gamma", "positive", lambda v: rebuild_factor(DS, GAUSS, Selection([0], [1.0], 4), v)),
    ("verify_checkpoints", "gamma", "positive",
     lambda v: verify_checkpoints(DS, GAUSS, v, 0.5, [CP], "ink-estimate", problem=PROBLEM)),
    ("verify_checkpoints", "epsilon", "half_open_unit",
     lambda v: verify_checkpoints(DS, GAUSS, 1.0, v, [CP], "ink-estimate", problem=PROBLEM)),
]

CASES = [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value}")
    for entry, name, rule, call in ENTRY_POINTS
    for value in REJECTED[rule]
]


@pytest.fixture
def no_kernel_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel evaluated before the input rules were checked")

    for module in (kernels, pipeline, evaluation):
        for name in ("gram", "pairwise"):
            monkeypatch.setattr(module, name, refuse, raising=False)


@pytest.mark.parametrize("call, name, value", CASES)
def test_rule_rejects_non_finite_and_boundary_values(no_kernel_work, call, name, value):
    with pytest.raises(InputError, match=rf"^{name} must .*, got {re.escape(str(value))}$"):
        call(value)


@pytest.mark.parametrize("rule, call", [pytest.param(r, c, id=f"{e}-{n}") for e, n, r, c in ENTRY_POINTS])
def test_rule_accepts_a_valid_value(rule, call):
    """Each call above runs with a value inside its rule, so the rejections
    come from the rule and not from another argument."""
    call(ACCEPTED[rule])


@pytest.mark.parametrize("p", [[0.5, NAN], [0.5, INF], [1.5, -0.5], [0.5, 0.4], []])
def test_probability_vector_rule(p):
    with pytest.raises(InputError, match="probabilities must be finite, non-negative and sum to 1"):
        direct_sample(p, 3, np.random.default_rng(0))


@pytest.mark.parametrize("alpha, beta", [(INF, 1.0), (1.0, NAN), (0.5, 1.0)])
def test_approximation_factors_must_be_finite_and_at_least_1(alpha, beta):
    with pytest.raises(InputError, match="approximation factors must be finite and at least 1"):
        suggest_q_bar(5.0, 0.5, 0.1, 100, alpha, beta)


def test_integral_counts_and_large_finite_values_pass():
    """3.0 counts as an integer; the rules bound nothing but the range."""
    assert Dictionary.from_weights({}, 3.0).q_bar == 3.0
    assert exact_rls(K, 1e300).deff < 1e-290
    assert suggest_batch_m(1.0, 0.5, 0.1, 10**30) > 0


class TestZeroFeatures:
    def test_dataset_without_features_rejected(self):
        with pytest.raises(InputError, match=r"n, d >= 1, got shape \(4, 0\)"):
            Dataset(points=np.zeros((4, 0)))

    def test_label_only_csv_names_the_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1.0\n2.0\n3.0\n4.0\n")
        with pytest.raises(InputError, match=rf"^{path}: dataset needs .* got shape \(4, 0\)"):
            load_csv(path)


class TestZeroKernelMass:
    """All-zero points under the linear kernel: effective dimension 0."""

    def test_batch_exact_names_the_empty_effective_dimension(self):
        with pytest.raises(InputError, match="effective dimension 0"):
            batch_exact(Dataset(points=np.zeros((6, 2))), KernelSpec.linear_kernel(), 1.0, 5)

    def test_direct_sample_rejects_nan_probabilities(self):
        p = exact_rls(np.zeros((6, 6)), 1.0).probabilities
        with pytest.raises(InputError, match="got minimum nan and sum nan"):
            direct_sample(p, 5, np.random.default_rng(0))

    def test_streaming_runs_keep_nothing(self):
        ds, linear = Dataset(points=np.zeros((6, 2))), KernelSpec.linear_kernel()
        for result in (ink_oracle_run(ds, linear, 1.0, 5), ink_estimate_run(ds, linear, 1.0, 5, 0.5)):
            assert result.checkpoints[-1].dict_size == 0 and result.deff_tilde == 0.0


class TestRunGammaIsTheOracles:
    """The scores and deff_tilde are the oracle's, the final factor and the
    rho proxy the run's: both must be at one ridge."""

    @pytest.mark.parametrize("oracle", [lambda: EstimateOracle(0.01, 0.5), lambda: ExactOracle(DS, GAUSS, 0.01)],
                             ids=["estimate", "exact"])
    def test_an_oracle_at_another_gamma_is_rejected_before_kernel_work(self, no_kernel_work, oracle):
        with pytest.raises(InputError, match=r"^the run's gamma 0\.1 differs from its oracle's gamma 0\.01: "):
            ink_oracle_run(DS, GAUSS, 0.1, 50, oracle())

    def test_an_oracle_without_a_gamma_runs_at_the_runs(self):
        class Oracle:
            def begin_step(self, state, new_index, cross, self_term):
                return np.ones(state.dictionary.size + 1), 1.0

        assert ink_oracle_run(DS, GAUSS, 0.1, 50, Oracle()).gamma == 0.1
        assert ink_oracle_run(DS, GAUSS, 1, 50, EstimateOracle(1.0, 0.5)).gamma == 1


def test_kept_column_with_zero_score_estimate_names_step_index_and_score():
    """At a ridge of 1e-10 the estimator clamps a kept column's score to 0
    at step 35; the exact oracle runs the same stream to the end.  Where the
    clamp first hits depends on rounding in the sketch."""
    problem = generate_synthetic(SyntheticSpec(n=400, d=3, n_clusters=4, cluster_std=0.5), 1)
    kernel = KernelSpec.gaussian_kernel(2.0)
    with pytest.raises(NumericalError, match=r"^step 35: retained index 2 got leverage score 0\.0 \(clamped at 0\), so sampling probability 0\.0;"):
        ink_estimate_run(problem.dataset, kernel, 1e-10, 200, 0.5, rng=1)
    assert ink_oracle_run(problem.dataset, kernel, 1e-10, 200, rng=1).checkpoints[-1].step == 400


@pytest.mark.parametrize("score", [0.0, -0.5, NAN])
def test_kept_column_without_a_positive_probability_fails_in_ink_step(score):
    """Any oracle: a kept column's score that gives it no positive sampling
    probability stops the step before the chains run."""

    class Oracle:
        def begin_step(self, state, new_index, cross, self_term):
            return np.append(np.full(state.dictionary.size, score), 1.0), 1.0

    with pytest.raises(NumericalError, match=rf"^step 2: retained index 0 got leverage score {score} "):
        ink_oracle_run(DS, GAUSS, 1.0, 10, Oracle())
