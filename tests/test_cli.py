import json
import math
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nystream import KernelSpec, SyntheticSpec, batch_exact, evaluation, generate_synthetic
from nystream.cli import RunConfig, main
from nystream.kernels import DESK_SCALE_CAP, load_csv
import nystream.cli as cli_mod


@pytest.fixture
def data_csv(tmp_path):
    prob = generate_synthetic(
        SyntheticSpec(n=60, d=2, n_clusters=3, cluster_std=0.4), rng=5
    )
    path = tmp_path / "data.csv"
    rows = np.column_stack([prob.dataset.points, prob.dataset.labels])
    np.savetxt(path, rows, delimiter=",")
    return path


def run_args(data, out, **overrides):
    base = {
        "--algorithm": "ink-estimate",
        "--kernel": "gaussian",
        "--bandwidth": "1.0",
        "--gamma": "1.0",
        "--epsilon": "0.5",
        "--budget": "500",
        "--seed": "7",
        "--checkpoint-every": "20",
        "--input": str(data),
        "--output": str(out),
    }
    base.update(overrides)
    argv = ["run"]
    for key, val in base.items():
        argv += [key, val]
    return argv


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


class TestRun:
    def test_outputs_and_schema(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out)) == 0
        payload = json.loads((out / "checkpoints.json").read_text())
        assert payload["spec_version"] == "1"
        assert payload["config_echo"]["algorithm"] == "ink-estimate"
        assert payload["config_echo"]["seed"] == 7
        cps = payload["checkpoints"]
        assert [cp["t"] for cp in cps] == [20, 40, 60]
        for cp in cps:
            assert min(cp["dictionary_indices"]) >= 1  # 1-based on the wire
            assert len(cp["dictionary_indices"]) == cp["Q_t"]
            assert len(cp["weights"]) == cp["Q_t"]
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "t,Q_t,deff_tilde"
        assert len(metrics) == 4

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(run_args(data_csv, out1)) == 0
        assert main(run_args(data_csv, out2)) == 0
        a = strip_timestamp((out1 / "checkpoints.json").read_text())
        b = strip_timestamp((out2 / "checkpoints.json").read_text())
        # config_echo contains the output path, which differs by design
        a = a.replace(str(out1), "OUT")
        b = b.replace(str(out2), "OUT")
        assert a == b
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_batch_exact_single_checkpoint(self, data_csv, tmp_path):
        """The one checkpoint is exactly the library's batch selection and
        exact effective dimension."""
        out = tmp_path / "out"
        # --m is an accepted alias for the batch budget
        argv = run_args(data_csv, out, **{"--algorithm": "batch-exact"})
        i = argv.index("--budget")
        argv[i] = "--m"
        argv[i + 1] = "40"
        assert main(argv) == 0
        payload = json.loads((out / "checkpoints.json").read_text())
        assert payload["config_echo"]["budget"] == 40
        (cp,) = payload["checkpoints"]
        selection, deff = batch_exact(load_csv(data_csv), KernelSpec.gaussian_kernel(1.0), 1.0, 40, rng=7)
        assert cp["t"] == selection.t == 60
        assert cp["dictionary_indices"] == [i + 1 for i in selection.indices.tolist()]
        assert cp["weights"] == selection.weights.tolist()
        assert cp["deff_tilde"] == deff
        assert cp["Q_t"] == np.unique(selection.indices).size

    def test_batch_past_the_cap_exits_1(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        np.savetxt(path, np.zeros((DESK_SCALE_CAP + 1, 3)), delimiter=",")
        out = tmp_path / "out"
        assert main(run_args(path, out, **{"--algorithm": "batch-exact"})) == 1
        assert f"capped at {DESK_SCALE_CAP} points" in capsys.readouterr().err
        assert not out.exists()

    def test_run_with_verify_flag(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = run_args(data_csv, out, **{"--budget": "2000"}) + ["--verify"]
        assert main(argv) == 0
        assert (out / "condition_reports.csv").exists()
        assert "verification passed" in capsys.readouterr().out

    def test_missing_input_is_config_error(self, tmp_path):
        code = main(run_args(tmp_path / "absent.csv", tmp_path / "out"))
        assert code == 1

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.1\noops,4.0,0.2\n")
        code = main(run_args(path, tmp_path / "out"))
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_1(self, data_csv, tmp_path, capsys, seed):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out, **{"--seed": seed})) == 1
        assert f"error: seed {seed} is outside [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_violation_maps_to_exit_2(self, data_csv, tmp_path, monkeypatch):
        from nystream.errors import InvariantViolation

        def boom(cfg):
            raise InvariantViolation("cap breach")

        monkeypatch.setattr(cli_mod, "_execute_run", boom)
        assert main(run_args(data_csv, tmp_path / "out")) == 2

    @pytest.mark.parametrize(
        "raised, message",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
             "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_failed_allocation_exits_1_and_writes_nothing(self, data_csv, tmp_path, capsys, monkeypatch,
                                                          raised, message):
        """A budget whose allocation fails (batch-exact's m draws) is an
        error line and exit 1, not a traceback."""

        def no_memory(*args, **kwargs):
            raise raised

        monkeypatch.setattr(cli_mod, "batch_exact", no_memory)
        out = tmp_path / "out"
        assert main(run_args(data_csv, out, **{"--algorithm": "batch-exact"})) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestVerify:
    def test_healthy_run_passes(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out, **{"--budget": "2000"})) == 0
        assert main(["verify", "--run-dir", str(out)]) == 0
        assert (out / "condition_reports.csv").exists()
        payload = json.loads((out / "condition_reports.json").read_text())
        assert payload["spec_version"] == "1"

    def test_designed_failure_budget_one(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out, **{"--budget": "1"})) == 0
        assert main(["verify", "--run-dir", str(out)]) == 2

    def test_batch_run_roundtrip(self, data_csv, tmp_path):
        out = tmp_path / "out"
        argv = run_args(data_csv, out, **{"--algorithm": "batch-exact", "--budget": "200"})
        assert main(argv) == 0
        assert main(["verify", "--run-dir", str(out)]) == 0

    def test_verify_is_deterministic(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out, **{"--budget": "2000"})) == 0
        assert main(["verify", "--run-dir", str(out)]) == 0
        first = (out / "condition_reports.csv").read_bytes()
        assert main(["verify", "--run-dir", str(out)]) == 0
        assert (out / "condition_reports.csv").read_bytes() == first

    def test_input_shorter_than_the_run_exits_1_before_kernel_work(self, tmp_path, capsys, monkeypatch):
        prob = generate_synthetic(SyntheticSpec(n=400, d=2, n_clusters=3, cluster_std=0.4), rng=5)
        rows = np.column_stack([prob.dataset.points, prob.dataset.labels])
        full, prefix = tmp_path / "full.csv", tmp_path / "prefix.csv"
        np.savetxt(full, rows, delimiter=",")
        np.savetxt(prefix, rows[:300], delimiter=",")
        out = tmp_path / "out"
        assert main(run_args(full, out, **{"--budget": "100", "--checkpoint-every": "50"})) == 0

        def no_kernel_work(*args, **kwargs):
            raise AssertionError("gram evaluated before every checkpoint was checked")

        monkeypatch.setattr(evaluation, "gram", no_kernel_work)
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out), "--input", str(prefix)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint t=350 " in err
        assert f"{out / 'checkpoints.json'} with --input {prefix}: " in err
        assert not (out / "condition_reports.csv").exists()

    def test_missing_run_dir(self, tmp_path):
        assert main(["verify", "--run-dir", str(tmp_path)]) == 1

    def test_rerun_clears_the_earlier_run_reports(self, data_csv, tmp_path):
        """Reports left by verifying an earlier run describe checkpoints the
        rerun replaces, so the rerun removes them."""
        out = tmp_path / "out"
        assert main(run_args(data_csv, out) + ["--verify"]) == 0
        assert (out / "condition_reports.csv").exists() and (out / "condition_reports.json").exists()
        assert main(run_args(data_csv, out, **{"--seed": "8"})) == 0
        assert json.loads((out / "checkpoints.json").read_text())["config_echo"]["seed"] == 8
        assert not (out / "condition_reports.csv").exists()
        assert not (out / "condition_reports.json").exists()


class TestSuggestBudget:
    def test_estimate_formula(self, capsys):
        assert main([
            "suggest-budget", "--deff", "12", "--epsilon", "0.5",
            "--delta", "0.1", "--n", "1000",
        ]) == 0
        out = capsys.readouterr().out
        alpha = 3.0
        beta = alpha**2 * (1 + 1.0)
        want = math.ceil((28 * alpha * beta * 12 / 0.25) * math.log(4 * 1000 / 0.1))
        assert f"q_bar = {want}" in out

    def test_exact_oracle_formula(self, capsys):
        assert main([
            "suggest-budget", "--algorithm", "ink-oracle", "--deff", "12",
            "--epsilon", "0.5", "--delta", "0.1", "--n", "1000",
        ]) == 0
        want = math.ceil((28 * 12 / 0.25) * math.log(4 * 1000 / 0.1))
        assert f"q_bar = {want}" in capsys.readouterr().out

    def test_batch_formula(self, capsys):
        assert main([
            "suggest-budget", "--algorithm", "batch-exact", "--deff", "10",
            "--epsilon", "0.5", "--delta", "0.1", "--n", "200",
        ]) == 0
        want = math.ceil((2 * 10 / 0.25) * math.log(200 / 0.1))
        assert f"m = {want}" in capsys.readouterr().out


class TestConfigPrecedence:
    def test_file_env_flag_order(self, data_csv, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"gamma": 3.0, "epsilon": 0.25, "seed": 1}))
        monkeypatch.setenv("NYSTREAM_EPSILON", "0.75")
        out = tmp_path / "out"
        argv = run_args(data_csv, out, **{"--config": str(cfgfile)})
        # remove the explicit gamma/epsilon flags so file+env win for them
        for flag in ("--gamma", "--epsilon", "--seed"):
            i = argv.index(flag)
            del argv[i : i + 2]
        argv += ["--seed", "9"]
        assert main(argv) == 0
        echo = json.loads((out / "checkpoints.json").read_text())["config_echo"]
        assert echo["gamma"] == 3.0  # from file
        assert echo["epsilon"] == 0.75  # env beats file
        assert echo["seed"] == 9  # flag beats both

    def test_unknown_config_key_rejected(self, data_csv, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"not_a_key": 1}))
        assert main(run_args(data_csv, tmp_path / "out", **{"--config": str(cfgfile)})) == 1

    def test_unknown_kernel_in_config_file(self, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kernel": "laplacian"}))
        argv = run_args(data_csv, tmp_path / "out", **{"--config": str(cfgfile)})
        i = argv.index("--kernel")
        del argv[i : i + 2]
        assert main(argv) == 1
        assert "laplacian" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("DATA_FORMAT", "libsvn"), ("KERNEL", "laplacian")])
    def test_unknown_choice_in_env_rejected(self, data_csv, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.setenv("NYSTREAM_" + key, value)
        argv = run_args(data_csv, tmp_path / "out")
        i = argv.index("--kernel")
        del argv[i : i + 2]
        assert main(argv) == 1
        assert repr(value) in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoints.json").exists()


class TestSweep:
    def test_two_seeds(self, data_csv, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--seeds", "3:5"] + run_args(data_csv, out)[1:]
        assert main(argv) == 0
        for seed in (3, 4):
            assert (out / f"seed-{seed}" / "checkpoints.json").exists()
        a = json.loads((out / "seed-3" / "checkpoints.json").read_text())
        b = json.loads((out / "seed-4" / "checkpoints.json").read_text())
        assert a["config_echo"]["seed"] == 3
        assert b["config_echo"]["seed"] == 4

    def test_verify_flag_verifies_each_seed(self, data_csv, tmp_path, capsys):
        """``sweep --verify`` writes each seed's condition reports and prints
        the verdict on that seed's line; a failed condition is not a failed
        seed, so the sweep exits 0."""
        out = tmp_path / "sweep"
        argv = ["sweep", "--seeds", "3:5", "--verify"] + run_args(data_csv, out, **{"--budget": "1"})[1:]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        for seed in (3, 4):
            payload = json.loads((out / f"seed-{seed}" / "condition_reports.json").read_text())
            assert payload["config_echo"]["seed"] == seed
            assert f"seed {seed}: ok (3 checkpoints), verification FAILED (reports written)" in lines

    def test_two_jobs_write_what_one_job_writes(self, data_csv, tmp_path):
        """The worker-process path: each seed's files are byte-identical to
        a one-job sweep's, apart from the time stamp and the output path."""
        for jobs in ("1", "2"):
            argv = ["sweep", "--seeds", "3:5", "--jobs", jobs] + run_args(data_csv, tmp_path / f"jobs-{jobs}")[1:]
            assert main(argv) == 0
        for seed in (3, 4):
            one, two = (tmp_path / f"jobs-{jobs}" / f"seed-{seed}" for jobs in ("1", "2"))
            assert (one / "metrics.csv").read_bytes() == (two / "metrics.csv").read_bytes()
            texts = []
            for run in (one, two):
                text = strip_timestamp((run / "checkpoints.json").read_text())
                texts.append(text.replace(json.dumps(str(run)), '"<output>"'))
            assert texts[0] == texts[1]
            assert json.loads(texts[0])["config_echo"]["output"] == "<output>"

    @pytest.mark.parametrize("seeds", ["1,,2", "a:3", "1:x", "1,1", "0,2,0"])
    def test_bad_seed_list_rejected(self, data_csv, tmp_path, capsys, seeds):
        out = tmp_path / "sweep"
        argv = ["sweep", "--seeds", seeds] + run_args(data_csv, out)[1:]
        assert main(argv) == 1
        assert repr(seeds) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1:2", "0,18446744073709551616"])
    def test_seed_outside_64_bits_rejected_before_any_run(self, data_csv, tmp_path, capsys, seeds):
        out = tmp_path / "sweep"
        argv = ["sweep", f"--seeds={seeds}"] + run_args(data_csv, out)[1:]
        assert main(argv) == 1
        assert "is outside [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_no_more_workers_than_seeds(self, data_csv, tmp_path, monkeypatch):
        """A pool starts all its workers at the first task, so ``--jobs 8``
        over two seeds asks for two; the pool here is an in-process recorder
        that starts no process."""
        import concurrent.futures

        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        argv = ["sweep", "--seeds", "0:2", "--jobs", "8"] + run_args(data_csv, tmp_path / "two")[1:]
        assert main(argv) == 0
        assert pools == [2]
        argv = ["sweep", "--seeds", "5", "--jobs", "8"] + run_args(data_csv, tmp_path / "one")[1:]
        assert main(argv) == 0
        assert pools == [2]  # one seed runs in this process
        assert (tmp_path / "one" / "seed-5" / "checkpoints.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, data_csv, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        argv = ["sweep", "--seeds", "3:5", "--jobs", jobs] + run_args(data_csv, out)[1:]
        assert main(argv) == 1
        assert f"error: --jobs must be a positive integer, got {jobs}\n" in capsys.readouterr().err
        assert not out.exists()


class TestLibsvmInput:
    def test_run_on_libsvm(self, tmp_path):
        path = tmp_path / "d.svm"
        lines = []
        gen = np.random.default_rng(0)
        for _ in range(25):
            x = gen.normal(size=2)
            lines.append(f"{gen.normal():.6f} 1:{x[0]:.6f} 2:{x[1]:.6f}")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = run_args(path, out, **{"--data-format": "libsvm", "--checkpoint-every": "10"})
        assert main(argv) == 0
        payload = json.loads((out / "checkpoints.json").read_text())
        assert payload["checkpoints"][-1]["t"] == 25


# The run options' defaults as written to config_echo; input and output have none.
DEFAULTS = {
    "algorithm": "ink-estimate", "kernel": "gaussian", "bandwidth": 1.0, "degree": 2,
    "offset": 0.0, "gamma": 1.0, "mu": 1.0, "epsilon": 0.5, "delta": 0.1, "budget": 100,
    "seed": 0, "checkpoint_every": 50, "verify": False, "data_format": "csv",
    "has_header": False, "label_column": -1, "no_labels": False,
}
# One value per option other than its default; input and output are set per test.
NON_DEFAULT = {
    "algorithm": "ink-oracle", "kernel": "polynomial", "bandwidth": 1.5, "degree": 3,
    "offset": 0.5, "gamma": 0.5, "mu": 2.0, "epsilon": 0.25, "delta": 0.2, "budget": 300,
    "seed": 11, "checkpoint_every": 30, "verify": True, "input": None, "output": None,
    "data_format": "libsvm", "has_header": True, "label_column": 0, "no_labels": True,
}


def write_libsvm(path, n=25):
    gen = np.random.default_rng(0)
    lines = []
    for _ in range(n):
        x = gen.normal(size=2)
        lines.append(f"{gen.normal():.6f} 1:{x[0]:.6f} 2:{x[1]:.6f}")
    path.write_text("\n".join(lines) + "\n")
    return path


def echo_of(outdir):
    return json.loads((Path(outdir) / "checkpoints.json").read_text())["config_echo"]


def set_option(argv, source, key, value, tmp_path, monkeypatch):
    """Set one option from one source; returns the name the source goes by
    (the flag, the variable or the config file)."""
    if source == "flag":
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
        return flag
    if source == "env":
        monkeypatch.setenv("NYSTREAM_" + key.upper(), str(value))
        return "NYSTREAM_" + key.upper()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    argv += ["--config", str(cfgfile)]
    return str(cfgfile)


class TestOptionTable:
    """Every RunConfig field is a flag, a NYSTREAM_* variable and a config
    key, parsed the same way from each."""

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
    def test_every_option_from_every_source(self, data_csv, tmp_path, monkeypatch, key, source):
        given = {"input": str(data_csv), "output": str(tmp_path / "out")}
        if key == "data_format":
            given["input"] = str(write_libsvm(tmp_path / "d.svm"))
        value = {
            "input": str(shutil.copy(data_csv, tmp_path / "other.csv")),
            "output": str(tmp_path / "elsewhere"),
        }.get(key, NON_DEFAULT[key])
        argv = ["run"]
        for other, text in given.items():
            if other != key:
                argv += [f"--{other}", text]
        set_option(argv, source, key, value, tmp_path, monkeypatch)
        assert main(argv) == 0
        assert echo_of(value if key == "output" else given["output"]) == {**DEFAULTS, **given, key: value}

    @pytest.mark.parametrize(
        "source, key, value, expected",
        [
            ("flag", "budget", " 40", 40),
            ("env", "budget", "40", 40),
            ("config", "budget", "40", 40),
            ("config", "budget", 40.0, 40),
            ("config", "gamma", 2, 2.0),
        ]
        + [("env", "no_labels", w, True) for w in ("true", "1", "yes", "on", "ON")]
        + [("env", "no_labels", w, False) for w in ("false", "0", "no", "off", "False")],
    )
    def test_accepted_forms(self, data_csv, tmp_path, monkeypatch, source, key, value, expected):
        out = tmp_path / "out"
        argv = ["run", "--input", str(data_csv), "--output", str(out)]
        set_option(argv, source, key, value, tmp_path, monkeypatch)
        assert main(argv) == 0
        assert echo_of(out)[key] == expected and type(echo_of(out)[key]) is type(expected)

    @pytest.mark.parametrize(
        "source, key, value",
        [
            ("flag", "gamma", "abc"),
            ("flag", "budget", "2.5"),
            ("flag", "kernel", "laplacian"),
            ("env", "gamma", "abc"),
            ("env", "budget", "2.9"),
            ("env", "verify", "maybe"),
            ("config", "budget", "ten"),
            ("config", "budget", 2.9),
            ("config", "verify", "maybe"),
            ("config", "gamma", True),
            ("config", "kernel", 3),
            ("config", "input", None),
        ],
    )
    def test_malformed_value_exits_1(self, data_csv, tmp_path, monkeypatch, capsys, source, key, value):
        out = tmp_path / "out"
        argv = ["run", "--input", str(data_csv), "--output", str(out)]
        where = set_option(argv, source, key, value, tmp_path, monkeypatch)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if key != "kernel":  # an unknown choice is named by its value
            assert key in err and where in err
        assert repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--bogus", "1"], ["verify"], [], ["suggest-budget", "--deff", "x", "--n", "3"]],
        ids=["unknown-flag", "missing-run-dir", "no-command", "bad-suggest-value"],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err


class TestVerifyConfigEcho:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda echo: echo.pop("epsilon"), "epsilon"),
            (lambda echo: echo.update(gamma="abc"), "gamma"),
            (lambda echo: echo.update(budget=2.5), "budget"),
        ],
        ids=["missing-key", "wrong-type-str", "wrong-type-float"],
    )
    def test_bad_config_echo_exits_1_naming_the_file(self, data_csv, tmp_path, capsys, edit, named):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out)) == 0
        path = out / "checkpoints.json"
        payload = json.loads(path.read_text())
        edit(payload["config_echo"])
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not (out / "condition_reports.csv").exists()


def first_checkpoint(payload):
    return payload["checkpoints"][0]


class TestVerifyCheckpointList:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: first_checkpoint(p).pop("t"), "checkpoints[0].t must be a non-negative integer, got nothing"),
            (lambda p: first_checkpoint(p).update(Q_t="5"), "checkpoints[0].Q_t"),
            (lambda p: first_checkpoint(p).update(Q_t=first_checkpoint(p)["Q_t"] + 1),
             "checkpoints[0].Q_t is"),
            (lambda p: first_checkpoint(p).update(deff_tilde=None), "checkpoints[0].deff_tilde"),
            (lambda p: first_checkpoint(p)["dictionary_indices"].__setitem__(0, 0), "holds 0, outside 1..20"),
            (lambda p: first_checkpoint(p)["dictionary_indices"].append(21), "holds 21, outside 1..20"),
            (lambda p: first_checkpoint(p)["dictionary_indices"].__setitem__(0, "1"), "checkpoints[0].dictionary_indices"),
            (lambda p: first_checkpoint(p)["weights"].__setitem__(0, -1.0), "checkpoints[0].weights"),
            (lambda p: first_checkpoint(p)["weights"].pop(), "weights for"),
            (lambda p: p["checkpoints"].__setitem__(1, 3), "checkpoints[1] is not an object"),
            (lambda p: p.update(checkpoints={}), "checkpoints is not a non-empty list"),
            (lambda p: p.pop("checkpoints"), "checkpoints is not a non-empty list"),
        ],
        ids=["missing-t", "str-Q_t", "wrong-Q_t", "null-deff", "index-0", "index-past-t", "str-index",
             "negative-weight", "short-weights", "item-not-object", "not-a-list", "missing-list"],
    )
    def test_malformed_checkpoint_exits_1_naming_the_field(self, data_csv, tmp_path, capsys, edit, named):
        """Each checkpoint field is checked before any verification work; an
        index is reported as the 1-based value in the file."""
        out = tmp_path / "out"
        assert main(run_args(data_csv, out)) == 0
        path = out / "checkpoints.json"
        payload = json.loads(path.read_text())
        assert first_checkpoint(payload)["t"] == 20 and first_checkpoint(payload)["dictionary_indices"]
        edit(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not (out / "condition_reports.csv").exists()


BANDWIDTH_RANGE = "make 2 * bandwidth**2 a positive finite float (about 1.6e-162 to 9.5e153)"


class TestNumericInputFailsWhereItEnters:
    """inf, NaN and the degenerate datasets exit 1 with one ``error:`` line
    and write nothing."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"--gamma": "inf"}, "gamma must be positive and finite, got inf"),
            ({"--kernel": "polynomial", "--offset": "nan"}, "offset must be non-negative and finite, got nan"),
            ({"--kernel": "polynomial", "--offset": "inf"}, "offset must be non-negative and finite, got inf"),
            ({"--bandwidth": "inf"}, "bandwidth must be positive and finite, got inf"),
            ({"--bandwidth": "1e200"}, f"bandwidth must {BANDWIDTH_RANGE}, got 1e+200"),
            ({"--bandwidth": "1e-170"}, f"bandwidth must {BANDWIDTH_RANGE}, got 1e-170"),
        ],
        ids=["gamma-inf", "offset-nan", "offset-inf", "bandwidth-inf", "bandwidth-1e200", "bandwidth-1e-170"],
    )
    def test_run(self, data_csv, tmp_path, capsys, overrides, message):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out, **overrides)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--deff", "inf"], "deff must be positive and finite, got inf"),
            (["--deff", "5", "--rho", "inf"], "rho must be non-negative and finite, got inf"),
            (["--deff", "5", "--rho", "nan"], "rho must be non-negative and finite, got nan"),
            (["--deff", "1e308"], "the q_bar budget overflows a float for these inputs"),
            (["--deff", "1e308", "--algorithm", "batch-exact"], "the m budget overflows a float for these inputs"),
        ],
        ids=["deff-inf", "rho-inf", "rho-nan", "q_bar-overflow", "m-overflow"],
    )
    def test_suggest_budget(self, capsys, argv, message):
        assert main(["suggest-budget", "--n", "100"] + argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_of_a_run_file_whose_gamma_overflows(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(run_args(data_csv, out)) == 0
        path = out / "checkpoints.json"
        text = path.read_text()
        assert text.count('"gamma": 1.0,') == 1
        path.write_text(text.replace('"gamma": 1.0,', '"gamma": 1e400,'))
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: gamma must be positive and finite, got inf\n"
        assert not (out / "condition_reports.csv").exists()

    def test_label_only_csv(self, tmp_path, capsys):
        data, out = tmp_path / "labels.csv", tmp_path / "out"
        data.write_text("0.1\n0.2\n0.3\n0.4\n")
        assert main(run_args(data, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: dataset needs ") and "got shape (4, 0)" in err
        assert not out.exists()

    def test_batch_exact_without_kernel_mass(self, tmp_path, capsys):
        data = tmp_path / "zeros.csv"
        np.savetxt(data, np.column_stack([np.zeros((5, 2)), np.arange(5.0)]), delimiter=",")
        for algorithm, code in (("ink-oracle", 0), ("ink-estimate", 0), ("batch-exact", 1)):
            out = tmp_path / algorithm
            assert main(run_args(data, out, **{"--algorithm": algorithm, "--kernel": "linear"})) == code
        assert "effective dimension 0" in capsys.readouterr().err
        assert json.loads((tmp_path / "ink-oracle" / "checkpoints.json").read_text())["checkpoints"][-1]["Q_t"] == 0
        assert not (tmp_path / "batch-exact").exists()
