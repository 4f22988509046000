import json
import math

import numpy as np
import pytest

from nystream import SyntheticSpec, generate_synthetic
from nystream.cli import main
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
        out = tmp_path / "out"
        # --m is an accepted alias for the batch budget
        argv = run_args(data_csv, out, **{"--algorithm": "batch-exact"})
        i = argv.index("--budget")
        argv[i] = "--m"
        argv[i + 1] = "40"
        assert main(argv) == 0
        payload = json.loads((out / "checkpoints.json").read_text())
        assert len(payload["checkpoints"]) == 1
        assert payload["checkpoints"][0]["t"] == 60
        assert payload["config_echo"]["budget"] == 40

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

    def test_invariant_violation_maps_to_exit_2(self, data_csv, tmp_path, monkeypatch):
        from nystream.errors import InvariantViolation

        def boom(cfg):
            raise InvariantViolation("cap breach")

        monkeypatch.setattr(cli_mod, "_execute_run", boom)
        assert main(run_args(data_csv, tmp_path / "out")) == 2


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

    def test_missing_run_dir(self, tmp_path):
        assert main(["verify", "--run-dir", str(tmp_path)]) == 1


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
