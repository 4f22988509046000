"""Command-line surface.

Subcommands:

* ``run``            execute one algorithm over a dataset file, emitting
                     ``checkpoints.json`` and ``metrics.csv``
* ``verify``         desk-scale second pass over a finished run, emitting
                     condition reports; exits 0 only if every check holds
* ``suggest-budget`` print the sampling/space budget formulas
* ``sweep``          fan a run config out over several seeds

Option precedence is flags > environment (``NYSTREAM_*``) > config file >
defaults.  Outputs are byte-stable for a fixed config and seed, except for
the ``generated_at`` field in JSON files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import InputError, InvariantViolation, NumericalError
from .evaluation import (
    SCHEMA_VERSION,
    verify_checkpoints,
    write_records_csv,
    write_records_json,
)
from .kernels import DESK_SCALE_CAP, Dataset, KernelSpec, gram, load_csv, load_libsvm
from .leverage import alpha_factor, beta_factor, exact_rls
from .pipeline import (
    RunCheckpoint,
    batch_exact,
    ink_estimate_run,
    ink_oracle_run,
    suggest_batch_m,
    suggest_q_bar,
)

ENV_PREFIX = "NYSTREAM_"

_DEFAULTS: dict = {
    "algorithm": "ink-estimate",
    "kernel": "gaussian",
    "bandwidth": 1.0,
    "degree": 2,
    "offset": 0.0,
    "gamma": 1.0,
    "mu": 1.0,
    "epsilon": 0.5,
    "delta": 0.1,
    "budget": 100,
    "seed": 0,
    "checkpoint_every": 50,
    "verify": False,
    "input": None,
    "output": None,
    "data_format": "csv",
    "has_header": False,
    "label_column": -1,
    "no_labels": False,
}

_FLOAT_KEYS = {"bandwidth", "offset", "gamma", "mu", "epsilon", "delta"}
_INT_KEYS = {"degree", "budget", "seed", "checkpoint_every", "label_column"}
_BOOL_KEYS = {"verify", "has_header", "no_labels"}


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    kernel: str
    bandwidth: float
    degree: int
    offset: float
    gamma: float
    mu: float
    epsilon: float
    delta: float
    budget: int
    seed: int
    checkpoint_every: int
    verify: bool
    input: str
    output: str
    data_format: str
    has_header: bool
    label_column: int
    no_labels: bool

    def __post_init__(self) -> None:
        if self.algorithm not in ("batch-exact", "ink-oracle", "ink-estimate"):
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if self.kernel not in ("gaussian", "linear", "polynomial"):
            raise InputError(f"unknown kernel {self.kernel!r}")
        if self.data_format not in ("csv", "libsvm"):
            raise InputError(f"unknown data format {self.data_format!r}")
        if not self.gamma > 0 or not self.mu > 0:
            raise InputError("gamma and mu must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise InputError("epsilon must lie in (0, 1)")
        if self.budget < 1:
            raise InputError("budget must be at least 1")
        if self.checkpoint_every < 1:
            raise InputError("checkpoint_every must be at least 1")

    def kernel_spec(self) -> KernelSpec:
        if self.kernel == "gaussian":
            return KernelSpec.gaussian_kernel(self.bandwidth)
        if self.kernel == "linear":
            return KernelSpec.linear_kernel()
        return KernelSpec.polynomial_kernel(self.degree, self.offset)


def _coerce(key: str, value):
    if value is None:
        return None
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _INT_KEYS:
        return int(value)
    if key in _BOOL_KEYS:
        if isinstance(value, bool):
            return value
        return str(value).strip().lower() in ("1", "true", "yes", "on")
    return value


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    resolved = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config file {config_path}: {exc}")
        for key, value in file_cfg.items():
            if key not in _DEFAULTS:
                raise InputError(f"unknown config key {key!r} in {config_path}")
            resolved[key] = _coerce(key, value)
    for key in _DEFAULTS:
        env_val = os.environ.get(ENV_PREFIX + key.upper())
        if env_val is not None:
            resolved[key] = _coerce(key, env_val)
    for key in _DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = _coerce(key, flag_val)
    if resolved["input"] is None:
        raise InputError("an input dataset file is required (--input)")
    if resolved["output"] is None:
        raise InputError("an output directory is required (--output)")
    return RunConfig(**resolved)


def _load_dataset(cfg: RunConfig) -> Dataset:
    path = cfg.input
    if not Path(path).exists():
        raise InputError(f"input file {path} does not exist")
    if cfg.data_format == "libsvm":
        return load_libsvm(path)
    label = None if cfg.no_labels else cfg.label_column
    return load_csv(path, has_header=cfg.has_header, label_column=label)


def _checkpoint_payload(cp: RunCheckpoint) -> dict:
    return {
        "t": cp.step,
        "Q_t": cp.dict_size,
        "deff_tilde": cp.deff_tilde,
        # 1-based indices on the wire.
        "dictionary_indices": [i + 1 for i in cp.indices],
        "weights": list(cp.weights),
    }


def _write_run_outputs(outdir: Path, cfg: RunConfig, checkpoints, diagnostics: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "spec_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config_echo": asdict(cfg),
        "diagnostics": diagnostics,
        "checkpoints": [_checkpoint_payload(cp) for cp in checkpoints],
    }
    with open(outdir / "checkpoints.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(outdir / "metrics.csv", "w", newline="") as fh:
        fh.write("t,Q_t,deff_tilde\n")
        for cp in checkpoints:
            fh.write(f"{cp.step},{cp.dict_size},{format(cp.deff_tilde, '.17g')}\n")


def _execute_run(cfg: RunConfig) -> tuple[list[RunCheckpoint], dict]:
    dataset = _load_dataset(cfg)
    kernel = cfg.kernel_spec()
    if cfg.algorithm == "batch-exact":
        if len(dataset) > DESK_SCALE_CAP:
            raise InputError("batch-exact needs the dense matrix: dataset too large")
        K = gram(dataset, kernel)
        profile = exact_rls(K, cfg.gamma)
        _, selection = batch_exact(
            dataset, kernel, cfg.gamma, cfg.budget, cfg.seed, profile=profile
        )
        weight_of = dict(selection.pairs)
        checkpoint = RunCheckpoint(
            step=len(dataset),
            dict_size=len(set(selection.indices)),
            deff_tilde=profile.deff,
            indices=selection.indices,
            weights=tuple(weight_of[i] for i in selection.indices),
        )
        return [checkpoint], {}
    if cfg.algorithm == "ink-estimate":
        result = ink_estimate_run(
            dataset, kernel, cfg.gamma, cfg.budget, cfg.epsilon,
            checkpoint_every=cfg.checkpoint_every, rng=cfg.seed,
        )
    else:
        result = ink_oracle_run(
            dataset, kernel, cfg.gamma, cfg.budget,
            checkpoint_every=cfg.checkpoint_every, rng=cfg.seed,
        )
    return list(result.checkpoints), result.diagnostics


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    checkpoints, diagnostics = _execute_run(cfg)
    outdir = Path(cfg.output)
    _write_run_outputs(outdir, cfg, checkpoints, diagnostics)
    if cfg.verify:
        code = _verify_directory(outdir, input_override=None)
        # A failed condition is reported, not fatal, for `run --verify`.
        print(f"verification {'passed' if code == 0 else 'FAILED'} (reports written)")
    return 0


def _parse_run_payload(rundir: Path) -> dict:
    path = rundir / "checkpoints.json"
    if not path.exists():
        raise InputError(f"{path} not found; run the pipeline first")
    with open(path) as fh:
        return json.load(fh)


def _verify_directory(rundir: Path, input_override: str | None) -> int:
    payload = _parse_run_payload(rundir)
    cfg_dict = dict(payload["config_echo"])
    if input_override:
        cfg_dict["input"] = input_override
    cfg = RunConfig(**cfg_dict)
    dataset = _load_dataset(cfg)
    if len(dataset) > DESK_SCALE_CAP:
        raise InputError(
            f"verification materializes dense matrices and refuses n > {DESK_SCALE_CAP}"
        )
    checkpoints = [
        RunCheckpoint(
            step=item["t"],
            dict_size=item["Q_t"],
            deff_tilde=item["deff_tilde"],
            indices=tuple(i - 1 for i in item["dictionary_indices"]),
            weights=tuple(item["weights"]),
        )
        for item in payload["checkpoints"]
    ]
    records = verify_checkpoints(
        dataset,
        cfg.kernel_spec(),
        cfg.gamma,
        cfg.epsilon,
        checkpoints,
        cfg.algorithm,
    )
    write_records_csv(records, rundir / "condition_reports.csv")
    write_records_json(
        records,
        rundir / "condition_reports.json",
        meta={"config_echo": asdict(cfg)},
    )
    all_ok = all(rec.lower_ok and rec.upper_ok for rec in records)
    for rec in records:
        status = "ok" if (rec.lower_ok and rec.upper_ok) else "FAIL"
        print(
            f"t={rec.step} Q_t={rec.dict_size} gap={rec.spectral_gap:.6g} "
            f"psi={rec.psi_gap:.6g} {status}"
        )
    return 0 if all_ok else 2


def cmd_verify(args: argparse.Namespace) -> int:
    return _verify_directory(Path(args.run_dir), args.input)


def cmd_suggest(args: argparse.Namespace) -> int:
    if args.algorithm == "batch-exact":
        value = suggest_batch_m(args.deff, args.epsilon, args.delta, args.n)
        print(f"m = {value}")
        return 0
    if args.algorithm == "ink-oracle":
        alpha = beta = 1.0
    else:
        alpha = alpha_factor(args.epsilon)
        beta = beta_factor(args.epsilon, args.rho)
    value = suggest_q_bar(args.deff, args.epsilon, args.delta, args.n, alpha, beta)
    print(f"q_bar = {value} (alpha={alpha:.6g}, beta={beta:.6g})")
    return 0


def _parse_seed_range(text: str) -> list[int]:
    """``lo:hi`` (hi exclusive) or a comma list; each seed gets its own
    output directory, so a seed may appear once."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise InputError(f"--seeds {text!r} is not lo:hi or a comma-separated list of integers")
    if len(set(seeds)) != len(seeds):
        raise InputError(f"--seeds {text!r} repeats a seed")
    return seeds


def _sweep_worker(cfg_dict: dict) -> tuple[int, str]:
    cfg = RunConfig(**cfg_dict)
    try:
        checkpoints, diagnostics = _execute_run(cfg)
        _write_run_outputs(Path(cfg.output), cfg, checkpoints, diagnostics)
        return cfg.seed, f"ok ({len(checkpoints)} checkpoints)"
    except (InvariantViolation, NumericalError) as exc:
        return cfg.seed, f"FAILED ({exc})"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs {args.jobs} must be at least 1")
    seeds = _parse_seed_range(args.seeds)
    if not seeds:
        raise InputError("no seeds given")
    base = _resolve_config(args)
    configs = []
    for seed in seeds:
        cfg_dict = asdict(base)
        cfg_dict["seed"] = seed
        cfg_dict["output"] = str(Path(base.output) / f"seed-{seed}")
        configs.append(cfg_dict)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, configs))
    else:
        outcomes = [_sweep_worker(cfg) for cfg in configs]
    failures = 0
    for seed, message in outcomes:
        print(f"seed {seed}: {message}")
        failures += message.startswith("FAILED")
    return 2 if failures else 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags win over it)")
    parser.add_argument(
        "--algorithm", choices=["batch-exact", "ink-oracle", "ink-estimate"]
    )
    parser.add_argument("--kernel", choices=["gaussian", "linear", "polynomial"])
    parser.add_argument("--bandwidth", type=float)
    parser.add_argument("--degree", type=int)
    parser.add_argument("--offset", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument(
        "--budget", "--q-bar", "--m", dest="budget", type=int,
        help="space budget q_bar (streaming) or sample count m (batch)",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    parser.add_argument(
        "--verify", action="store_const", const=True, default=None,
        help="run the desk-scale verification pass after the run",
    )
    parser.add_argument("--input", help="dataset file (CSV or libsvm)")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--data-format", dest="data_format", choices=["csv", "libsvm"])
    parser.add_argument(
        "--has-header", dest="has_header", action="store_const", const=True, default=None
    )
    parser.add_argument(
        "--label-column", dest="label_column", type=int,
        help="column holding the label (default: last)",
    )
    parser.add_argument(
        "--no-labels", dest="no_labels", action="store_const", const=True, default=None
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nystream",
        description="Streaming leverage-score Nystrom sketching for kernel ridge regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one algorithm over a dataset")
    _add_run_flags(run)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="second-pass verification of a finished run")
    verify.add_argument("--run-dir", required=True, help="directory written by `run`")
    verify.add_argument("--input", help="override the dataset path from the run config")
    verify.set_defaults(func=cmd_verify)

    suggest = sub.add_parser("suggest-budget", help="budget formulas for a target accuracy")
    suggest.add_argument("--algorithm", default="ink-estimate",
                         choices=["batch-exact", "ink-oracle", "ink-estimate"])
    suggest.add_argument("--deff", type=float, required=True)
    suggest.add_argument("--epsilon", type=float, default=0.5)
    suggest.add_argument("--delta", type=float, default=0.1)
    suggest.add_argument("--n", type=int, required=True)
    suggest.add_argument("--rho", type=float, default=1.0,
                         help="spectrum ratio used by the estimator-oracle factor")
    suggest.set_defaults(func=cmd_suggest)

    sweep = sub.add_parser("sweep", help="repeat a run over several seeds")
    _add_run_flags(sweep)
    sweep.add_argument("--seeds", required=True, help="range lo:hi or comma list")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (InputError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
