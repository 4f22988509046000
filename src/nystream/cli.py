"""Command-line surface.

Subcommands:

* ``run``            execute one algorithm over a dataset file, emitting
                     ``checkpoints.json`` and ``metrics.csv``
* ``verify``         desk-scale second pass over a finished run, emitting
                     condition reports; exits 0 only if every check holds
* ``suggest-budget`` print the sampling/space budget formulas
* ``sweep``          fan a run config out over several seeds

Each run option is one :class:`RunConfig` field, set by a flag, a
``NYSTREAM_*`` environment variable or a config-file key, all parsed by
one function; precedence is flags > environment > config file > defaults.
Outputs are byte-stable for a fixed config and seed, except for
the ``generated_at`` field in JSON files.
"""

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import InputError, InvariantViolation, NumericalError, open_unit, positive, positive_int
from .evaluation import (
    SCHEMA_VERSION, field_text, verify_checkpoints, write_json, write_records_csv, write_records_json,
)
from .kernels import FAMILIES, Dataset, KernelSpec, load_csv, load_libsvm
from .leverage import alpha_factor, beta_factor
from .pipeline import (
    ALGORITHMS,
    RunCheckpoint,
    batch_exact,
    ink_estimate_run,
    ink_oracle_run,
    suggest_batch_m,
    suggest_q_bar,
)
from .sampling import RngHandle

ENV_PREFIX = "NYSTREAM_"
DATA_FORMATS = ("csv", "libsvm")
REPORT_CSV, REPORT_JSON = "condition_reports.csv", "condition_reports.json"


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The run options: each field is a flag (``--data-format``), an
    environment variable (``NYSTREAM_DATA_FORMAT``) and a config-file key
    (``data_format``).  A field without a default is required."""

    algorithm: str = "ink-estimate"
    kernel: str = "gaussian"
    bandwidth: float = 1.0
    degree: int = 2
    offset: float = 0.0
    gamma: float = 1.0
    mu: float = 1.0
    epsilon: float = 0.5
    delta: float = 0.1
    budget: int = 100
    seed: int = 0
    checkpoint_every: int = 50
    verify: bool = False
    input: str
    output: str
    data_format: str = "csv"
    has_header: bool = False
    label_column: int = -1
    no_labels: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if self.kernel not in FAMILIES:
            raise InputError(f"unknown kernel {self.kernel!r}")
        if self.data_format not in DATA_FORMATS:
            raise InputError(f"unknown data format {self.data_format!r}")
        positive("gamma", self.gamma)
        positive("mu", self.mu)
        open_unit("epsilon", self.epsilon)
        open_unit("delta", self.delta)
        positive_int("budget", self.budget)
        positive_int("checkpoint_every", self.checkpoint_every)
        self.kernel_spec()  # rejects a bad bandwidth, degree or offset
        RngHandle(seed=self.seed)  # rejects a seed outside [0, 2**64)

    def kernel_spec(self) -> KernelSpec:
        if self.kernel == "gaussian":
            return KernelSpec.gaussian_kernel(self.bandwidth)
        if self.kernel == "linear":
            return KernelSpec.linear_kernel()
        return KernelSpec.polynomial_kernel(self.degree, self.offset)


_OPTIONS = {f.name: f for f in fields(RunConfig)}
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _coerce(key: str, value, kind: type, source: str):
    """Parse one option value, from any source, as ``kind``.  Strings parse
    as the type; JSON numbers and booleans must already be of it, except that
    an integral JSON float is an int."""
    try:
        if kind is bool:
            return _BOOL_WORDS[str(value).strip().lower()]
        if isinstance(value, str):
            return kind(value)
        if kind is float and type(value) in (int, float):
            return float(value)
        if kind is int and (type(value) is int or type(value) is float and value.is_integer()):
            return int(value)
    except (KeyError, ValueError, OverflowError):
        pass
    raise InputError(f"{key} from {source}: {value!r} is not a valid {kind.__name__}")


def _config_from(given) -> RunConfig:
    """Build a RunConfig from ``(key, value, source)`` triples; a later
    triple for the same key wins."""
    resolved = {}
    for key, value, source in given:
        if key not in _OPTIONS:
            raise InputError(f"unknown config key {key!r} in {source}")
        resolved[key] = _coerce(key, value, _OPTIONS[key].type, source)
    for key, option in _OPTIONS.items():
        if key not in resolved and option.default is MISSING:
            raise InputError(f"{key} is required ({_flag(key)})")
    return RunConfig(**resolved)


def _read_json_object(path, what: str) -> dict:
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}")
    if not isinstance(value, dict):
        raise InputError(f"{what} {path} does not hold a JSON object")
    return value


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < environment < flags."""
    given = []
    if args.config:
        source = f"config file {args.config}"
        given += [(k, v, source) for k, v in _read_json_object(args.config, "config file").items()]
    for key in _OPTIONS:
        env = ENV_PREFIX + key.upper()
        if env in os.environ:
            given.append((key, os.environ[env], f"environment variable {env}"))
    for key in _OPTIONS:
        if getattr(args, key) is not None:
            given.append((key, getattr(args, key), f"flag {_flag(key)}"))
    return _config_from(given)


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
    for stale in (REPORT_CSV, REPORT_JSON):  # reports on the checkpoints this run replaces
        (outdir / stale).unlink(missing_ok=True)
    payload = {
        "spec_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config_echo": asdict(cfg),
        "diagnostics": diagnostics,
        "checkpoints": [_checkpoint_payload(cp) for cp in checkpoints],
    }
    write_json(payload, outdir / "checkpoints.json")
    with open(outdir / "metrics.csv", "w", newline="") as fh:
        fh.write("t,Q_t,deff_tilde\n")
        for cp in checkpoints:
            fh.write(f"{cp.step},{cp.dict_size},{field_text(cp.deff_tilde)}\n")


def _execute_run(cfg: RunConfig) -> tuple[list[RunCheckpoint], dict]:
    dataset = _load_dataset(cfg)
    kernel = cfg.kernel_spec()
    if cfg.algorithm == "batch-exact":
        selection, deff = batch_exact(dataset, kernel, cfg.gamma, cfg.budget, rng=cfg.seed)
        checkpoint = RunCheckpoint(
            step=len(dataset),
            deff_tilde=deff,
            indices=tuple(selection.indices.tolist()),
            weights=tuple(selection.weights.tolist()),
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


def _run_config(cfg: RunConfig) -> tuple[int, list | None]:
    """Execute ``cfg``, write its outputs and, when ``cfg.verify`` is set,
    verify them.  Returns the checkpoint count and the condition records
    (None when unverified)."""
    checkpoints, diagnostics = _execute_run(cfg)
    outdir = Path(cfg.output)
    _write_run_outputs(outdir, cfg, checkpoints, diagnostics)
    return len(checkpoints), _verify_directory(outdir, None) if cfg.verify else None


def _verdict(records) -> str:
    # A failed condition is reported, not fatal, for `run` and `sweep`.
    return f"verification {'passed' if all(rec.ok for rec in records) else 'FAILED'} (reports written)"


def cmd_run(args: argparse.Namespace) -> int:
    _, records = _run_config(_resolve_config(args))
    if records is not None:
        _print_records(records)
        print(_verdict(records))
    return 0


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _wire_checkpoints(items, path) -> list[RunCheckpoint]:
    """The checkpoints of a run file, each field checked against what
    :func:`_checkpoint_payload` writes."""
    if not isinstance(items, list) or not items:
        raise InputError(f"{path}: checkpoints is not a non-empty list")
    checkpoints = []
    for pos, item in enumerate(items):
        where = f"{path}: checkpoints[{pos}]"
        if not isinstance(item, dict):
            raise InputError(f"{where} is not an object")
        for key, ok, what in (
            ("t", _is_count, "a non-negative integer"),
            ("Q_t", _is_count, "a non-negative integer"),
            ("deff_tilde", lambda v: type(v) in (int, float), "a number"),
            ("dictionary_indices", lambda v: isinstance(v, list) and all(map(_is_count, v)), "a list of integers"),
            ("weights", lambda v: isinstance(v, list) and all(type(w) in (int, float) and w > 0 for w in v),
             "a list of positive numbers"),
        ):
            if not ok(item.get(key)):
                got = repr(item[key]) if key in item else "nothing"
                raise InputError(f"{where}.{key} must be {what}, got {got}")
        t, wire_indices, weights = item["t"], item["dictionary_indices"], item["weights"]
        for i in wire_indices:
            if not 1 <= i <= t:
                raise InputError(f"{where}.dictionary_indices holds {i}, outside 1..{t}")
        if len(weights) != len(wire_indices):
            raise InputError(f"{where} has {len(weights)} weights for {len(wire_indices)} dictionary indices")
        cp = RunCheckpoint(t, item["deff_tilde"], tuple(i - 1 for i in wire_indices), tuple(weights))
        if item["Q_t"] != cp.dict_size:
            raise InputError(f"{where}.Q_t is {item['Q_t']}, but it has {cp.dict_size} distinct dictionary_indices")
        checkpoints.append(cp)
    return checkpoints


def _verify_directory(rundir: Path, input_override: str | None) -> list:
    """Verify the run in ``rundir`` against its dataset (``input_override``
    if given) and write the condition reports; returns their records.  Every
    input error names the run file, and ``--input`` when it is given."""
    path = rundir / "checkpoints.json"
    payload = _read_json_object(path, "run file")
    echo, source = payload.get("config_echo"), f"config_echo in {path}"
    if not isinstance(echo, dict):
        raise InputError(f"{path} has no config_echo object")
    missing = sorted(_OPTIONS.keys() - echo.keys())
    if missing:
        raise InputError(f"{source} lacks {', '.join(missing)}")
    given = [(key, value, source) for key, value in echo.items()]
    if input_override:
        given.append(("input", input_override, "flag --input"))
    checkpoints = _wire_checkpoints(payload.get("checkpoints"), path)
    try:
        cfg = _config_from(given)
        records = verify_checkpoints(
            _load_dataset(cfg), cfg.kernel_spec(), cfg.gamma, cfg.epsilon, checkpoints, cfg.algorithm,
        )
    except InputError as exc:
        run = f"{path} with --input {input_override}" if input_override else str(path)
        raise InputError(f"{run}: {exc}") from exc
    write_records_csv(records, rundir / REPORT_CSV)
    write_records_json(records, rundir / REPORT_JSON, meta={"config_echo": asdict(cfg)})
    return records


def _print_records(records) -> None:
    for rec in records:
        print(
            f"t={rec.step} Q_t={rec.dict_size} gap={rec.spectral_gap:.6g} "
            f"psi={rec.psi_gap:.6g} {'ok' if rec.ok else 'FAIL'}"
        )


def cmd_verify(args: argparse.Namespace) -> int:
    records = _verify_directory(Path(args.run_dir), args.input)
    _print_records(records)
    return 0 if all(rec.ok for rec in records) else 2


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


def _sweep_worker(cfg: RunConfig) -> tuple[int, str]:
    try:
        count, records = _run_config(cfg)
    except (InvariantViolation, NumericalError) as exc:
        return cfg.seed, f"FAILED ({exc})"
    message = f"ok ({count} checkpoints)"
    return cfg.seed, message if records is None else f"{message}, {_verdict(records)}"


def cmd_sweep(args: argparse.Namespace) -> int:
    positive_int("--jobs", args.jobs)
    seeds = _parse_seed_range(args.seeds)
    if not seeds:
        raise InputError("no seeds given")
    base = _resolve_config(args)
    configs = [
        replace(base, seed=seed, output=str(Path(base.output) / f"seed-{seed}")) for seed in seeds
    ]
    # A pool starts all its workers at the first task: none beyond the seeds.
    workers = min(args.jobs, len(seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, configs))
    else:
        outcomes = [_sweep_worker(cfg) for cfg in configs]
    failures = 0
    for seed, message in outcomes:
        print(f"seed {seed}: {message}")
        failures += message.startswith("FAILED")
    return 2 if failures else 0


_HELP = {
    "budget": "space budget q_bar (streaming) or sample count m (batch)",
    "verify": "run the desk-scale verification pass after the run",
    "input": "dataset file (CSV or libsvm)",
    "output": "output directory",
    "label_column": "column holding the label (default: last)",
    "mu": "KRR ridge; recorded in config_echo only",
    "delta": "failure probability; recorded in config_echo only",
}
_CHOICES = {"algorithm": ALGORITHMS, "kernel": FAMILIES, "data_format": DATA_FORMATS}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field.  Values stay strings here: they are
    parsed with every other source in _resolve_config."""
    parser.add_argument("--config", help="JSON config file (environment and flags win over it)")
    for f in _OPTIONS.values():
        names = [_flag(f.name)] + (["--q-bar", "--m"] if f.name == "budget" else [])
        if f.type is bool:
            how = {"action": "store_const", "const": "true"}
        else:
            how = {"metavar": "{" + ",".join(_CHOICES[f.name]) + "}"} if f.name in _CHOICES else {}
        parser.add_argument(*names, dest=f.name, help=_HELP.get(f.name), **how)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error (exit 1), not argparse's exit 2."""
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    suggest.add_argument("--algorithm", default="ink-estimate", choices=ALGORITHMS)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (InputError, NumericalError, OSError, MemoryError) as exc:  # numpy's MemoryError names the allocation
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
