"""Command-line surface: synth, train, impute, eval and bench subcommands.

``READS`` maps each command to the fields it reads of the ``SECTIONS``
dataclasses (``data``, ``missing``, ``model``, ``run``). Each is a config
key ``section.x`` and a flag, ``--missing-x`` for ``missing.x`` and ``--x``
for any other, with each _ written as -, read by the field's annotation.
Option precedence: built-in defaults < config file (--config) < explicit
flags; a command refuses a key it does not read. ``config_echo.txt`` in
every output directory holds the read values as keys, so it loads back as
``--config`` and reruns the command, and paths and train's method as
comments. The output directory may be overridden with the MNARKIT_OUTDIR env var.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

from . import baselines, evaluate, io, model as core, synth
from .errors import DomainError, MnarkitError


@dataclass(frozen=True)
class RunSpec:
    """What ``bench`` runs: each of ``seeds`` is the data seed and the model
    seed of one row of cells, one cell per entry of ``methods``."""

    seeds: tuple = (0, 1, 2, 3, 4)
    methods: tuple[str, ...] = tuple(baselines.METHODS)

    def __post_init__(self):
        core.check_field_types(self, "run.")
        for name in ("seeds", "methods"):
            if not getattr(self, name):
                raise DomainError(f"run.{name}: must not be empty")
        for seed in self.seeds:
            if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
                raise DomainError(f"run.seeds: each must be an int in [0, 2**64), got {seed!r}")
        for method in self.methods:
            if method not in baselines.METHODS:
                raise DomainError(f"run.methods: unknown method {method!r}")
        for name in ("seeds", "methods"):
            evaluate.check_distinct(f"run.{name}", getattr(self, name))


# config-file section -> the dataclass whose fields it sets
SECTIONS = {"data": evaluate.GaussianDatasetSpec, "missing": synth.MissingSpec,
            "model": core.ModelConfig, "run": RunSpec}


def _fields(section: str, *unread: str) -> tuple:
    return tuple(f for f in fields(SECTIONS[section]) if f.name not in unread)


# command -> section -> the fields it reads. bench reads no seed but run.seeds,
# which seeds both the data and the model of each cell.
READS = {"synth": {"data": _fields("data"), "missing": _fields("missing")},
         "train": {"model": _fields("model")},
         "bench": {"data": _fields("data", "seed"), "missing": _fields("missing"),
                   "model": _fields("model", "seed"), "run": _fields("run")}}


def _out_dir(args) -> str:
    out = os.environ.get("MNARKIT_OUTDIR", args.out)
    os.makedirs(out, exist_ok=True)
    return out


def _flag(section: str, name: str) -> str:
    stem = f"{section}_{name}" if section == "missing" else name
    return "--" + stem.replace("_", "-")


def _int_list(raw: str) -> tuple:
    return tuple(int(t) for t in raw.split(",") if t.strip())


def _name_list(raw: str) -> tuple:
    return tuple(t.strip() for t in raw.split(",") if t.strip())


# annotation -> (parser of a field's text, what the text must be)
_PARSERS = {"int": (int, "an int"), "float": (float, "a number"), "str": (str, "text"),
            "tuple": (_int_list, "a comma list of ints"),
            "tuple[str, ...]": (_name_list, "a comma list of names")}


def _resolve(args) -> dict:
    """Section -> its dataclass, each field the command reads set from the
    --config file's key and the flag, the flag winning; both are text read
    by the field's annotation (DomainError names the key or flag whose text
    does not parse). A file key must be one the command reads."""
    reads = READS[args.command]
    file_cfg = io.parse_config_file(args.config) if args.config else {}
    known = {f"{section}.{f.name}" for section, read in reads.items() for f in read}
    for key in file_cfg:
        if key not in known:
            raise DomainError(f"{key}: unknown config key")
    resolved = {}
    for section, read in reads.items():
        values = {}
        for f in read:
            key = f"{section}.{f.name}"
            for raw, where in ((file_cfg.get(key), key),
                               (getattr(args, key), _flag(section, f.name))):
                if raw is not None:
                    parser, wanted = _PARSERS[f.type]
                    try:
                        values[f.name] = parser(raw)
                    except ValueError:
                        raise DomainError(f"{where}: cannot read {raw!r} as {wanted}") from None
        resolved[section] = SECTIONS[section](**values)
    return resolved


def _echo(out_dir: str, args, resolved: dict, **notes) -> None:
    """config_echo.txt: the fields of ``resolved`` that the command reads (all
    of them for a command without flags) as keys, so that the file loads as
    --config, and ``notes`` as ``# run.x = value`` comments."""
    flat = {f"# run.{name}": value for name, value in notes.items()}
    for section, config in resolved.items():
        for f in READS.get(args.command, {}).get(section, fields(config)):
            value = getattr(config, f.name)
            flat[f"{section}.{f.name}"] = (",".join(str(v) for v in value)
                                           if isinstance(value, tuple) else value)
    with open(os.path.join(out_dir, "config_echo.txt"), "w") as f:
        f.write(io.format_config(flat))


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """--config, and a flag for every field the command reads. A flag must be
    given in full, so that bench's --seeds does not take --seed."""
    p.allow_abbrev = False
    p.add_argument("--config", help="flat key = value config file")
    for section, read in READS[command].items():
        for f in read:
            key = f"{section}.{f.name}"
            p.add_argument(_flag(section, f.name), dest=key,
                           metavar=f.type.partition("[")[0].upper(),
                           help=f"{_PARSERS[f.type][1]}; config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mnarkit",
                                     description="Tabular imputation under MNAR missingness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate complete data plus a missing mask")
    p.add_argument("--out", default="out_synth")
    _add_flags(p, "synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the imputer or a baseline, write a checkpoint")
    p.add_argument("--data", required=True, help="observed-matrix CSV")
    p.add_argument("--out", default="out_train")
    model_methods = [m for m, overrides in baselines.METHODS.items() if overrides is not None]
    p.add_argument("--method", choices=model_methods, default=model_methods[0])
    _add_flags(p, "train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("impute", help="load a checkpoint and write the completed matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="out_impute")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("eval", help="score a completed CSV against the truth")
    p.add_argument("--truth", required=True, help="complete-matrix CSV")
    p.add_argument("--observed", required=True, help="observed-matrix CSV (defines the mask)")
    p.add_argument("--completed", required=True)
    p.add_argument("--prob-mask", dest="prob_mask")
    p.add_argument("--out", default="out_eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="multi-seed experiment; writes a report CSV")
    p.add_argument("--out", default="out_bench")
    _add_flags(p, "bench")
    p.set_defaults(func=cmd_bench)
    return parser


def cmd_synth(args) -> int:
    out = _out_dir(args)
    resolved = _resolve(args)
    truth, observed = evaluate.draw_dataset(resolved["data"], resolved["missing"])
    io.write_complete_csv(os.path.join(out, "truth.csv"), truth)
    io.write_matrix_csv(os.path.join(out, "observed.csv"), observed)
    _echo(out, args, resolved)
    print(f"wrote truth.csv and observed.csv to {out} "
          f"(missing fraction {1 - observed.observed_fraction():.3f})")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    config = baselines.method_config(args.method, _resolve(args)["model"])
    data, _ = io.load_matrix_csv(args.data)
    params, trace = core.train(data, config)
    ckpt = os.path.join(out, "model.npz")
    core.save_checkpoint(ckpt, params, config)
    with open(os.path.join(out, "bound_trace.csv"), "w") as f:
        f.write("iteration,bound\n")
        f.writelines(f"{it},{repr(v)}\n" for it, v in trace)
    _echo(out, args, {"model": config}, method=args.method, data=args.data)
    print(f"checkpoint written to {ckpt}; final traced bound "
          f"{trace[-1][1]:.4f}" if trace else f"checkpoint written to {ckpt}")
    return 0


def cmd_impute(args) -> int:
    out = _out_dir(args)
    params, config = core.load_checkpoint(args.checkpoint)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    data, names = io.load_matrix_csv(args.data)
    result = core.impute(data, params, config)
    io.write_complete_csv(os.path.join(out, "completed.csv"), result.completed, names)
    io.write_complete_csv(os.path.join(out, "prob_mask.csv"), result.prob_mask, names)
    _echo(out, args, {"model": config}, data=args.data, checkpoint=args.checkpoint)
    print(f"wrote completed.csv and prob_mask.csv to {out}")
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    truth, _ = io.load_complete_csv(args.truth)
    observed, _ = io.load_matrix_csv(args.observed)
    completed, _ = io.load_complete_csv(args.completed)
    metrics = evaluate.score_external(truth, completed, observed.mask)
    if args.prob_mask:
        prob, _ = io.load_complete_csv(args.prob_mask)
        metrics["mask_accuracy"] = evaluate.mask_accuracy(observed.mask, prob)
    with open(os.path.join(out, "metrics.csv"), "w") as f:
        f.write("metric,value\n")
        f.writelines(f"{k},{repr(v)}\n" for k, v in metrics.items())
    _echo(out, args, {}, truth=args.truth, observed=args.observed, completed=args.completed)
    for k, v in metrics.items():
        print(f"{k} = {v:.6f}")
    return 0


def cmd_bench(args) -> int:
    out = _out_dir(args)
    resolved = _resolve(args)
    report = evaluate.run_experiment(resolved["data"], resolved["missing"],
                                     list(resolved["run"].methods), resolved["model"],
                                     seeds=resolved["run"].seeds)
    path = os.path.join(out, "report.csv")
    report.write_csv(path)
    _echo(out, args, resolved)
    for row in report.rows:
        print(f"{row['method']:>18} {row['metric']:<22} "
              f"{row['mean']:.4f} +- {row['stderr']:.4f}")
    print(f"report written to {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MnarkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
