"""Command-line surface: synth, train, impute, eval and bench subcommands.

Every field of ``ModelConfig`` and ``MissingSpec`` is a config-file key and
a flag, both built from the field's name and read by its annotation:
``model.x`` is ``--x`` and ``missing.x`` is ``--missing-x``, with each _
written as -. Option precedence: built-in defaults < config file (--config)
< explicit flags. The fully resolved configuration is echoed to
``config_echo.txt`` in every output directory, other values (``data.*``,
``run.*``) as comments, so it loads back as ``--config``; a command refuses
a key outside the sections it reads. The output directory may be
overridden with the MNARKIT_OUTDIR env var.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import baselines, evaluate, io, model as core, synth
from .errors import DomainError, MnarkitError
from .masking import compose_observed, feature_stats, standardize_complete

# config-file section -> the dataclass whose fields it sets
SECTIONS = {"model": core.ModelConfig, "missing": synth.MissingSpec}


def _out_dir(args) -> str:
    out = os.environ.get("MNARKIT_OUTDIR", args.out)
    os.makedirs(out, exist_ok=True)
    return out


def _flag(section: str, name: str) -> str:
    stem = name if section == "model" else f"{section}_{name}"
    return "--" + stem.replace("_", "-")


def _int_list(raw: str) -> tuple:
    return tuple(int(t) for t in raw.split(",") if t.strip())


# annotation -> (parser of a field's text, what the text must be)
_PARSERS = {"int": (int, "an int"), "float": (float, "a number"), "str": (str, "text"),
            "tuple": (_int_list, "a comma list of ints")}


def _parse(raw: str, kind: str, where: str):
    """Text -> a value of ``kind``; DomainError names ``where`` (the config
    key or the flag) when the text does not parse."""
    parser, wanted = _PARSERS[kind]
    try:
        return parser(raw)
    except ValueError:
        raise DomainError(f"{where}: cannot read {raw!r} as {wanted}") from None


def _resolve(args, *sections: str) -> list:
    """The dataclass of each section from the --config file's keys and the
    flags, the flags winning; both are text read by the field's annotation.
    A file key must name a field of one of these sections."""
    file_cfg = io.parse_config_file(args.config) if args.config else {}
    known = {f"{section}.{f.name}" for section in sections for f in fields(SECTIONS[section])}
    for key in file_cfg:
        if key not in known:
            raise DomainError(f"{key}: unknown config key")
    resolved = []
    for section in sections:
        values = {}
        for f in fields(SECTIONS[section]):
            key = f"{section}.{f.name}"
            for raw, where in ((file_cfg.get(key), key),
                               (getattr(args, key), _flag(section, f.name))):
                if raw is not None:
                    values[f.name] = _parse(raw, f.type, where)
        resolved.append(SECTIONS[section](**values))
    return resolved


def _echo(out_dir: str, sections: dict) -> None:
    """config_echo.txt: SECTIONS values as keys, every other value as a
    ``# key = value`` comment, so that the file loads as --config."""
    flat = {}
    for prefix, mapping in sections.items():
        for key, value in mapping.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            flat[f"{'' if prefix in SECTIONS else '# '}{prefix}.{key}"] = value
    with open(os.path.join(out_dir, "config_echo.txt"), "w") as f:
        f.write(io.format_config(flat))


def _add_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """--config, and a flag for every field of the sections' dataclasses."""
    p.add_argument("--config", help="flat key = value config file")
    for section in sections:
        for f in fields(SECTIONS[section]):
            key = f"{section}.{f.name}"
            p.add_argument(_flag(section, f.name), dest=key, metavar=f.type.upper(),
                           help=f"{_PARSERS[f.type][1]}; config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mnarkit",
                                     description="Tabular imputation under MNAR missingness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate complete data plus a missing mask")
    p.add_argument("--out", default="out_synth")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, "missing")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the imputer or a baseline, write a checkpoint")
    p.add_argument("--data", required=True, help="observed-matrix CSV")
    p.add_argument("--out", default="out_train")
    model_methods = [m for m, overrides in baselines.METHODS.items() if overrides is not None]
    p.add_argument("--method", choices=model_methods, default=model_methods[0])
    _add_flags(p, "model")
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
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--n-runs", dest="n_runs", type=int, default=5)
    p.add_argument("--seeds", help="comma list; defaults to 0..n_runs-1")
    p.add_argument("--methods", default=",".join(baselines.METHODS))
    _add_flags(p, "missing", "model")
    p.set_defaults(func=cmd_bench)
    return parser


def cmd_synth(args) -> int:
    out = _out_dir(args)
    [spec] = _resolve(args, "missing")
    rng = synth.make_rng(args.seed)
    x = synth.gaussian_synth(args.n, args.d, np.zeros(args.d),
                             synth.equicorrelated_cov(args.d, args.rho), rng)
    stats = feature_stats(x)
    x_std = standardize_complete(x, stats)
    mask = synth.apply_missing(x_std, spec, rng)
    observed = compose_observed(x_std, mask)
    io.write_complete_csv(os.path.join(out, "truth.csv"), x_std)
    io.write_matrix_csv(os.path.join(out, "observed.csv"), observed)
    _echo(out, {"data": {"n": args.n, "d": args.d, "rho": args.rho, "seed": args.seed},
                "missing": asdict(spec)})
    print(f"wrote truth.csv and observed.csv to {out} "
          f"(missing fraction {1 - observed.observed_fraction():.3f})")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    [config] = _resolve(args, "model")
    config = baselines.method_config(args.method, config)
    data, _ = io.load_matrix_csv(args.data)
    params, trace = core.train(data, config)
    ckpt = os.path.join(out, "model.npz")
    core.save_checkpoint(ckpt, params, config)
    with open(os.path.join(out, "bound_trace.csv"), "w") as f:
        f.write("iteration,bound\n")
        f.writelines(f"{it},{repr(v)}\n" for it, v in trace)
    _echo(out, {"model": asdict(config), "run": {"method": args.method, "data": args.data}})
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
    _echo(out, {"model": asdict(config), "run": {"data": args.data,
                                                 "checkpoint": args.checkpoint}})
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
    _echo(out, {"run": {"truth": args.truth, "observed": args.observed,
                        "completed": args.completed}})
    for k, v in metrics.items():
        print(f"{k} = {v:.6f}")
    return 0


def cmd_bench(args) -> int:
    out = _out_dir(args)
    config, spec = _resolve(args, "model", "missing")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in baselines.METHODS:
            raise MnarkitError(f"unknown method {m!r}")
    seeds = (list(_parse(args.seeds, "tuple", "--seeds")) if args.seeds
             else list(range(args.n_runs)))
    dataset = evaluate.GaussianDatasetSpec(n=args.n, d=args.d, rho=args.rho)
    report = evaluate.run_experiment(dataset, spec, methods, config,
                                     n_runs=len(seeds), seeds=seeds)
    path = os.path.join(out, "report.csv")
    report.write_csv(path)
    _echo(out, {"model": asdict(config), "missing": asdict(spec),
                "data": asdict(dataset), "run": {"seeds": tuple(seeds),
                                                 "methods": tuple(methods)}})
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
