"""mnarkit benchmark: training and imputation throughput, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload impute-L1000 --seed 0 --seconds 58 --trace 0

Every workload builds a Gaussian dataset (equicorrelated, rho=0.7,
standardized) with self-masking missingness (k=0.8) from ``--seed``, trains
the model with ``mnarkit.model.train``, saves a checkpoint, then imputes a
fixed row subset with ``impute`` (L=1000) and ``multiple_impute`` (10 draws)
in worker processes that reload the checkpoint, as the command line does.
The workloads differ in the model configuration, in how the measured time is
split between training and imputation, and in which phase the traced run
wraps.

Every timed operation is counted as attempted and checked; one that raises
or fails its check is counted as failed, with its reasons. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before it
is a JSON report with the samples, output fingerprints, failures and the
environment.

In the traced run, every second repetition of the workload's traced phase
(training, or checkpoint reload plus imputation) runs with the wrappers of
``tracer.mnarkit_tracer`` installed. Per-layer values are per traced
repetition, summed over processes, and ``trace.overhead_pct`` compares the
median traced repetition with the median untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads. On a shared 2-core machine a
    # second BLAS thread stalls at every barrier whenever the other core is
    # taken: train() calls spread by about 10% within a run with two
    # threads, against about 3% with one.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _require_sources():
    """Import mnarkit from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "mnarkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no mnarkit sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import mnarkit
    if Path(mnarkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported mnarkit from {mnarkit.__file__}, not from {package}")


_require_sources()

import numpy as np  # noqa: E402

from mnarkit import autodiff, baselines, evaluate, model  # noqa: E402
from mnarkit.masking import (IncompleteMatrix, compose_observed,  # noqa: E402
                             feature_stats, standardize_complete)
from mnarkit.synth import (MissingSpec, apply_missing, equicorrelated_cov,  # noqa: E402
                           gaussian_synth, make_rng)

from tracer import mnarkit_tracer  # noqa: E402

N_ROWS = 2000
RHO = 0.7
MASK_K = 0.8
N_DRAWS = 10          # multiple_impute draws per pass
SETUP_REPS = 15       # set-up passes per run; setup_s is their median
MIN_REPS = 3          # fewest timed train() calls in a run
MIN_TRACED = 2        # fewest traced train() calls in a traced run
IMPUTE_WORKERS = 3    # processes the imputation phase is spread over
WORKER_TIMEOUT_S = 120  # a worker still running after this is killed
NODES = "autodiff.Tensor.nodes"
PROB_FLOOR = 1e-6     # prob_mask must lie in [PROB_FLOOR, 1 - PROB_FLOOR]
BOUND_STREAM = 1      # random stream of the final-bound noise, next to the seed


@dataclass(frozen=True)
class Workload:
    d: int
    encoder: str
    structure: str
    train_share: float    # share of --seconds for training; the rest imputes
    traced: str           # phase the traced run wraps: "train" or "impute"
    train_iters: int = 50        # iterations per train() call
    impute_rows: int = 64        # fixed subset: the first rows of the dataset
    l_impute: int = 1000


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    # 100 iterations: after 50, one seed in ten still imputed worse than the
    # feature means at d=32
    "train-wide": Workload(d=32, encoder="set_function", structure="serial",
                           train_share=0.45, traced="train", train_iters=100),
    "impute-L1000": Workload(d=4, encoder="zero_impute", structure="parallel",
                             train_share=0.25, traced="impute"),
}


# ---------------------------------------------------------------------------
# inputs, checks and fingerprints


@dataclass
class Inputs:
    truth: np.ndarray
    mask: np.ndarray
    observed: IncompleteMatrix


def build_inputs(w: Workload, seed: int) -> Inputs:
    rng = make_rng(seed)
    x = gaussian_synth(N_ROWS, w.d, np.zeros(w.d), equicorrelated_cov(w.d, RHO), rng)
    x = standardize_complete(x, feature_stats(x))
    mask = apply_missing(x, MissingSpec(kind="self_mask", k=MASK_K), rng)
    return Inputs(truth=x, mask=mask, observed=compose_observed(x, mask))


def model_config(w: Workload, seed: int) -> model.ModelConfig:
    return model.ModelConfig(iterations=w.train_iters, l_impute=w.l_impute,
                             encoder=w.encoder, structure=w.structure, seed=seed)


def fingerprint(*arrays) -> str:
    """sha256 over dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def params_fingerprint(params) -> str:
    h = hashlib.sha256()
    for name in params.names:
        h.update(name.encode())
        h.update(fingerprint(params[name]).encode())
    return h.hexdigest()


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def check_train(out):
    params, trace = out
    reasons = []
    if not all(np.isfinite(value) for _, value in trace):
        reasons.append("non-finite bound in the training trace")
    bad = [k for k in params.names if not np.all(np.isfinite(params[k]))]
    if bad:
        reasons.append(f"non-finite parameters in {bad}")
    return reasons, params_fingerprint(params)


def check_checkpoint(params, config, loaded):
    got_params, got_config = loaded
    reasons = []
    if got_config != config:
        reasons.append("checkpoint config differs from the saved one")
    if got_params.names != params.names:
        reasons.append("checkpoint block names differ from the saved ones")
    else:
        bad = [k for k in params.names if not _same_bits(params[k], got_params[k])]
        if bad:
            reasons.append(f"checkpoint blocks not bit-exact: {bad}")
    return reasons


def check_impute(result, sub: IncompleteMatrix, truth, mask):
    """Returns (reasons, fingerprint, rmse_missing, mean-impute rmse)."""
    observed = sub.mask == 1
    reasons = []
    if not _same_bits(result.completed[observed], sub.values[observed]):
        reasons.append("observed cells of completed are not bit-equal to the input")
    if not (np.all(np.isfinite(result.completed)) and np.all(np.isfinite(result.prob_mask))):
        reasons.append("non-finite output")
    if result.prob_mask.min() < PROB_FLOOR or result.prob_mask.max() > 1.0 - PROB_FLOOR:
        reasons.append("prob_mask outside [1e-6, 1-1e-6]")
    rmse = evaluate.rmse_missing(truth, result.completed, mask)
    rmse_mean = evaluate.rmse_missing(truth, baselines.mean_impute(sub), mask)
    if not rmse < rmse_mean:
        reasons.append(f"rmse_missing {rmse:.4f} not below mean imputation {rmse_mean:.4f}")
    return reasons, fingerprint(result.completed, result.prob_mask), rmse, rmse_mean


def check_draws(draws, sub: IncompleteMatrix):
    observed = sub.mask == 1
    reasons = []
    for t, draw in enumerate(draws):
        if not _same_bits(draw[observed], sub.values[observed]):
            reasons.append(f"draw {t} does not preserve the observed cells")
        if not np.all(np.isfinite(draw)):
            reasons.append(f"draw {t} is non-finite")
    return reasons, fingerprint(*draws)


class Ledger:
    """Counts attempted operations and keeps every failure with its reasons.

    An operation whose output fingerprint differs from the first one recorded
    under the same name fails: every repetition runs on the same inputs and
    seed, so its outputs must repeat bit for bit.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.fingerprints = {}

    def record(self, op, reasons, digest=None) -> bool:
        self.attempted += 1
        reasons = list(reasons)
        if digest is not None and self.fingerprints.setdefault(op, digest) != digest:
            reasons.append("output differs from the first run of this operation")
        if reasons:
            self.failures.append({"op": op, "reasons": reasons})
        return not reasons

    def merge(self, part: dict) -> None:
        """Fold in the ledger of a worker process; its outputs must match ours."""
        self.attempted += part["attempted"]
        self.failures.extend(part["failures"])
        for op, digest in part["fingerprints"].items():
            if self.fingerprints.setdefault(op, digest) != digest:
                self.failures.append({"op": op, "reasons": [
                    "output differs between worker processes"]})

    def attempt(self, op, fn, check):
        """Time fn(); returns (seconds, result, extras), or (None, None, ())
        if it raised. ``check(result)`` returns ``(reasons, fingerprint,
        *extras)``. An operation that ran but failed its check keeps its
        time: the run reports it as failed, not as missing.
        """
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # a failing operation is counted, not fatal
            self.record(op, [f"raised {type(e).__name__}: {e}"])
            return None, None, ()
        elapsed = time.perf_counter() - start
        reasons, digest, *extras = check(result)
        self.record(op, reasons, digest)
        return elapsed, result, tuple(extras)


class NoResult(Exception):
    """Every operation of a phase raised, so there is nothing to measure."""

    def __init__(self, message, failures):
        super().__init__(f"{message}; failures: {json.dumps(failures)}")


# ---------------------------------------------------------------------------
# the run


def _summary(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": values[0], "max": values[-1]}


def _median(samples):
    """Median of the samples of operations that returned (None: it raised)."""
    passing = [s for s in samples if s is not None]
    return statistics.median(passing) if passing else None


def _checkpoint_roundtrip(params, config, path):
    model.save_checkpoint(path, params, config)
    return model.load_checkpoint(path)


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload; returns the report (see the module docstring)."""
    ledger = Ledger()
    config = model_config(w, seed)
    ckpt = workdir / "model.npz"
    clock = time.perf_counter

    setup_s = []
    for _ in range(SETUP_REPS):
        start = clock()
        inputs = build_inputs(w, seed)
        fresh = model.init_params(config, w.d)
        loaded = _checkpoint_roundtrip(fresh, config, ckpt)
        setup_s.append(clock() - start)
        ledger.record("setup", check_checkpoint(fresh, config, loaded),
                      fingerprint(inputs.truth, inputs.mask, inputs.observed.values))
    observed = inputs.observed

    # In a traced run, every second repetition of the traced phase runs with
    # the tracer installed (training here, imputation in impute_worker); the
    # others stay untraced, so the overhead is measured on the same inputs.
    tracer = mnarkit_tracer(model, autodiff) if trace else None
    trace_train = tracer is not None and w.traced == "train"

    # training: repeated identical train() calls, each from a fresh init. The
    # first call warms the allocator and BLAS; it is checked but left out of
    # the medians.
    def train():
        return model.train(observed, config)

    begin = clock()
    warmup_s = {}
    warmup_s["train"], out, _ = ledger.attempt("train", train, check_train)
    params = None if out is None else out[0]
    train_s, traced_train_s = [], []
    while (len(train_s) < MIN_REPS or (trace_train and len(traced_train_s) < MIN_TRACED)
           or clock() - begin < w.train_share * seconds):
        traced = trace_train and len(train_s) > len(traced_train_s)
        with tracer if traced else contextlib.nullcontext():
            elapsed, out, _ = ledger.attempt("train", train, check_train)
        (traced_train_s if traced else train_s).append(elapsed)
        if elapsed is not None and params is None:
            params = out[0]
    if params is None:
        raise NoResult("every train() call raised", ledger.failures)

    # final bound on the full dataset with noise fixed by the seed (untimed)
    noise = np.random.default_rng([seed, BOUND_STREAM]).standard_normal(
        (N_ROWS * config.k_train, config.latent_dim))
    final_bound = model.bound(observed, params, config, noise=noise)
    ledger.record("final_bound", [] if np.isfinite(final_bound) else ["non-finite bound"])

    # impute in worker processes that reload the checkpoint, as the command
    # line does; see impute_worker
    loaded = _checkpoint_roundtrip(params, config, ckpt)
    ledger.record("checkpoint", check_checkpoint(params, config, loaded))
    parts = []
    for left in range(IMPUTE_WORKERS, 0, -1):
        budget = max(0.0, seconds - (clock() - begin)) / left
        part = _spawn_impute_worker({"workload": w.__dict__, "seed": seed, "trace": trace,
                                     "checkpoint": str(ckpt), "deadline": time.time() + budget})
        ledger.merge(part)
        parts.append(part)
        if tracer is not None:
            tracer.absorb(part["tracer"])
    impute_s, mi_s, traced_pass_s = ([s for p in parts for s in p[key]]
                                     for key in ("impute_s", "mi_s", "traced_s"))
    impute_nodes = sum(p["impute_nodes"] for p in parts)
    rmse, rmse_mean = next(((p["rmse"], p["rmse_mean"]) for p in parts
                            if p["rmse"] is not None), (None, None))
    warmup_s["impute"] = [p["warmup_s"] for p in parts]
    measured_s = clock() - begin
    train_med, impute_med, mi_med = _median(train_s), _median(impute_s), _median(mi_s)
    if None in (train_med, impute_med, mi_med):
        raise NoResult("every untraced train(), impute() or multiple_impute() call raised",
                       ledger.failures)
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "train_ms_per_iter": 1e3 * train_med / w.train_iters,
        "final_neg_bound": -final_bound,
        "impute_rows_per_s": w.impute_rows / impute_med,
        "multiple_impute_rows_per_s": w.impute_rows / mi_med,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
    }
    report = {
        "workload": w.__dict__, "seed": seed, "seconds": seconds,
        "measured_s": measured_s,
        "warmup_s": warmup_s,
        "end_to_end": end_to_end,
        "final_bound": final_bound,
        # Seed-to-seed spread of these is far wider than any bound the
        # benchmark could hold, so they are reported and checked, not gated.
        "rmse_missing": rmse,
        "rmse_mean_impute": rmse_mean,
        "samples_s": {name: _summary([s for s in samples if s is not None])
                      for name, samples in (("setup", setup_s), ("train", train_s),
                                            ("impute", impute_s),
                                            ("multiple_impute", mi_s))
                      if any(s is not None for s in samples)},
    }

    if tracer is not None:
        if w.traced == "train":
            traced_s, untraced_s = traced_train_s, train_med
            per_train_step = tracer.counts[NODES] / (w.train_iters * len(traced_s))
            per_impute_chunk = 0.0
        else:
            traced_s, untraced_s = traced_pass_s, impute_med + mi_med
            chunk_rows = inspect.signature(model.impute).parameters["chunk_rows"].default
            chunks = -(-w.impute_rows // chunk_rows)
            per_train_step = 0.0
            per_impute_chunk = impute_nodes / (chunks * len(traced_s))
        traced_med = _median(traced_s)
        if traced_med is None:
            raise NoResult("every traced repetition raised", ledger.failures)
        report["samples_s"]["traced_" + w.traced] = _summary(
            [s for s in traced_s if s is not None])
        report["per_layer"] = per_layer_metrics(
            tracer, len(traced_s), per_train_step, per_impute_chunk,
            100.0 * (traced_med / untraced_s - 1.0))

    report["fingerprints"] = {
        "inputs": ledger.fingerprints["setup"],
        "params": ledger.fingerprints.get("train"),
        "completed_prob_mask": ledger.fingerprints.get("impute"),
        "multiple_impute_draws": ledger.fingerprints.get("multiple_impute"),
    }
    report["attempted"] = ledger.attempted
    report["failures"] = ledger.failures
    return report


def impute_worker(job: dict) -> dict:
    """The imputation phase, in a process of its own.

    Reloads the checkpoint as ``mnarkit impute`` does, warms up with one
    impute() pass, then alternates impute() and multiple_impute() passes on
    the workload's row subset until ``job["deadline"]`` (epoch seconds).
    Spreading the passes of a run over several processes averages out how
    fast one process happens to be (memory placement differed by about 8%
    between processes against about 3% between windows of one process).
    """
    w = Workload(**job["workload"])
    ledger = Ledger()
    inputs = build_inputs(w, job["seed"])
    params, config = model.load_checkpoint(job["checkpoint"])
    rows = slice(0, w.impute_rows)
    sub = IncompleteMatrix(inputs.observed.values[rows], inputs.observed.mask[rows])
    truth, mask = inputs.truth[rows], inputs.mask[rows]
    tracer = mnarkit_tracer(model, autodiff) if job["trace"] and w.traced == "impute" else None

    def impute():
        return model.impute(sub, params, config)

    def multiple_impute():
        return model.multiple_impute(sub, params, config, N_DRAWS)

    def impute_check(result):
        return check_impute(result, sub, truth, mask)

    def draws_check(draws):
        return check_draws(draws, sub)

    warmup_s, _, extras = ledger.attempt("impute", impute, impute_check)
    rmse, rmse_mean = extras or (None, None)
    impute_s, mi_s, traced_s, impute_nodes = [], [], [], 0
    while (not impute_s or (tracer is not None and not traced_s)
           or time.time() < job["deadline"]):
        traced = tracer is not None and len(impute_s) > len(traced_s)
        with tracer if traced else contextlib.nullcontext():
            if traced:  # the checkpoint reload is traced but not timed
                loaded = _checkpoint_roundtrip(params, config, Path(job["checkpoint"]))
                ledger.record("checkpoint", check_checkpoint(params, config, loaded))
                before = tracer.counts[NODES]
            t_imp, _, extras = ledger.attempt("impute", impute, impute_check)
            if traced:
                impute_nodes += tracer.counts[NODES] - before
            t_mi, _, _ = ledger.attempt("multiple_impute", multiple_impute, draws_check)
        if extras and rmse is None:
            rmse, rmse_mean = extras
        if traced:
            traced_s.append(None if None in (t_imp, t_mi) else t_imp + t_mi)
        else:
            impute_s.append(t_imp)
            mi_s.append(t_mi)
    return {"attempted": ledger.attempted, "failures": ledger.failures,
            "fingerprints": ledger.fingerprints, "warmup_s": warmup_s,
            "impute_s": impute_s, "mi_s": mi_s, "traced_s": traced_s,
            "impute_nodes": impute_nodes, "rmse": rmse, "rmse_mean": rmse_mean,
            "tracer": None if tracer is None else tracer.snapshot()}


def _spawn_impute_worker(job: dict) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--impute-worker"]
    try:
        proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True, text=True,
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise NoResult(f"impute worker still running after {WORKER_TIMEOUT_S} s", [])
    if proc.returncode != 0:
        raise NoResult(f"impute worker exited with {proc.returncode}: {proc.stderr[-2000:]}", [])
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer_metrics(tracer, reps, per_train_step, per_impute_chunk, overhead_pct) -> dict:
    """Span and counter totals divided by the number of traced repetitions,
    plus the derived rates and the tracing overhead."""
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = st.calls / reps
        out[f"{name}.total_s"] = st.total_s / reps
        out[f"{name}.self_s"] = st.self_s / reps
    counts = tracer.counts
    matmul_s = tracer.stats["autodiff.matmul"].total_s
    gflop = counts["autodiff.matmul.flops"] / 1e9
    out.update({
        "autodiff.Tensor.nodes": counts[NODES] / reps,
        "autodiff.Tensor.nodes_per_train_step": per_train_step,
        "autodiff.Tensor.nodes_per_impute_chunk": per_impute_chunk,
        "autodiff.Tensor._accumulate.calls": counts["autodiff.Tensor._accumulate.calls"] / reps,
        "autodiff.matmul.computed_gflop": gflop / reps,
        "autodiff.matmul.computed_gflops_per_s": gflop / matmul_s if matmul_s > 0 else 0.0,
        "model.importance_log_weights.ess_frac":
            counts["ess.sum"] / counts["ess.rows"] if counts["ess.rows"] else 0.0,
        "trace.overhead_pct": overhead_pct,
    })
    return out


# ---------------------------------------------------------------------------
# environment and output


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    """The result line: every metric of the chosen list, with its unit."""
    listed = spec["per_layer" if trace else "end_to_end"]
    values = report["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in listed} != set(values):
        raise RuntimeError("measured metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in listed})}")
    failed = len(report["failures"])
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 0:
        parser.error("--seconds must be >= 0")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise RuntimeError("workloads in BENCHMARK.json and perfbench/run.py differ")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            report = run(WORKLOADS[args.workload], args.seed, seconds,
                         bool(args.trace), Path(workdir))
        except NoResult as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
    report["environment"] = environment()
    line = result_line(report, spec, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


def worker_main() -> int:
    print(json.dumps(impute_worker(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    sys.exit(worker_main() if sys.argv[1:] == ["--impute-worker"] else main())
