"""Tests of the benchmark itself: tracer wrappers, self-time arithmetic,
expected spans per workload, output checks and fingerprints.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import types

import numpy as np
import pytest

import run
from tracer import Tracer, mnarkit_tracer

# Small enough to run in seconds, big enough that the output checks pass.
SCALED = dict(train_iters=20, impute_rows=32, l_impute=100)


def _targets(tracer):
    return [(owner, attribute) for _, owner, attribute, _ in tracer._spans] + \
           [(owner, attribute) for _, owner, attribute in tracer._counters]


def test_tracer_restores_every_patched_attribute():
    tracer = mnarkit_tracer(run.model, run.autodiff)
    originals = {t: vars(t[0])[t[1]] for t in _targets(tracer)}
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(vars(o)[a] is not originals[(o, a)] for o, a in originals)
            1 / 0
    assert all(vars(o)[a] is originals[(o, a)] for o, a in originals)


def test_self_time_is_span_minus_child_spans():
    now = [0.0]
    ns = types.SimpleNamespace()

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 1.0
        ns.inner()
        now[0] += 2.0
        ns.inner()
        now[0] += 3.0

    ns.inner, ns.outer = inner, outer
    tracer = Tracer([("outer", ns, "outer", None), ("inner", ns, "inner", None)],
                    clock=lambda: now[0])
    with tracer:
        ns.outer()
    out, inn = tracer.stats["outer"], tracer.stats["inner"]
    assert (out.calls, out.total_s, out.self_s) == (1, 16.0, 6.0)
    assert (inn.calls, inn.total_s, inn.self_s) == (2, 10.0, 10.0)
    assert ns.outer is outer and ns.inner is inner


# spans that must run (True) or must not run (False) in each workload's trace
EXPECTED = {
    "train-wide": {"model.train": True, "model.encode": True, "model.sample_latent": True,
                   "model.importance_log_weights": True, "model.decode_data": True,
                   "model.decode_mask": False, "model.decode_mask_serial": True,
                   "autodiff.backward": True, "autodiff.adam_step": True,
                   "model.ParamBlocks.flatten": True, "model.ParamBlocks.unflatten": True,
                   "autodiff.matmul": True, "model.impute": False},
    "impute-L1000": {"model.impute": True, "model.multiple_impute": True,
                     "model.save_checkpoint": True, "model.load_checkpoint": True,
                     "model.decode_data": True, "model.decode_mask": True,
                     "model.sample_latent": True, "autodiff.backward": False,
                     "autodiff.adam_step": False, "model.train": False},
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_records_expected_spans(name, tmp_path):
    w = dataclasses.replace(run.WORKLOADS[name], **SCALED)
    report = run.run(w, seed=0, seconds=0.0, trace=True, workdir=tmp_path)
    layer = report["per_layer"]
    for span, runs in EXPECTED[name].items():
        assert (layer[f"{span}.calls"] > 0) == runs, span
    assert report["failures"] == []
    assert 0.0 < layer["model.importance_log_weights.ess_frac"] <= 1.0
    assert layer["autodiff.matmul.computed_gflop"] > 0
    per_step = layer["autodiff.Tensor.nodes_per_train_step"]
    per_chunk = layer["autodiff.Tensor.nodes_per_impute_chunk"]
    assert (per_step > 0, per_chunk > 0) == ((True, False) if w.traced == "train"
                                             else (False, True))
    spec = run.load_spec()
    for trace in (False, True):
        line = run.result_line(report, spec, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] == report["attempted"]


def test_same_seed_gives_the_same_output_fingerprints(tmp_path):
    w = dataclasses.replace(run.WORKLOADS["train-wide"], **SCALED)
    first, second = (run.run(w, seed=5, seconds=0.0, trace=False, workdir=tmp_path)
                     for _ in range(2))
    assert first["fingerprints"] == second["fingerprints"]
    assert None not in first["fingerprints"].values()


def test_workload_seed_changes_the_input_fingerprint():
    w = run.WORKLOADS["impute-L1000"]

    def digest(seed):
        inputs = run.build_inputs(w, seed)
        return run.fingerprint(inputs.truth, inputs.mask, inputs.observed.values)

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_output_checks_flag_bad_imputations():
    w = run.WORKLOADS["impute-L1000"]
    inputs = run.build_inputs(w, 0)
    rows = slice(0, 32)
    sub = run.IncompleteMatrix(inputs.observed.values[rows], inputs.observed.mask[rows])
    truth, mask = inputs.truth[rows], inputs.mask[rows]
    good = run.model.ImputationResult(completed=truth.copy(), prob_mask=np.full(truth.shape, 0.5))
    assert run.check_impute(good, sub, truth, mask)[0] == []

    observed = np.argwhere(mask == 1)[0]
    tampered = truth.copy()
    tampered[tuple(observed)] = np.nextafter(tampered[tuple(observed)], np.inf)
    bad = run.model.ImputationResult(completed=tampered, prob_mask=np.full(truth.shape, 1.0))
    reasons = run.check_impute(bad, sub, truth, mask)[0]
    assert any("bit-equal" in r for r in reasons)
    assert any("prob_mask" in r for r in reasons)

    mean_filled = run.baselines.mean_impute(sub)
    as_bad_as_mean = run.model.ImputationResult(completed=mean_filled,
                                                prob_mask=np.full(truth.shape, 0.5))
    assert any("mean imputation" in r for r in run.check_impute(as_bad_as_mean, sub, truth, mask)[0])

    draws = [truth.copy(), tampered]
    assert run.check_draws(draws, sub)[0] == ["draw 1 does not preserve the observed cells"]


def test_ledger_fails_an_operation_whose_output_changes():
    ledger = run.Ledger()
    assert ledger.record("impute", [], "a")
    assert not ledger.record("impute", [], "b")
    assert ledger.attempted == 2
    assert ledger.failures == [{"op": "impute", "reasons": [
        "output differs from the first run of this operation"]}]
