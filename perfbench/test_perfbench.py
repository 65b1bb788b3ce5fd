"""Tests of the benchmark harness: result schema, gates, and determinism.

Inputs are shrunk through the workload size constants so the suite stays
fast; timings are never asserted, only their presence and every field that
is not a timing.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from longinputs import CANDIDATE_LEN, K_OBJECTS, QUESTION_LEN, long_instances  # noqa: E402
from spans import Tracer  # noqa: E402
from vcrnet import (  # noqa: E402
    TrainConfig, VcrModel, Vocab, diagnostics, evaluate, synth_generate, train,
)
from vcrnet.data import TASK_Q2A, TASK_QA2R  # noqa: E402
from vcrnet.diagnostics import CheckResult  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIME_UNITS = {"ms", "s"}


@pytest.fixture
def small(monkeypatch):
    # two Adam steps per epoch, so the reported loss can fall below ln 4
    monkeypatch.setattr(workloads, "CORPUS_TRAIN", 9)
    monkeypatch.setattr(workloads, "CORPUS_VAL", 3)
    monkeypatch.setattr(workloads, "LONG_HELDOUT", 3)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "pin_cpu", lambda: None)
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "setup_repeats", 1)


def _result(capsys, argv) -> tuple:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_file_matches_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == traced.per_layer_names()
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in BENCH["end_to_end"])} in BENCH["end_to_end"]


@pytest.mark.parametrize("workload", ["train-short", "eval-long"])
def test_result_lines_follow_the_contract(small, capsys, tmp_path, workload):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01"]
    info, result = _result(capsys, argv + ["--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {"python", "numpy", "blas", "nproc", "cpu"} <= set(info["env"])

    _, result = _result(capsys, argv + ["--trace", "1"])
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert math.isclose(m["trace.attributed_ms"] + m["trace.unattributed_ms"],
                        m["trace.step_ms"])
    assert m["model.joint.fwd_ms"] > 0 and m["tensor.ops.matmul"] > 0


@pytest.mark.parametrize("workload", ["train-short", "eval-long"])
def test_traced_counts_repeat_exactly(small, tmp_path, workload):
    cls = workloads.WORKLOADS[workload]
    runs = []
    for i in range(2):
        metrics, samples, detail = traced.run(cls, 5, tmp_path / str(i))
        runs.append((metrics, detail["round_counts"]))
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    not_timed = [n for n, u in units.items() if u not in TIME_UNITS and n != "trace.overhead_share"]
    first, second = ({n: r[0][n]["value"] for n in not_timed} for r in runs)
    assert first == second
    assert runs[0][1] == runs[1][1]
    if workload == "train-short":
        assert first["tensor.tape_entries"] > 0 and first["model.joint.tape_entries"] > 0
    else:
        assert first["tensor.tape_entries"] == 0 and first["model.padded_row_share"] > 0


def test_layer_check_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            with tracer.window("workload.call"):
                diagnostics.layer_checks()
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.counts), dict(tracer.ops), dict(tracer.win_calls)))
    assert counts[0] == counts[1]
    assert counts[0][0]["attention.unit.calls"] > 0


def test_tracer_uninstall_restores_the_package():
    before = (diagnostics.run_all, VcrModel._stage_joint, diagnostics.L.bilstm)
    Tracer().install().uninstall()
    assert (diagnostics.run_all, VcrModel._stage_joint, diagnostics.L.bilstm) == before


def test_train_gate_fails_without_learning(tmp_path):
    insts = synth_generate(3, 6)
    report = train(TrainConfig(epochs=1, lr=0.0), insts[:4], insts[4:], tmp_path).final_report
    errors = workloads.train_gate(report, report.core(), "d", "d")
    assert any("ln 4" in e for e in errors)
    good = dict(report.core(), epoch=1)
    assert any("same-seed" in e for e in workloads.train_gate(report, good, "d", "d"))
    assert any("checkpoint" in e for e in workloads.train_gate(report, report.core(), "a", "b"))


def test_eval_gate_fails_on_an_untrained_model():
    heldout = long_instances(2, 12)
    model = VcrModel.build(TrainConfig(), Vocab.build(heldout), 8, np.random.default_rng(0))
    q2a = [model.predict(inst, TASK_Q2A) for inst in heldout]
    qa2r = [model.predict(inst, TASK_QA2R) for inst in heldout]
    metrics = evaluate(model, heldout)
    errors = workloads.eval_gate(metrics, q2a, qa2r)
    assert any("below" in e for e in errors)
    assert not any("disagrees" in e for e in errors)
    wrong = next(i for i, r in enumerate(q2a) if not r.correct)
    q2a[wrong] = dataclasses.replace(q2a[wrong], pred=q2a[wrong].gold)
    assert any("disagrees" in e for e in workloads.eval_gate(metrics, q2a, qa2r))


def test_gradcheck_gate_fails_on_each_condition():
    good = [CheckResult("linear/x", 1e-9, 20, 0.1)] + [
        CheckResult(name, 1e-9, 10, 1.0) for name in workloads.E2E_STAGES]
    assert workloads.gradcheck_gate(good, 40) == []
    worse = [CheckResult("linear/x", 2e-4, 20, 0.1)] + good[1:]
    assert workloads.gradcheck_gate(worse, 40)
    assert workloads.gradcheck_gate(good[:-1], 30)
    assert workloads.gradcheck_gate(good, 41)


def test_long_instances_are_deterministic_and_long():
    a, b = long_instances(4, 6), long_instances(4, 6)
    assert [(x.instance_id, x.question, x.answers, x.rationales) for x in a] == \
        [(x.instance_id, x.question, x.answers, x.rationales) for x in b]
    assert all(np.array_equal(x.objects, y.objects) for x, y in zip(a, b))
    for inst in a:
        assert inst.objects.shape == (K_OBJECTS, 8)
        assert QUESTION_LEN[0] <= len(inst.question) <= QUESTION_LEN[1]
        for cands in (inst.answers, inst.rationales):
            lengths = [len(c) for c in cands]
            assert len(set(lengths)) == 4
            assert all(CANDIDATE_LEN[0] <= n <= CANDIDATE_LEN[1] for n in lengths)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
