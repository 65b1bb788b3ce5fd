"""The release gate: one test per published acceptance criterion.

Each test prints a single PASS/FAIL line with the measured quantity so a
verbose run reads as a checklist. Tolerances are stated inline and are not
to be loosened; if one of these fails, the product is broken.
"""

import dataclasses
import json
import time

import numpy as np
import numpy.testing as npt

from helpers import np_layer_norm

import vcrnet.cli as cli
from vcrnet.attention import init_mha, multi_head, sdpa
from vcrnet.config import TrainConfig
from vcrnet.data import (
    PredictionRecord,
    TASK_Q2A,
    Vocab,
    metrics_report,
    synth_generate,
)
from vcrnet.model import VcrModel
from vcrnet.reduction import fuse, init_reduction, reduce
from vcrnet.tensor import Tensor
from vcrnet.training import evaluate, train


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# -- A1 --------------------------------------------------------------------


def test_a1_gradient_integrity(a1_battery):
    _, results, elapsed = a1_battery
    worst = max(r.max_rel_err for r in results)
    stages = {r.name for r in results if r.name.startswith("end_to_end/")}
    ok = worst <= 1e-4 and elapsed < 60.0 and len(stages) == 4
    _verdict("A1 gradient integrity",
             ok, f"worst rel err {worst:.2e}, {len(results)} checks, {elapsed:.1f}s")


# -- A2 --------------------------------------------------------------------


def _np_sdpa(q, k, v, mask):
    m, d = q.shape
    n = k.shape[0]
    scores = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(d):
                s += q[i, t] * k[j, t]
            scores[i, j] = s / np.sqrt(d)
            if mask is not None and not mask[j]:
                scores[i, j] += -1e9
    W = np.zeros((m, n))
    out = np.zeros((m, v.shape[1]))
    for i in range(m):
        e = np.exp(scores[i] - scores[i].max())
        W[i] = e / e.sum()
        for j in range(n):
            out[i] += W[i, j] * v[j]
    return out, W


def _rand_mask(rng, n):
    if rng.random() < 0.5:
        return None
    mask = rng.random(n) < 0.7
    mask[int(rng.integers(n))] = True
    return mask


def _batch_of_one(mask):
    return None if mask is None else mask[None]


def test_a2_attention_oracles():
    worst = 0.0

    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        m, n, d = (int(rng.integers(1, 6)) for _ in range(3))
        d += 2
        q, k, v = (rng.standard_normal(s) for s in ((m, d), (n, d), (n, d)))
        mask = _rand_mask(rng, n)
        got_out, got_w = sdpa(Tensor(q[None]), Tensor(k[None]), Tensor(v[None]),
                              _batch_of_one(mask))
        want_out, want_w = _np_sdpa(q, k, v, mask)
        worst = max(worst, np.abs(got_out.data[0] - want_out).max(),
                    np.abs(got_w.data[0] - want_w).max())

    for seed in range(100):
        rng = np.random.default_rng(21_000 + seed)
        h = int(rng.choice([1, 2, 4]))
        d_model, m, n = 8, int(rng.integers(1, 6)), int(rng.integers(1, 6))
        p = init_mha(rng, d_model, h)
        x = rng.standard_normal((m, d_model))
        g = rng.standard_normal((n, d_model))
        mask = _rand_mask(rng, n)
        got, _ = multi_head(Tensor(x[None]), Tensor(g[None]), Tensor(g[None]), p,
                            _batch_of_one(mask))
        d_head = d_model // h
        heads = []
        for i in range(h):
            cols = slice(i * d_head, (i + 1) * d_head)
            heads.append(_np_sdpa(x @ p.wq.data[:, cols], g @ p.wk.data[:, cols],
                                  g @ p.wv.data[:, cols], mask)[0])
        want = np.concatenate(heads, axis=1) @ p.wo.data
        worst = max(worst, np.abs(got.data[0] - want).max())

    for seed in range(100):
        rng = np.random.default_rng(22_000 + seed)
        m, d = int(rng.integers(1, 7)), 4
        Z = rng.standard_normal((m, d))
        p = init_reduction(rng, d, d)
        mask = _rand_mask(rng, m) if m > 1 else None
        pooled, alpha = reduce(Tensor(Z[None]), _batch_of_one(mask), p.mlp_q)
        lin, last = p.mlp_q.lin1, p.mlp_q.lin2
        hidden = np.maximum(Z @ lin.weight.data + lin.bias.data, 0.0)
        scores = (hidden @ last.weight.data + last.bias.data)[:, 0]
        if mask is not None:
            scores[~mask] = scores[~mask] - 1e9
        e = np.exp(scores - scores.max())
        want_alpha = e / e.sum()
        want = np.zeros(d)
        for i in range(m):
            want += want_alpha[i] * Z[i]
        worst = max(worst, np.abs(alpha.data[0] - want_alpha).max(),
                    np.abs(pooled.data[0] - want).max())

    for seed in range(100):
        rng = np.random.default_rng(23_000 + seed)
        p = init_reduction(rng, 6, 6)
        p.ln.beta.data = rng.standard_normal(6)
        zq = rng.standard_normal((1, 6))
        zr = rng.standard_normal((1, 6))
        got = fuse(Tensor(zq), Tensor(zr), p).data
        want = np_layer_norm(zq @ p.w1.data + zr @ p.w2.data)
        want = p.ln.gamma.data * want + p.ln.beta.data
        worst = max(worst, np.abs(got - want).max())

    _verdict("A2 attention oracles", worst < 1e-10,
             f"worst abs diff {worst:.2e} over 400 instances")


# -- A3 --------------------------------------------------------------------


def test_a3_learnability(tmp_path):
    insts = synth_generate(7, 32)
    t0 = time.perf_counter()
    result = train(TrainConfig(), insts, [], tmp_path / "default")
    elapsed = time.perf_counter() - t0
    final = result.final_report
    ok = (final.train_q2a >= 0.95 and len(result.reports) <= 200
          and elapsed < 300.0)
    _verdict("A3 learnability", ok,
             f"Q2A {final.train_q2a:.3f} after {len(result.reports)} epochs, "
             f"{elapsed:.1f}s")

    for name, cfg in [("ga=false", TrainConfig(ga=False, epochs=3)),
                      ("encoder=lstm", TrainConfig(encoder="lstm", epochs=3))]:
        res = train(cfg, insts, [], tmp_path / name)
        assert all(np.isfinite(r.mean_loss) for r in res.reports), name


# -- A4 --------------------------------------------------------------------


def _random_records(rng, n):
    q2a, qa2r = [], []
    for i in range(n):
        for task, bucket in ((TASK_Q2A, q2a), ("QA2R", qa2r)):
            bucket.append(PredictionRecord(
                instance_id=f"i{i}", task=task, logits=[0.0] * 4,
                pred=int(rng.integers(4)), gold=int(rng.integers(4))))
    return q2a, qa2r


def test_a4_metric_conjunction(tmp_path):
    worst_gap = 0.0
    for trial in range(200):
        rng = np.random.default_rng(30_000 + trial)
        q2a, qa2r = _random_records(rng, int(rng.integers(1, 50)))
        report = metrics_report(q2a, qa2r)
        both = [r.correct and a.correct
                for a, r in zip(q2a, qa2r)]
        manual = sum(both) / len(both)
        assert report["q2ar"] == manual
        assert report["q2ar"] <= min(report["q2a"], report["qa2r"])
        worst_gap = max(worst_gap, abs(report["q2ar"] - manual))

    # and on a real evaluation
    insts = synth_generate(5, 24)
    cfg = TrainConfig(d_model=8, d_token=8, layers=1, dropout=0.0)
    model = VcrModel.build(cfg, Vocab.build(insts), insts[0].objects.shape[1],
                           np.random.default_rng(0))
    metrics = evaluate(model, insts)
    assert metrics["q2ar"] <= min(metrics["q2a"], metrics["qa2r"])
    _verdict("A4 metric conjunction", True,
             f"exact on 200 random runs + 1 live run, gap {worst_gap:.1e}")


# -- A5 --------------------------------------------------------------------


def test_a5_simplex_invariants(tmp_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert cli.main(["synth", "--n", "8", "--seed", "3", "--out", str(data)]) == 0
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--d-model", "8", "--d-token", "8", "--layers", "1",
                     "--dropout", "0.0", "--epochs", "1"]) == 0
    inst_id = json.loads(
        (data / cli.TRAIN_FILE).read_text().splitlines()[0])["instance_id"]
    traces = tmp_path / "traces"
    assert cli.main(["inspect", "--ckpt", str(run / "model.canckpt"),
                     "--data", str(data), "--instance-id", inst_id,
                     "--out", str(traces)]) == 0
    capsys.readouterr()

    checked = 0
    pad_columns = 0
    worst = 0.0
    for path in sorted(traces.glob("*.json")):
        if path.name.endswith("prediction.json"):
            continue
        blob = json.loads(path.read_text())
        keys = blob["key_tokens"]
        for head in blob["heads"]:
            matrix = np.asarray(head)
            assert matrix.shape[1] == len(keys), path.name
            worst = max(worst, np.abs(matrix.sum(axis=1) - 1.0).max())
            for j, token in enumerate(keys):
                if token == "<pad>":
                    pad_columns += 1
                    npt.assert_array_equal(matrix[:, j], 0.0)
            checked += 1
    ok = checked >= 16 and pad_columns > 0 and worst <= 1e-6
    _verdict("A5 simplex invariants", ok,
             f"{checked} matrices, {pad_columns} padded columns all zero, "
             f"worst row-sum drift {worst:.1e}")


# -- A6 --------------------------------------------------------------------


def test_a6_determinism(tmp_path):
    insts = synth_generate(13, 8)
    # an unsatisfiable pair (same content, different gold) keeps training
    # from fitting perfectly, so the run spans all three epochs
    clash = dataclasses.replace(insts[2], instance_id="clash",
                                gold_answer=(insts[2].gold_answer + 1) % 4)
    train_split = insts[2:] + [clash]
    cfg = TrainConfig(d_model=8, d_token=8, layers=1, epochs=3, patience=50)
    a = train(cfg, train_split, insts[:2], tmp_path / "a")
    b = train(cfg, train_split, insts[:2], tmp_path / "b")

    bytes_a = (tmp_path / "a" / "model.canckpt").read_bytes()
    bytes_b = (tmp_path / "b" / "model.canckpt").read_bytes()
    reports_equal = [r.core() for r in a.reports] == [r.core() for r in b.reports]
    ok = bytes_a == bytes_b and reports_equal and len(a.reports) >= 2
    _verdict("A6 determinism", ok,
             f"checkpoints {'identical' if bytes_a == bytes_b else 'DIFFER'}, "
             f"{len(a.reports)} epoch reports equal (wall time excluded)")


# -- A7 --------------------------------------------------------------------


def test_a7_chance_baseline():
    insts = synth_generate(7, 2000)
    cfg = TrainConfig(d_model=8, d_token=8, layers=1, dropout=0.0)
    model = VcrModel.build(cfg, Vocab.build(insts), insts[0].objects.shape[1],
                           np.random.default_rng(1))
    metrics = evaluate(model, insts)
    ok = (0.20 <= metrics["q2a"] <= 0.30
          and 0.20 <= metrics["qa2r"] <= 0.30
          and 0.01 <= metrics["q2ar"] <= 0.12)
    _verdict("A7 chance baseline", ok,
             f"Q2A {metrics['q2a']:.4f}, QA2R {metrics['qa2r']:.4f}, "
             f"Q2AR {metrics['q2ar']:.4f} on n=2000")
