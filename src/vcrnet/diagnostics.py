"""Gradient integrity checks.

Two levels: `layer_checks` sweeps every building block in isolation, and
`end_to_end_checks` sweeps every parameter coordinate of a small but
complete model against central differences of the real training loss.

The end-to-end sweep reruns only what a perturbed parameter reaches, split
at its restart point (`restart_points`) in two. The part reads the
parameter, on the unperturbed state before it. For a parameter of an
attention unit, it is the one sublayer of that unit that reads the
parameter: the multi-head attention, a residual LayerNorm or the
feed-forward, run alone as one step of the unit's chain from the
unperturbed state before it, one tensor. Guided fusion is one chain and
each co-attention side's stack is one chain, and `_chain_restarts` runs
every one of them through `attention.run_chain`. For any other parameter,
it is the `_stage_*` step of the stage the parameter feeds
(`model.stage_of`).
The rest reads none of the part's parameters: the later steps of the
chain, then the stages after the part's in `model.STAGES`, then the loss.
It runs once per block of BLOCK coordinates, after each perturbation is
undone: the 2·BLOCK states of the block's +h / -h passes, laid end to end
along the batch axis, are one chunk of as many copies of the probe task,
and the rest of the forward gives one loss per copy. The rows of one task
never meet another task's, so each copy's loss is that of its state run
alone. A head parameter's part is the head itself, so its rest only
scores the stacked logits.

Before any sweeping starts, every part and rest is asserted (exactly, not
approximately) to reproduce the full loss in each row of a stack of
unperturbed copies, at the smallest and at the largest block. Each
end-to-end result names the coordinate of its largest error; a NaN error
ranks above every number, so it fails its stage.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from vcrnet import layers as L
from vcrnet.attention import chain_steps, guided_attention_unit, init_attn_unit, run_chain, sdpa
from vcrnet.coattention import join, side_chain
from vcrnet.config import TrainConfig
from vcrnet.data import TASK_Q2A, TaggedToken, VcrInstance, Vocab, make_task
from vcrnet.grounding import align_tags, fuse_chain
from vcrnet.model import CANDIDATES, STAGES, VcrModel, stage_of
from vcrnet.reduction import candidate_logit, fuse, init_reduction, reduce
from vcrnet.tensor import Tensor, Tape, grad_check, repeat
from vcrnet.training import task_loss

# coordinates per block of the end-to-end sweep: their 2·BLOCK perturbed
# states share one run of the forward's rest
BLOCK = 16
# the central-difference step of every sweep
H = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    coords: int
    seconds: float
    # an end-to-end sweep's coordinate of largest error, e.g. "ground.b[13]"
    worst_at: Optional[str] = None

    def to_json_dict(self) -> dict:
        """The result as strict JSON: a non-finite error is written as null."""
        err = float(self.max_rel_err)
        blob = {
            "name": self.name,
            "max_rel_err": err if math.isfinite(err) else None,
            "coords": self.coords,
            "seconds": round(self.seconds, 3),
        }
        if self.worst_at is not None:
            blob["worst_at"] = self.worst_at
        return blob


def _timed(name: str, coords: int, fn: Callable[[], float]) -> CheckResult:
    t0 = time.perf_counter()
    err = fn()
    # plain floats: numpy scalars leak into JSON reports otherwise
    return CheckResult(name, float(err), coords, time.perf_counter() - t0)


def _installed(obj, key: str, fn: Callable[[], Tensor]) -> Callable[[Tensor], Tensor]:
    """Adapt `fn` for grad_check by temporarily installing its probe tensor."""

    def wrapped(t: Tensor) -> Tensor:
        old = getattr(obj, key)
        setattr(obj, key, t)
        try:
            return fn()
        finally:
            setattr(obj, key, old)

    return wrapped


def layer_checks() -> list:
    """Per-coordinate gradient sweeps for each building block in isolation.

    Each block draws its inputs from a generator of its own seed, so adding
    or changing a block leaves every other block's inputs as they were.
    """
    results = []

    def check(name, fn, x):
        results.append(_timed(name, x.data.size, lambda: grad_check(fn, x, h=H)))

    def check_params(label, params, out):
        # every tensor of `params`, named `label.<path>`, each in turn
        # installed where that path finds it
        for name, tensor in L.named_tensors(params, label):
            *path, attr = name[len(label) + 1:].split(".")
            holder = functools.reduce(getattr, path, params)
            check(name, _installed(holder, attr, out), tensor)

    # linear
    rng = np.random.default_rng(42)
    lin = L.init_linear(rng, 5, 3)
    x = Tensor(rng.standard_normal((4, 5)))
    check("linear/x", lambda t: L.linear(t, lin), x)
    check("linear/weight", _installed(lin, "weight", lambda: L.linear(x, lin)), lin.weight)
    check("linear/bias", _installed(lin, "bias", lambda: L.linear(x, lin)), lin.bias)

    # layer norm
    rng = np.random.default_rng(43)
    ln = L.init_layer_norm(6)
    ln.gamma.data = rng.uniform(0.5, 1.5, 6)
    ln.beta.data = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((3, 6)))
    check("layer_norm/x", lambda t: L.layer_norm(t, ln), x)
    check("layer_norm/gamma", _installed(ln, "gamma", lambda: L.layer_norm(x, ln)), ln.gamma)
    check("layer_norm/beta", _installed(ln, "beta", lambda: L.layer_norm(x, ln)), ln.beta)
    # the residual form LN(x + y), through its second input
    y = Tensor(rng.standard_normal((3, 6)))
    check("layer_norm/residual/y", lambda t: L.layer_norm(x, ln, t), y)

    # feed-forward
    rng = np.random.default_rng(44)
    ffn = L.init_feed_forward(rng, 8, 32, 0.0)
    x = Tensor(rng.standard_normal((3, 8)))
    check("feed_forward/x", lambda t: L.feed_forward(t, ffn), x)
    check_params("feed_forward", ffn, lambda: L.feed_forward(x, ffn))

    # with dropout on: a fresh generator of one seed on every call draws
    # the same mask, so each call is the same function
    ffn_drop = L.init_feed_forward(rng, 8, 32, 0.25)

    def train_ffn(t: Tensor) -> Tensor:
        return L.feed_forward(t, ffn_drop, np.random.default_rng(5))

    check("feed_forward/train/x", train_ffn, x)
    check_params("feed_forward/train", ffn_drop, lambda: train_ffn(x))

    # bidirectional LSTM, including the fused backward-through-time rule,
    # on a batch of one
    rng = np.random.default_rng(46)
    bi = L.init_bilstm(rng, 5, 3)
    x = Tensor(rng.standard_normal((1, 4, 5)))
    check("bilstm/x", lambda t: L.bilstm(t, bi), x)
    check_params("bilstm", bi, lambda: L.bilstm(x, bi))

    # scaled dot-product attention with a partially masked key axis
    rng = np.random.default_rng(47)
    q = Tensor(rng.standard_normal((1, 3, 4)))
    k = Tensor(rng.standard_normal((1, 5, 4)))
    v = Tensor(rng.standard_normal((1, 5, 4)))
    mask = np.array([[True, True, False, True, False]])
    check("sdpa/q", lambda t: sdpa(t, k, v, mask)[0], q)
    check("sdpa/k", lambda t: sdpa(q, t, v, mask)[0], k)
    check("sdpa/v", lambda t: sdpa(q, k, t, mask)[0], v)
    # the same inputs split into two heads of width 2
    check("sdpa/heads2/q", lambda t: sdpa(t, k, v, mask, 2)[0], q)
    check("sdpa/heads2/k", lambda t: sdpa(q, t, v, mask, 2)[0], k)
    check("sdpa/heads2/v", lambda t: sdpa(q, k, t, mask, 2)[0], v)

    # one full guided attention unit, every parameter
    rng = np.random.default_rng(48)
    unit = init_attn_unit(rng, 8, 2, 32, 0.0)
    x = Tensor(rng.standard_normal((1, 3, 8)))
    guide = Tensor(rng.standard_normal((1, 4, 8)))
    gmask = np.array([[True, False, True, True]])
    check("attn_unit/x", lambda t: guided_attention_unit(t, guide, unit, mask=gmask)[0], x)
    check("attn_unit/guide", lambda t: guided_attention_unit(x, t, unit, mask=gmask)[0], guide)
    check_params("attn_unit", unit, lambda: guided_attention_unit(x, guide, unit, mask=gmask)[0])

    # tag alignment
    rng = np.random.default_rng(49)
    emb = Tensor(rng.standard_normal((3, 4)))
    objs = Tensor(rng.standard_normal((2, 5)))
    rows = np.array([-1, 1, 0])  # an untagged token, then tags 1 and 0
    check("align_tags/emb", lambda t: align_tags(rows, t, objs), emb)
    check("align_tags/objects", lambda t: align_tags(rows, emb, t), objs)

    # pooling, fusion, and the candidate head
    rng = np.random.default_rng(50)
    red = init_reduction(rng, 8, 8)
    red.clf.weight.data = rng.uniform(-0.5, 0.5, red.clf.weight.data.shape)
    red.clf.bias.data = rng.uniform(-0.5, 0.5, red.clf.bias.data.shape)
    Z = Tensor(rng.standard_normal((1, 5, 8)))
    zmask = np.array([[True, True, True, False, True]])
    check("reduce/Z", lambda t: reduce(t, zmask, red.mlp_q)[0], Z)
    z_q = Tensor(rng.standard_normal((1, 8)))
    z_r = Tensor(rng.standard_normal((1, 8)))
    check("fuse/z_q", lambda t: fuse(t, z_r, red), z_q)
    check("fuse/z_r", lambda t: fuse(z_q, t, red), z_r)
    check("fuse/w1", _installed(red, "w1", lambda: fuse(z_q, z_r, red)), red.w1)
    check("head/clf_weight",
          _installed(red.clf, "weight", lambda: candidate_logit(fuse(z_q, z_r, red), red)),
          red.clf.weight)

    # four-way cross-entropy
    rng = np.random.default_rng(51)
    logits = Tensor(rng.standard_normal(4))
    check("task_loss/logits", lambda t: task_loss(t, 2), logits)

    # batched forms: a leading batch axis whose rows differ in length
    rng = np.random.default_rng(52)
    q = Tensor(rng.standard_normal((2, 3, 4)))
    k = Tensor(rng.standard_normal((2, 5, 4)))
    v = Tensor(rng.standard_normal((2, 5, 4)))
    bmask = np.array([[True, True, True, True, True], [True, False, True, True, False]])
    check("sdpa/batch/q", lambda t: sdpa(t, k, v, bmask, 2)[0], q)
    check("sdpa/batch/k", lambda t: sdpa(q, t, v, bmask, 2)[0], k)
    check("sdpa/batch/v", lambda t: sdpa(q, k, t, bmask, 2)[0], v)
    # six query rows over five keys and values in one batch row, so each
    # key's and value's gradient sums the terms of every query row
    rng = np.random.default_rng(53)
    k = Tensor(rng.standard_normal((1, 5, 4)))
    v = Tensor(rng.standard_normal((1, 5, 4)))
    grouped = q.reshape(1, 6, 4)
    check("sdpa/shared/k", lambda t: sdpa(grouped, t, v, mask, 2)[0], k)
    check("sdpa/shared/v", lambda t: sdpa(grouped, k, t, mask, 2)[0], v)

    # BiLSTM batch of lengths 4, 2, 3, then the same batch under a step mask
    # with holes, as the lstm encoder's [padded query | padded response]
    # sequences have
    rng = np.random.default_rng(54)
    lengths = np.array([4, 2, 3])
    x = Tensor(rng.standard_normal((3, 4, 5)))
    gaps = np.array([[True, False, True, True], [True, True, False, False],
                     [False, True, False, True]])
    for label, steps in (("bilstm/batch", np.arange(4) < lengths[:, None]),
                         ("bilstm/gap", gaps)):
        # each check runs before `steps` is rebound, so the lambdas see this one
        check(f"{label}/x", lambda t: L.bilstm(t, bi, steps), x)
        check_params(label, bi, lambda: L.bilstm(x, bi, steps))

    rng = np.random.default_rng(55)
    Z = Tensor(rng.standard_normal((3, 5, 8)))
    zmask = np.arange(5) < np.array([[5], [2], [4]])
    check("reduce/batch/Z", lambda t: reduce(t, zmask, red.mlp_q)[0], Z)

    # each row copied once per candidate, as the encode stage copies each
    # task's query and objects
    rng = np.random.default_rng(56)
    x = Tensor(rng.standard_normal((2, 3)))
    check("repeat/x", lambda t: repeat(t, 4), x)

    return results


# -- end-to-end ------------------------------------------------------------


def probe_instance() -> VcrInstance:
    """Smallest instance that exercises everything: 3-token sequences, 2 objects."""

    def tok(text, tag=None):
        return TaggedToken(text, tag)

    def seq(a, b, tag):
        return [tok(a), tok(b, tag), tok("a")]

    return VcrInstance(
        instance_id="probe-0",
        objects=np.arange(4, dtype=float).reshape(2, 2) * 0.1,
        object_labels=["b", "c"],
        question=[tok("a"), tok("b"), tok("c")],
        answers=[seq("a", "b", 0), seq("b", "c", 1), seq("c", "b", 0), seq("d", "c", 1)],
        rationales=[seq("d", "b", 0), seq("a", "c", 1), seq("b", "b", 0), seq("c", "c", 1)],
        gold_answer=1,
        gold_rationale=2,
    ).validate()


def probe_model(inst: Optional[VcrInstance] = None, **overrides) -> VcrModel:
    """Small full model with a randomized head so every gradient is live.

    `overrides` are TrainConfig fields that replace the probe's own, e.g.
    `ga=False` for an ablation or `layers=2`.
    """
    inst = inst or probe_instance()
    fields = dict(d_model=8, d_token=8, heads=2, layers=1, dropout=0.0)
    config = TrainConfig(**{**fields, **overrides})
    model = VcrModel.build(
        config, Vocab.build([inst]), inst.objects.shape[1], np.random.default_rng(3)
    )
    # the classifier ships zero-initialized, which would zero every upstream
    # gradient and make the sweep vacuous
    rng = np.random.default_rng(9)
    lim = 1.0 / np.sqrt(model.config.d_model)
    clf = model.reduction.clf
    clf.weight.data[...] = rng.uniform(-lim, lim, clf.weight.data.shape)
    clf.bias.data[...] = rng.uniform(-lim, lim, clf.bias.data.shape)
    return model


def end_to_end_checks(model: Optional[VcrModel] = None) -> list:
    """Sweep every model parameter coordinate against the training loss.

    Runs on the Q2A task of the probe instance, by default with the probe
    model. Returns one result per forward stage, naming the coordinate of
    its largest error; the union covers every coordinate of every parameter
    exactly once. `model.flat` is left as it was found, also when an
    evaluation raises.
    """
    inst = probe_instance()
    if model is None:
        model = probe_model(inst)
    task = make_task(inst, TASK_Q2A)

    with Tape() as tape:
        loss = task_loss(model.forward_chunk([task]).logits.reshape(CANDIDATES), task.gold)
        tape.backward(loss)
    analytic = model.flat_grad()
    model.zero_grad()

    # every part and rest must reproduce the taped loss bit for bit, in each
    # row of a stack of unperturbed copies as small and as large as a block's
    points = restart_points(model, task)
    base = float(loss.data)
    for where, (part, rest) in points.items():
        state = part()
        for copies in (2, 2 * BLOCK):
            if rest([state] * copies) != [base] * copies:
                raise AssertionError(
                    f"restart {where!r} does not reproduce the loss in a stack of {copies}")

    worst = dict.fromkeys(STAGES, 0.0)
    worst_at = dict.fromkeys(STAGES)
    coords = dict.fromkeys(STAGES, 0)
    seconds = dict.fromkeys(STAGES, 0.0)

    flat = model.flat
    start = 0
    for name, p in model.named_parameters():
        stage = stage_of(name)
        part, rest = points[restart_of(name, points)]
        t0 = time.perf_counter()
        for lo in range(start, start + p.data.size, BLOCK):
            block = range(lo, min(lo + BLOCK, start + p.data.size))
            states = []
            for i in block:
                orig = flat[i]
                try:
                    flat[i] = orig + H
                    states.append(part())
                    flat[i] = orig - H
                    states.append(part())
                finally:
                    flat[i] = orig
            losses = rest(states)
            for i, up, down in zip(block, losses[0::2], losses[1::2]):
                numeric = (up - down) / (2.0 * H)
                err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
                if worst_at[stage] is None or _worse(err, worst[stage]):
                    worst[stage], worst_at[stage] = err, f"{name}[{i - start}]"
        coords[stage] += p.data.size
        seconds[stage] += time.perf_counter() - t0
        start += p.data.size

    return [
        CheckResult(f"end_to_end/{stage}", float(worst[stage]), coords[stage],
                    seconds[stage], worst_at[stage])
        for stage in STAGES
    ]


def _worse(err: float, worst: float) -> bool:
    """Whether `err` ranks above `worst`. A NaN ranks above every number,
    so a NaN central difference becomes its stage's error and fails it."""
    return err > worst or (math.isnan(err) and not math.isnan(worst))


def restart_points(model: VcrModel, task) -> dict:
    """{restart key: (part, rest)} for one task.

    A key is a stage, or for a parameter of an attention unit the name of
    the unit's sublayer that reads it, such as 'fuse.ga_object.ln2' or
    'coattn.q.0.sa.ffn' (see `restart_of`). `part()` reruns what reads a
    parameter that restarts there, and returns its state for one copy of
    the task. `rest(states)` finishes the forward of those states, laid end
    to end as one chunk, and returns one loss per state. A stage's part is
    its `_stage_*` step on the unperturbed state before it, and its rest
    runs the later stages; the head's rest runs none and only scores.
    """

    def losses(stage: str, copies) -> list:
        # the stages after `stage` on a state of copies of the task, then
        # one loss per copy
        for later in STAGES[STAGES.index(stage) + 1:]:
            copies = getattr(model, f"_stage_{later}")(copies, None)
        n = copies.logits.data.shape[0]
        return task_loss(copies.logits, [task.gold] * n).data.tolist()

    points, after = {}, {}
    state = [task]
    for stage in STAGES:
        part = functools.partial(getattr(model, f"_stage_{stage}"), state, None)
        points[stage] = (part, lambda states, stage=stage: losses(stage, _stacked(states)))
        state = after[stage] = part()
    if model.ga_fuse is not None:
        grounded = after["encode"]
        _chain_restarts(points, "fuse", lambda c: fuse_chain(c.q, c.objects, model.ga_fuse),
                        grounded, grounded.r.positions,
                        lambda c, y: losses("fuse", replace(c, r=replace(c.r, positions=y))))
    if model.coattn is not None:
        encoded = after["joint"]
        for side in ("q", "r"):
            # a side's rest scores the head with the other side's unperturbed output
            def chain_of(c, side=side):
                return side_chain(model.coattn, side, getattr(c, side).mask, join(c.q, c.r))

            def finish(c, y, side=side):
                return losses("joint", replace(c, **{f"z_{side}": y}))

            _chain_restarts(points, f"coattn.{side}", chain_of, encoded,
                            getattr(encoded, side).positions, finish)
    return points


def restart_of(name: str, points: dict) -> str:
    """The key of `points` where parameter `name`'s perturbation restarts:
    the longest key that prefixes the name (its sublayer's), otherwise its
    stage."""
    path = name.split(".")
    for end in range(len(path) - 1, 0, -1):
        key = ".".join(path[:end])
        if key in points:
            return key
    return stage_of(name)


def _stacked(states: list):
    """States of one task each, laid end to end along their batch axis as
    one chunk of copies. Traces are dropped: no loss reads them."""
    first = states[0]
    if first is None:
        return None
    if isinstance(first, Tensor):
        return Tensor(np.concatenate([s.data for s in states]))
    if isinstance(first, np.ndarray):
        return np.concatenate(states)
    if isinstance(first, list):
        return []
    return replace(first, **{f.name: _stacked([getattr(s, f.name) for s in states])
                             for f in fields(first)})


def _chain_restarts(points: dict, prefix: str, chain_of, base, x: Tensor, finish) -> None:
    """Add '<prefix>.<unit>.<sublayer>' -> (part, rest) to `points` for each
    (unit, sublayer) step of the attention-unit chain `chain_of(base)`,
    which runs on x; `base` is an unperturbed state.

    A step's state is one tensor (see `attention.run_chain`). A part runs
    its one step of base's chain on the unperturbed state before it (x
    before the first) and returns the state after it. A rest runs the later
    steps of the chain of one copy of `base` per state, and
    `finish(copies, output)` returns their losses.
    """
    chain = chain_of(base)
    steps = chain_steps(chain)

    def part(step, state):
        return run_chain(state, chain, (step,))[0]

    def rest(later, states):
        copies = _stacked([base] * len(states))
        return finish(copies, run_chain(_stacked(states), chain_of(copies), later)[0])

    for at, (unit, sub) in enumerate(steps):
        start = functools.partial(part, steps[at], x)
        points[f"{prefix}.{unit}.{sub}"] = (start, functools.partial(rest, steps[at + 1:]))
        x = start()


def run_all() -> list:
    """Layer sweeps followed by the staged end-to-end sweep."""
    return layer_checks() + end_to_end_checks()
