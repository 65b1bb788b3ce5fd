"""Per-layer tracing of vcrnet, installed from outside the package.

`Tracer.install()` replaces selected functions and methods of the loaded
vcrnet modules with wrappers that time each call as a span and count the
work it did; `uninstall()` puts the originals back. Nothing under `src/`
knows about it. Spans are aggregated as they close (inclusive and self
time per name) instead of being stored, because the gradient battery opens
about a million of them.

Only work inside a window opened by `Tracer.window()` feeds the per-unit
numbers; spans outside it (set-up) still feed the per-call numbers such as
`data.*` and `checkpoint.*`.
"""

from __future__ import annotations

import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

from vcrnet import (
    attention,
    checkpoint,
    coattention,
    diagnostics,
    grounding,
    layers,
    model,
    reduction,
    tensor,
    training,
)

STAGES = ("encode", "fuse", "joint", "head")

# backward-rule owners as `tensor._result` sees them (the qualified name of
# the function that built the rule); any other kind is counted as "other"
OP_KINDS = (
    "add", "sub", "neg", "_add_const", "mul", "_mul_const", "matmul",
    "_reduce", "relu", "tanh", "sigmoid", "log", "softmax", "concat",
    "dropout", "embedding_lookup", "Tensor.reshape", "Tensor.transpose",
    "Tensor.slice", "layer_norm", "sdpa", "_run_direction",
)

_perf = time.perf_counter


def op_kind(qualname: str) -> str:
    """`matmul.<locals>.<lambda>` -> `matmul`."""
    return qualname.split(".<locals>", 1)[0]


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.open = []  # stack of [name, start, child_seconds, in_window]
        self.incl = defaultdict(float)  # name -> inclusive seconds
        self.calls = Counter()  # name -> closed spans
        self.win_incl = defaultdict(float)  # the same, inside windows only
        self.win_self = defaultdict(float)  # self seconds inside windows
        self.win_calls = Counter()
        self.counts = Counter()  # window-only work counters
        self.counts_all = Counter()  # counters over the whole traced run
        self.ops = Counter()  # window-only op counts by rule qualname
        self.stage_bwd = defaultdict(float)  # window-only backward seconds
        self.in_window = 0
        self._tapes = []
        self._ranges = weakref.WeakKeyDictionary()  # tape -> [(lo, hi, stage)]
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self.open.append([name, _perf(), 0.0, self.in_window > 0])

    def end(self) -> None:
        name, start, child, in_window = self.open.pop()
        dur = _perf() - start
        if self.open:
            self.open[-1][2] += dur
        self.incl[name] += dur
        self.calls[name] += 1
        if in_window:
            self.win_incl[name] += dur
            self.win_self[name] += dur - child
            self.win_calls[name] += 1

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def window(self, name: str):
        """A unit of measured work: a root span whose contents are per-unit."""
        self.in_window += 1
        try:
            with self.span(name):
                yield
        finally:
            self.in_window -= 1

    def count(self, key: str, n: int = 1) -> None:
        if self.in_window:
            self.counts[key] += n

    # -- patching ------------------------------------------------------------

    def _replace(self, orig, wrapped) -> None:
        """Swap `orig` for `wrapped` wherever a vcrnet module holds it."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vcrnet" or mod_name.startswith("vcrnet.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))
                    found = True
        if not found:
            raise RuntimeError(f"no vcrnet module holds {orig!r}")

    def _set_attr(self, owner, key, wrapped) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapped)

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(args, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def _install(self) -> None:
        tracer = self
        T = tensor

        # every tensor op passes through _result, taped or not
        orig_result = T._result

        def counted_result(data, inputs, rule):
            if tracer.in_window:
                tracer.ops[rule.__qualname__] += 1
            return orig_result(data, inputs, rule)

        self._replace(orig_result, counted_result)

        # tapes: remember the open ones so stages can note their index range
        orig_enter, orig_exit = T.Tape.__enter__, T.Tape.__exit__
        orig_seed = T.Tape.seed

        def enter(tape):
            out = orig_enter(tape)
            tracer._tapes.append(tape)
            return out

        def exit_(tape, *exc):
            tracer._tapes.pop()
            tracer.count("tensor.tape_entries", len(tape))
            return orig_exit(tape, *exc)

        def seed(tape, output, seed_grad):
            # backward time per stage: wrap the rules of each stage's entries
            entries = tape._entries
            for lo, hi, stage in tracer._ranges.pop(tape, ()):
                for i in range(lo, hi):
                    inputs, out, rule = entries[i]
                    entries[i] = (inputs, out, tracer._bwd_rule(rule, stage))
            tracer.begin("tensor.backward")
            try:
                return orig_seed(tape, output, seed_grad)
            finally:
                tracer.end()

        self._set_attr(T.Tape, "__enter__", enter)
        self._set_attr(T.Tape, "__exit__", exit_)
        self._set_attr(T.Tape, "seed", seed)

        for stage in STAGES:
            key = f"_stage_{stage}"
            self._set_attr(model.VcrModel, key,
                           self._stage(stage, model.VcrModel.__dict__[key]))

        def bilstm_steps(args, out):
            tracer.count("layers.bilstm.steps", 2 * args[0].data.shape[0])

        def unit_calls(args, out):
            tracer.count("attention.unit.calls")

        def sdpa_calls(args, out):
            tracer.count("attention.sdpa.calls")

        def ckpt_bytes(args, out):
            tracer.counts_all["checkpoint.bytes"] += os.path.getsize(args[0])

        for name, fn, after in (
            ("layers.bilstm", layers.bilstm, bilstm_steps),
            ("grounding.ground", grounding.ground, None),
            ("grounding.align_tags", grounding.align_tags, None),
            ("grounding.guided_fuse", grounding.guided_fuse, None),
            ("attention.unit", attention.guided_attention_unit, unit_calls),
            ("attention.sdpa", attention.sdpa, sdpa_calls),
            ("coattention.coattend", coattention.coattend, None),
            ("reduction", reduction.reduce, None),
            ("reduction", reduction.fuse, None),
            ("reduction", reduction.candidate_logit, None),
            ("training.eval", training.evaluate, None),
            ("checkpoint.write", checkpoint.write_checkpoint, ckpt_bytes),
            ("checkpoint.read", checkpoint.read_checkpoint, None),
            ("diagnostics.layer_checks", diagnostics.layer_checks, None),
            ("diagnostics.end_to_end", diagnostics.end_to_end_checks, None),
        ):
            self._replace(fn, self._timed(name, fn, after))
        self._set_attr(training.Adam, "step",
                       self._timed("training.adam_step", training.Adam.__dict__["step"]))

    def _stage(self, stage: str, fn):
        tracer = self
        name = f"model.{stage}"

        def wrapped(vcr_model, *args, **kwargs):
            tape = tracer._tapes[-1] if tracer._tapes else None
            before = len(tape) if tape is not None else 0
            tracer.begin(name)
            try:
                out = fn(vcr_model, *args, **kwargs)
            finally:
                tracer.end()
            if tape is not None and tracer.in_window:
                tracer._ranges.setdefault(tape, []).append((before, len(tape), stage))
                tracer.count(f"{name}.tape_entries", len(tape) - before)
            if any(span[0].startswith("diagnostics.") for span in tracer.open):
                tracer.count("diagnostics.stage_calls")
            if stage == "encode":
                for seq in out.grounded_rs:
                    tracer.count("model.candidate_rows", seq.mask.size)
                    tracer.count("model.padded_rows", int((~seq.mask).sum()))
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _bwd_rule(self, rule, stage: str):
        acc = self.stage_bwd

        def timed(g):
            t0 = _perf()
            out = rule(g)
            acc[stage] += _perf() - t0
            return out

        return timed
