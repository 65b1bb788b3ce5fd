"""Dense tensors with reverse-mode automatic differentiation.

Everything downstream (layers, attention, the full model) is expressed in
the operations defined here, plus the fused ops its modules build with
`record_op` (`linear`, `layer_norm`, `feed_forward`, `sdpa`, `multi_head`,
`bilstm`, the loss). Each op computes its result eagerly with numpy and,
when a Tape is active and an input participates in gradients, records a
backward rule onto that tape.
Gradients are recovered by walking the tape in reverse execution order,
which is a valid reverse-topological order because an operation's inputs
always exist before the operation runs.

The op set is `matmul` (`a @ b`), `concat`, `repeat`, `embedding_lookup`,
and the methods `Tensor.reshape` and `Tensor.slice`; none permutes axes,
as every sequence is batch-major. An op stays here only while the program
runs it; one training epoch reaches every one. Sums, nonlinearities and
softmaxes live inside the fused ops, e.g. the residual sum in `layer_norm`,
the relu in `feed_forward` and the masked softmax in `sdpa` and
`multi_head`.

Broadcasting is deliberately restricted: `matmul` applies one 2-d right
operand to every leading index of the left, or pairs two batches row by
row.
A batch is a leading axis; `repeat` copies each of its rows so that one
row can meet several partners row by row. This keeps every backward rule
auditable.

A backward pass writes `.grad` on leaves only, i.e. tensors that no entry
of the tape produced (parameters and inputs); intermediate gradients are
freed as soon as the entry that consumed them has run. A tape is seeded
once: the walk releases each entry, with its inputs, its output, its
backward rule and every array the rule saved, as soon as the rule has run,
so the backward holds only what the entries still waiting to run need.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "record_op",
    "matmul",
    "concat",
    "repeat",
    "embedding_lookup",
    "grad_check",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """A dense n-dimensional value that can participate in gradient taping.

    `data` is a row-major float64 numpy array; `grad`, once populated by a
    backward pass, always has the same shape as `data`. Tensors are
    value-like: no op ever mutates an existing tensor's data or grad in place.
    A model's parameters are views into its flat buffer (`VcrModel.flat`),
    which Adam and `load_state_dict` write in place; ops still never do.
    """

    __slots__ = ("data", "requires_grad", "grad")
    # numpy refuses a Tensor operand, so an ndarray on either side of `@` or
    # an arithmetic operator is a TypeError rather than an object-array or
    # 0-d matmul attempt
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    def __repr__(self) -> str:
        rg = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{rg})"

    # -- operator form; both operands must be tensors --

    def __matmul__(self, other):
        if isinstance(other, Tensor):
            return matmul(self, other)
        return NotImplemented

    # -- shape ops as methods, numpy-style --

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _result(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def slice(self, axis: int, start: int, stop: int) -> "Tensor":
        """Contiguous block along one axis; gradient scatters back."""
        nd = self.data.ndim
        if not -nd <= axis < nd:
            raise ShapeError(f"slice axis {axis} out of range for shape {self.data.shape}")
        axis = axis % nd
        extent = self.data.shape[axis]
        if not (0 <= start < stop <= extent):
            raise ShapeError(
                f"slice [{start}:{stop}] out of bounds on axis {axis} of shape {self.data.shape}"
            )
        index = tuple(slice(start, stop) if d == axis else slice(None) for d in range(nd))
        src_shape = self.data.shape

        def rule(g):
            full = np.zeros(src_shape, dtype=g.dtype)
            full[index] = g
            return (full,)

        return _result(self.data[index], (self,), rule)


# -- tape ------------------------------------------------------------------

# the open tapes, innermost last; ops record onto the innermost. The
# program runs on one thread, so one module-level stack serves every tape.
_TAPES: list = []


class Tape:
    """Ordered record of operations for one forward pass.

    Entries are appended in execution order, so every operation's inputs
    precede it; the backward walk visits entries once, in reverse. The walk
    consumes the tape: it releases each entry, so a tape is seeded once.
    """

    def __init__(self):
        # an entry is None once the backward walk has released it
        self._entries: list[Optional[tuple[tuple[Tensor, ...], Tensor, Callable]]] = []
        self._seeded = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def first_non_finite(self) -> Optional[tuple[int, str]]:
        """(index, op kind) of the first entry whose output holds NaN or Inf.

        The op kind is the name of the function that built the entry's
        backward rule, e.g. `concat` or `Tensor.reshape`; None if every
        output is finite. Raises RuntimeError once the tape has been seeded,
        because seeding released the rules that name the kinds.
        """
        self._check_unseeded("first_non_finite")
        for i, (_, out, rule) in enumerate(self._entries):
            if not np.isfinite(out.data).all():
                return i, rule.__qualname__.split(".<locals>", 1)[0]
        return None

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(leaf) onto every requires_grad leaf.

        `loss` must be a scalar. A loss with no recorded dependencies leaves
        all other gradients untouched (i.e. zero). This seeds the tape, which
        is done once (see `seed`).
        """
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self.seed(loss, np.ones_like(loss.data))

    def seed(self, output: "Tensor", seed_grad: np.ndarray) -> None:
        """Propagate an arbitrary output gradient.

        `train` seeds each chunk's per-task losses with the mini-batch's
        1/instances weight, and `grad_check` seeds a random projection.

        A tape is seeded once; a second call raises RuntimeError. The walk
        takes each entry out of the tape as it reaches it and frees it, with
        its inputs, its output and every array its rule saved, once the rule
        returns; the entry's output gradient is dropped then too. So a
        backward pass holds only the entries and gradients still waiting to
        run. Only leaves (tensors no entry produced) get their totals added
        into `.grad`, so seeding the tapes of several forwards sums their
        gradients.
        """
        self._check_unseeded("seed")
        if seed_grad.shape != output.data.shape:
            raise ShapeError(
                f"seed gradient shape {seed_grad.shape} != output shape {output.data.shape}"
            )
        self._seeded = True
        entries = self._entries
        produced = {id(out) for _, out, _ in entries}
        pending: dict[int, np.ndarray] = {id(output): seed_grad}
        leaves: dict[int, Tensor] = {}
        if id(output) not in produced:
            leaves[id(output)] = output
        # the id() keys stay sound although walked entries are freed: no
        # tensor is created during the walk, and a pending tensor is held by
        # its producer, which has not run yet, or by `leaves`
        for i in range(len(entries) - 1, -1, -1):
            inputs, out, rule = entries[i]
            entries[i] = None
            g = pending.pop(id(out), None)
            if g is None:
                continue
            grads = rule(g)
            rule = None  # the last reference: its closure is freed here
            for tensor, gi in zip(inputs, grads):
                if gi is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                cur = pending.get(key)
                if cur is None:
                    pending[key] = gi
                    if key not in produced:
                        leaves[key] = tensor
                else:
                    pending[key] = cur + gi
        for key, tensor in leaves.items():
            if not tensor.requires_grad:
                continue
            total = pending[key]
            tensor.grad = total.copy() if tensor.grad is None else tensor.grad + total

    def _check_unseeded(self, what: str) -> None:
        if self._seeded:
            raise RuntimeError(
                f"{what}: this tape was seeded already, which released its backward "
                f"rules; a tape is seeded once"
            )


def _result(data: np.ndarray, inputs: tuple, rule: Callable) -> Tensor:
    # flat and allocation-light: this sits under every tensor op
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
            break
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires
    out.grad = None
    if requires and _TAPES:
        _TAPES[-1]._entries.append((inputs, out, rule))
    return out


def record_op(data, inputs: Sequence[Tensor], rule: Callable) -> Tensor:
    """Build a custom differentiable op.

    `rule` maps the upstream gradient (an ndarray shaped like `data`) to one
    gradient per input, in order; return None for an input that gets no
    gradient. Returned arrays must be fresh or safe to share, never later
    mutated in place.
    """
    return _result(np.asarray(data, dtype=np.float64), tuple(inputs), rule)


# -- arithmetic ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (k, n), or a batch (B, m, k) @ (B, k, n) pair by pair."""
    ad, bd = a.data, b.data
    paired = bd.ndim == ad.ndim == 3 and bd.shape[0] == ad.shape[0]
    if ad.ndim < 2 or not (bd.ndim == 2 or paired) or ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    if ad.ndim == 2 or paired:
        def rule(g):
            return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g
    else:
        k, n = bd.shape

        # b is shared by every leading index of a, so its gradient sums them
        def rule(g):
            return g @ bd.T, ad.reshape(-1, k).T @ g.reshape(-1, n)

    return _result(ad @ bd, (a, b), rule)


# -- structural ops --------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    arrays = [t.data for t in tensors]
    nd = arrays[0].ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"concat axis {axis} out of range for rank {nd}")
    axis = axis % nd
    for arr in arrays[1:]:
        if arr.ndim != nd or any(
            arr.shape[d] != arrays[0].shape[d] for d in range(nd) if d != axis
        ):
            raise ShapeError(
                f"concat: incompatible shapes {[a.shape for a in arrays]} on axis {axis}"
            )
    offsets = np.cumsum([a.shape[axis] for a in arrays])[:-1]

    def rule(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _result(np.concatenate(arrays, axis=axis), tuple(tensors), rule)


def repeat(x: Tensor, count: int) -> Tensor:
    """Each row (leading-axis entry) of x copied `count` times in place, so
    row i becomes rows i·count .. i·count + count - 1; the gradient sums the
    copies back."""
    if count < 1:
        raise ShapeError(f"repeat count must be positive, got {count}")
    xd = x.data
    if xd.ndim < 1:
        raise ShapeError("repeat needs a tensor with a leading axis")
    shape = xd.shape

    def rule(g):
        return (g.reshape((shape[0], count) + shape[1:]).sum(axis=1),)

    return _result(np.repeat(xd, count, axis=0), (x,), rule)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of `table`; the gradient scatter-adds back into it."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got shape {table.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a flat sequence")
    vocab = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(f"embedding id out of range for table with {vocab} rows")
    td = table.data

    def rule(g):
        gt = np.zeros_like(td)
        np.add.at(gt, idx, g)
        return (gt,)

    return _result(td[idx], (table,), rule)


# -- verification ----------------------------------------------------------


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between taped and central-difference gradients.

    Scalarizes f through a fixed random projection of its output (a plain
    sum would miss errors in ops whose rows sum to a constant, like
    softmax), then compares d/dx of that scalar coordinate by coordinate:
    |analytic - numeric| / max(1, |analytic|).
    """
    base = Tensor(np.array(x.data, dtype=np.float64, copy=True), requires_grad=True)
    with Tape() as tape:
        y = f(base)
    w = np.random.default_rng(seed).standard_normal(y.data.shape)
    tape.seed(y, w)
    analytic = base.grad if base.grad is not None else np.zeros_like(base.data)

    numeric = np.zeros_like(base.data)
    flat = base.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float((w * f(base).data).sum())
        flat[i] = orig - h
        down = float((w * f(base).data).sum())
        flat[i] = orig
        nflat[i] = (up - down) / (2.0 * h)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max()) if rel.size else 0.0
