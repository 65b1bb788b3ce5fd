"""Shared oracle-style helpers for the test suite."""

import struct

import numpy as np
import numpy.testing as npt

from vcrnet import attention as A
from vcrnet import tensor as T
from vcrnet.checkpoint import MAGIC, VERSION, read_checkpoint, write_checkpoint
from vcrnet.coattention import coattend, lstm_encode
from vcrnet.data import TASK_Q2A, make_task
from vcrnet.diagnostics import H, probe_instance
from vcrnet.grounding import GroundedSeq, align_tags, ground, guided_fuse
from vcrnet.layers import FeedForwardParams, LinearParams, init_layer_norm, layer_norm, linear
from vcrnet.reduction import candidate_logit, fuse, reduce
from vcrnet.layers import _expit as expit
from vcrnet.model import CANDIDATES, stage_of, task_lengths
from vcrnet.tensor import ShapeError, Tape, Tensor, record_op
from vcrnet.training import task_loss


def np_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def add(a, b):
    """The elementwise sum of two tensors of one shape, as its own op."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape}")
    return record_op(a.data + b.data, (a, b), lambda g: (g, g))


def bias_add(x, b):
    """A 1-d bias added along the last axis of x, as its own op."""
    n = b.data.shape[0]
    return record_op(x.data + b.data, (x, b), lambda g: (g, g.reshape(-1, n).sum(axis=0)))


def composed_linear(x, p):
    """Reference for the fused `layers.linear`: a matmul op, then a bias add op."""
    return bias_add(x @ p.weight, p.bias)


def composed_layer_norm(x, p, y):
    """Reference for the residual `layers.layer_norm(x, p, y)`: an add op,
    then the one-input LayerNorm."""
    return layer_norm(add(x, y), p)


def relu(x):
    """relu as a select of the positive entries, its own op; independent of
    the `np.maximum` that `layers.feed_forward` uses."""
    live = x.data > 0
    return record_op(np.where(live, x.data, 0.0), (x,), lambda g: (g * live,))


def dropout(x, p, rng):
    """Inverted dropout as its own op: survivors scaled by a float factor
    array of 0 and 1/(1-p)."""
    factor = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return record_op(x.data * factor, (x,), lambda g: (g * factor,))


def composed_feed_forward(x, p, rng=None):
    """Reference for the fused `layers.feed_forward`: linear, relu, dropout
    (with a generator and p > 0 only) and linear, each its own op, keeping
    every intermediate."""
    h = relu(composed_linear(x, p.lin1))
    if rng is not None and p.dropout > 0.0:
        h = dropout(h, p.dropout, rng)
    return composed_linear(h, p.lin2)


def softmax(x):
    """Stabilized softmax over the last axis, as its own op."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return record_op(y, (x,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def composed_reduce(Z, mask, p_mlp):
    """Reference for `reduction.reduce`: the score MLP (linear, relu,
    linear), an additive mask bias, a softmax over each sequence and the
    weighted sum of its rows, each its own op. Returns ((B, d) pooled,
    (B, m) weights)."""
    batch, m, d = Z.data.shape
    scores = composed_linear(relu(composed_linear(Z, p_mlp.lin1)), p_mlp.lin2)
    row = scores.reshape(batch, 1, m)
    bias = A.mask_bias(mask, m)
    if bias is not None:
        row = add(row, Tensor(bias.reshape(batch, 1, m)))
    alpha = softmax(row)
    return (alpha @ Z).reshape(batch, d), alpha.reshape(batch, m)


def composed_multi_head(q_in, k_in, v_in, p, mask=None, label="mha"):
    """Reference for the fused `attention.multi_head`: three projection
    matmuls, one `sdpa` and the output matmul, each its own op, keeping
    every intermediate."""
    out, w = A.sdpa(q_in @ p.wq, k_in @ p.wk, v_in @ p.wv, mask, p.heads)
    return out @ p.wo, A.AttentionTrace(unit=label, heads=w.data)


def zero_unit(d, d_ff, h=2):
    """An attention unit with every weight zero (LayerNorms at gamma=1, beta=0)."""

    def zlin(a, b):
        return LinearParams(Tensor(np.zeros((a, b))), Tensor(np.zeros(b)))

    return A.AttnUnitParams(
        mha=A.MhaParams(
            wq=Tensor(np.zeros((d, d))),
            wk=Tensor(np.zeros((d, d))),
            wv=Tensor(np.zeros((d, d))),
            wo=Tensor(np.zeros((d, d))),
            heads=h,
        ),
        ffn=FeedForwardParams(lin1=zlin(d, d_ff), lin2=zlin(d_ff, d)),
        ln1=init_layer_norm(d),
        ln2=init_layer_norm(d),
    )


def all_gradients(tape, output, seed_grad):
    """Reference backward over a tape: every tensor's total gradient, kept to
    the end and summed in the same order as `Tape.seed`. Returns {id: array}."""
    totals = {id(output): seed_grad}
    for inputs, out, rule in reversed(tape._entries):
        g = totals.get(id(out))
        if g is None:
            continue
        for tensor, gi in zip(inputs, rule(g)):
            if gi is None or not tensor.requires_grad:
                continue
            cur = totals.get(id(tensor))
            totals[id(tensor)] = gi if cur is None else cur + gi
    return totals


def padded_positions(chunk):
    """4·n·(longest query + longest response): the padded size of a chunk of n tasks."""
    m_q, w = (max(lengths) for lengths in zip(*map(task_lengths, chunk)))
    return CANDIDATES * len(chunk) * (m_q + w)


def pad_grounded(seq, length):
    """Extend a batch of sequences to width `length` with zero rows masked out."""
    batch, m, d = seq.positions.data.shape
    if length < m:
        raise ShapeError(f"cannot pad length-{m} sequences down to {length}")
    if length == m:
        return seq
    extra = length - m
    return GroundedSeq(
        positions=T.concat([seq.positions, Tensor(np.zeros((batch, extra, d)))], axis=1),
        mask=np.concatenate([seq.mask, np.zeros((batch, extra), dtype=bool)], axis=1),
    )


def loop_forward(model, ex):
    """Score each candidate on its own as a batch of one: the oracle for the
    batched VcrModel forward (no dropout). Returns (logits, one trace list per
    candidate, each trace one candidate's (heads, m, n) slice)."""
    objects = ex.objects
    objects_t = Tensor(objects)
    guide = None if model.ga_fuse is None else GroundedSeq(
        linear(Tensor(objects[None]), model.obj_proj), np.ones((1, len(objects)), dtype=bool))

    def encode(tokens):
        emb = T.embedding_lookup(model.embedding, model.vocab.encode(tokens))
        rows = np.array([-1 if tok.tag is None else tok.tag for tok in tokens])
        aligned = align_tags(rows, emb, objects_t).reshape(1, len(tokens), -1)
        return ground(aligned, [len(tokens)], model.ground_lstm)

    def pool_trace(label, alpha):
        return A.AttentionTrace(label, alpha.data.reshape(1, 1, -1))

    gq = encode(ex.query)
    width = max(len(resp) for resp in ex.responses)
    red = model.reduction
    logits, cand_traces = [], []
    for resp in ex.responses:
        gr = pad_grounded(encode(resp), width)
        traces = []
        if model.ga_fuse is not None:
            gr, traces = guided_fuse(gq, gr, guide, model.ga_fuse)
        if model.coattn is not None:
            z_q, z_r, more = coattend(gq, gr, model.coattn)
        else:
            z_q, z_r, more = lstm_encode(gq, gr, model.encoder_lstm)
        pooled_q, alpha_q = reduce(z_q, gq.mask, red.mlp_q)
        pooled_r, alpha_r = reduce(z_r, gr.mask, red.mlp_r)
        logits.append(candidate_logit(fuse(pooled_q, pooled_r, red), red))
        cand_traces.append([t.row(0) for t in traces + more]
                           + [pool_trace("reduce.q", alpha_q),
                              pool_trace("reduce.r", alpha_r)])
    return T.concat(logits, axis=0).reshape(len(logits)), cand_traces


def bilstm_two_pass(seq, p, mask):
    """Reference for `layers.bilstm`: each direction walks all T steps on its
    own, masking every step, and the two outputs are concatenated."""
    return T.concat([_run_direction(seq, p, mask, 0), _run_direction(seq, p, mask, 1)],
                    axis=-1)


def _run_direction(seq, p, mask, direction):
    """One direction's recurrence over a (B, T, d_in) batch as one tape
    entry, walking all T steps (from T - 1 down for direction 1, the
    backward one) on its own slice of the stacked weights, whose other
    slice gets a zero gradient. Off its live steps (mask (B, T)) a
    sequence's state is frozen by `np.where` and its output row is 0.
    It walks a time-major copy of the batch: the layout is converted with
    numpy on the way in and out, gradients included."""
    x = seq.data.transpose(1, 0, 2)
    mask = mask.T
    shape = x.shape
    m, batch = shape[0], shape[1]
    w_x, w_h, b = p.w_x.data[direction], p.w_h.data[direction], p.b.data[direction]
    d_h = w_h.shape[0]
    positions = list(range(m - 1, -1, -1) if direction else range(m))
    # live[pos] marks the sequences that are real at that time step
    live = mask[:, :, None]

    proj = x @ w_x + b
    gates = np.empty((m, batch, 4 * d_h), dtype=x.dtype)
    c_prevs = np.empty((m, batch, d_h), dtype=x.dtype)
    h_prevs = np.empty((m, batch, d_h), dtype=x.dtype)
    tcs = np.empty((m, batch, d_h), dtype=x.dtype)
    out = np.empty((m, batch, d_h), dtype=x.dtype)

    h = np.zeros((batch, d_h), dtype=x.dtype)
    c = np.zeros((batch, d_h), dtype=x.dtype)
    for j, pos in enumerate(positions):
        z = proj[pos] + h @ w_h
        i = expit(z[:, :d_h])
        f = expit(z[:, d_h:2 * d_h])
        g = np.tanh(z[:, 2 * d_h:3 * d_h])
        o = expit(z[:, 3 * d_h:])
        h_prevs[j] = h
        c_prevs[j] = c
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        gates[j, :, :d_h] = i
        gates[j, :, d_h:2 * d_h] = f
        gates[j, :, 2 * d_h:3 * d_h] = g
        gates[j, :, 3 * d_h:] = o
        tcs[j] = tc
        out[pos] = np.where(live[pos], h_new, 0.0)
        h = np.where(live[pos], h_new, h)
        c = np.where(live[pos], c_new, c)

    def rule(g_out):
        g_out = g_out.transpose(1, 0, 2)
        d_proj = np.zeros((m, batch, 4 * d_h), dtype=x.dtype)
        d_wh = np.zeros_like(w_h)
        dh_next = np.zeros((batch, d_h), dtype=x.dtype)
        dc_next = np.zeros((batch, d_h), dtype=x.dtype)
        for j in range(m - 1, -1, -1):
            pos = positions[j]
            i = gates[j, :, :d_h]
            f = gates[j, :, d_h:2 * d_h]
            g = gates[j, :, 2 * d_h:3 * d_h]
            o = gates[j, :, 3 * d_h:]
            tc = tcs[j]
            # a frozen step passes its state's gradient straight through
            dh = np.where(live[pos], g_out[pos], 0.0) + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            dz = np.where(live[pos], np.concatenate([
                dc * g * i * (1.0 - i),
                dc * c_prevs[j] * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ], axis=1), 0.0)
            d_proj[pos] = dz
            d_wh += h_prevs[j].T @ dz
            dh_next = np.where(live[pos], dz @ w_h.T, dh)
            dc_next = np.where(live[pos], dc * f, dc_next)
        flat = d_proj.reshape(-1, 4 * d_h)
        grads = []
        for param, g in ((p.w_x, x.reshape(-1, shape[-1]).T @ flat), (p.w_h, d_wh),
                         (p.b, flat.sum(axis=0))):
            full = np.zeros_like(param.data)
            full[direction] = g
            grads.append(full)
        return ((flat @ w_x.T).reshape(shape).transpose(1, 0, 2), *grads)

    return record_op(out.transpose(1, 0, 2), (seq, p.w_x, p.w_h, p.b), rule)


def stage_sweep(model):
    """Reference for `diagnostics.end_to_end_checks`: every parameter
    coordinate's central difference reruns the whole forward stage it feeds
    (a co-attention parameter reruns both stacks). Returns one
    (name, max_rel_err, coords, worst_at) per stage, worst_at naming the
    first coordinate of the largest error as "<parameter>[<index>]"; a NaN
    error counts as the largest."""
    task = make_task(probe_instance(), TASK_Q2A)
    gold = task.gold

    def loss_of(chunk):
        return task_loss(chunk.logits.reshape(CANDIDATES), gold)

    with Tape() as tape:
        tape.backward(loss_of(model.forward_chunk([task])))
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for name, p in model.named_parameters()}
    model.zero_grad()

    def head_loss(encoded):
        return float(loss_of(model._stage_head(encoded, None)).data)

    s1 = model._stage_encode([task], None)
    fused = model._stage_fuse(s1, None)
    encoded = model._stage_joint(fused, None)
    evaluators = {
        "encode": lambda: float(loss_of(model.forward_chunk([task])).data),
        "fuse": lambda: head_loss(model._stage_joint(model._stage_fuse(s1, None), None)),
        "joint": lambda: head_loss(model._stage_joint(fused, None)),
        "head": lambda: head_loss(encoded),
    }
    worst = dict.fromkeys(evaluators, 0.0)
    worst_at = dict.fromkeys(evaluators)
    coords = dict.fromkeys(evaluators, 0)
    for name, p in model.named_parameters():
        stage = stage_of(name)
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            up = evaluators[stage]()
            flat[i] = orig - H
            down = evaluators[stage]()
            flat[i] = orig
            err = abs(grad[i] - (up - down) / (2.0 * H)) / max(1.0, abs(grad[i]))
            # a NaN outranks every number and the first NaN stays
            if worst_at[stage] is None or err > worst[stage] or (
                    np.isnan(err) and not np.isnan(worst[stage])):
                worst[stage], worst_at[stage] = err, f"{name}[{i}]"
        coords[stage] += flat.size
    return [(f"end_to_end/{stage}", float(worst[stage]), coords[stage], worst_at[stage])
            for stage in evaluators]


class LoopAdam:
    """Reference for `training.Adam`: one update per parameter, moments
    keyed by name, a missing gradient read as zeros."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name] = self.beta1 * self._m[name] + (1.0 - self.beta1) * g
            v = self._v[name] = self.beta2 * self._v[name] + (1.0 - self.beta2) * g * g
            p.data[...] = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def assert_flat_aliasing(model):
    """Every parameter's data is a view into `model.flat`, and `flat` holds
    the state in checkpoint order."""
    for name, t in model.named_parameters():
        assert np.shares_memory(t.data, model.flat), f"{name} is not a view into flat"
    npt.assert_array_equal(
        model.flat, np.concatenate([arr.ravel() for arr in model.state_dict().values()]))


def write_overflowing_container(path, extents=(2 ** 32 - 1, 2 ** 32 - 1), dtype_tag=1):
    """A container whose one entry, `w`, claims `extents` (by default
    (2**32 - 1) x (2**32 - 1) items, a count that wraps in 64-bit integers)
    of a dtype tag (1 = float64, 0 = float32), followed by 16 bytes."""
    rank = len(extents)
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<H", 1) + b"w"
                     + struct.pack(f"<BB{rank}I", dtype_tag, rank, *extents) + bytes(16))


def append_entry(path, name, array):
    """Append one entry to the container at `path`, after its others and
    whatever their names."""
    blob = path.read_bytes()
    (count,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    one = path.with_name(f"{path.name}.entry")
    write_checkpoint(one, {name: array})
    entry = one.read_bytes()[len(MAGIC) + 8:]
    one.unlink()
    path.write_bytes(blob[:len(MAGIC) + 4] + struct.pack("<I", count + 1)
                     + blob[len(MAGIC) + 8:] + entry)


def entry_bytes(path, name):
    """The bytes of entry `name` of the container at `path`."""
    return read_checkpoint(path)[name].tobytes()


def set_entry(path, name, blob):
    """Rewrite the container at `path` with byte entry `name` holding `blob`,
    in its place among the others, or without the entry if `blob` is None."""
    entries = read_checkpoint(path)
    if blob is None:
        del entries[name]
    else:
        entries[name] = blob
    write_checkpoint(path, entries)
