"""Shared oracle-style helpers for the test suite."""

import numpy as np

from vcrnet import attention as A
from vcrnet import tensor as T
from vcrnet.coattention import coattend, join, lstm_encode
from vcrnet.grounding import GroundedSeq, align_tags, ground, guided_fuse
from vcrnet.layers import FeedForwardParams, LinearParams, init_layer_norm, linear
from vcrnet.reduction import candidate_logit, fuse, reduce
from vcrnet.tensor import ShapeError, Tensor


def np_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


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


def loop_forward(model, ex, objects):
    """Score each candidate on its own as a batch of one: the oracle for the
    batched VcrModel forward (eval mode). Returns (logits, one trace list per
    candidate, each trace one candidate's (heads, m, n) slice)."""
    objects_t = Tensor(objects)
    guide = GroundedSeq(linear(Tensor(objects[None]), model.obj_proj),
                        np.ones((1, len(objects)), dtype=bool))

    def encode(tokens):
        emb = T.embedding_lookup(model.embedding, model.vocab.encode(tokens))
        aligned = align_tags(tokens, emb, objects_t).reshape(len(tokens), 1, -1)
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
        joint = join(gq, gr)
        if model.coattn is not None:
            z_q, z_r, more = coattend(joint, gq, gr, model.coattn)
        else:
            z_q, z_r, more = lstm_encode(joint, model.encoder_lstm)
        pooled_q, alpha_q = reduce(z_q, gq.mask, red.mlp_q)
        pooled_r, alpha_r = reduce(z_r, gr.mask, red.mlp_r)
        logits.append(candidate_logit(fuse(pooled_q, pooled_r, red), red))
        cand_traces.append([t.row(0) for t in traces + more]
                           + [pool_trace("reduce.q", alpha_q),
                              pool_trace("reduce.r", alpha_r)])
    return T.concat(logits, axis=0).reshape(len(logits)), cand_traces
