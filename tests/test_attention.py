import copy
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import composed_multi_head
from vcrnet import attention as A
from vcrnet import tensor as T
from vcrnet.layers import feed_forward
from vcrnet.tensor import Tensor, ShapeError


def np_sdpa(q, k, v, mask=None):
    """Scalar-loop reference: scores, exp, normalize, and mix by hand."""
    m, d_k = q.shape
    n = k.shape[0]
    weights = np.zeros((m, n))
    for i in range(m):
        scores = []
        for j in range(n):
            s = 0.0
            for t in range(d_k):
                s += q[i, t] * k[j, t]
            s = s / math.sqrt(d_k)
            if mask is not None and not mask[j]:
                s = -1e9
            scores.append(s)
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        z = sum(exps)
        for j in range(n):
            weights[i, j] = exps[j] / z
    out = np.zeros((m, v.shape[1]))
    for i in range(m):
        for j in range(n):
            out[i] += weights[i, j] * v[j]
    return out, weights


def test_sdpa_single_key_copies_value():
    rng = np.random.default_rng(0)
    q = Tensor(rng.standard_normal((1, 3, 4)))
    k = Tensor(rng.standard_normal((1, 1, 4)))
    v = Tensor(rng.standard_normal((1, 1, 5)))
    out, w = A.sdpa(q, k, v)
    npt.assert_allclose(w.data, np.ones((1, 1, 3, 1)))
    npt.assert_allclose(out.data, np.repeat(v.data, 3, axis=1))


def test_sdpa_identical_keys_split_evenly():
    q = Tensor(np.array([[[1.0, 2.0]]]))
    k = Tensor(np.array([[[0.5, -0.3], [0.5, -0.3]]]))
    v = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    out, w = A.sdpa(q, k, v)
    npt.assert_allclose(w.data, [[[[0.5, 0.5]]]], atol=1e-12)
    npt.assert_allclose(out.data, [[[0.5, 0.5]]], atol=1e-12)


def _one(a):
    """A numpy array as a batch of one (None stays None)."""
    return None if a is None else np.asarray(a)[None]


def test_sdpa_matches_scalar_loop_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        m, n = rng.integers(1, 5, size=2)
        d_k, d_v = rng.integers(1, 5, size=2)
        q = rng.standard_normal((m, d_k))
        k = rng.standard_normal((n, d_k))
        v = rng.standard_normal((n, d_v))
        mask = None
        if n > 1 and seed % 3 == 0:
            mask = rng.random(n) < 0.7
            mask[rng.integers(n)] = True
        out, w = A.sdpa(Tensor(_one(q)), Tensor(_one(k)), Tensor(_one(v)), _one(mask))
        want_out, want_w = np_sdpa(q, k, v, mask)
        worst = max(worst, np.abs(out.data[0] - want_out).max(),
                    np.abs(w.data[0, 0] - want_w).max())
    # several heads: head i attends with column block i of q, k and v
    for seed in range(100):
        rng = np.random.default_rng(2100 + seed)
        h = int(rng.integers(2, 4))
        m, n = rng.integers(1, 5, size=2)
        d_k, d_v = rng.integers(1, 4, size=2)
        q = rng.standard_normal((m, h * d_k))
        k = rng.standard_normal((n, h * d_k))
        v = rng.standard_normal((n, h * d_v))
        mask = None
        if n > 1 and seed % 3 == 0:
            mask = rng.random(n) < 0.7
            mask[rng.integers(n)] = True
        out, w = A.sdpa(Tensor(_one(q)), Tensor(_one(k)), Tensor(_one(v)), _one(mask), h)
        assert out.data.shape == (1, m, h * d_v) and w.data.shape == (1, h, m, n)
        for i in range(h):
            qk, vk = slice(i * d_k, (i + 1) * d_k), slice(i * d_v, (i + 1) * d_v)
            want_out, want_w = np_sdpa(q[:, qk], k[:, qk], v[:, vk], mask)
            worst = max(worst, np.abs(out.data[0, :, vk] - want_out).max(),
                        np.abs(w.data[0, i] - want_w).max())
    assert worst < 1e-10


def test_sdpa_masked_weights_are_exact_zeros():
    rng = np.random.default_rng(1)
    mask = np.array([True, False, True, False])
    _, w = A.sdpa(
        Tensor(rng.standard_normal((1, 3, 2))),
        Tensor(rng.standard_normal((1, 4, 2))),
        Tensor(rng.standard_normal((1, 4, 2))),
        _one(mask),
    )
    assert (w.data[0, 0][:, ~mask] == 0.0).all()
    npt.assert_allclose(w.data[0, 0].sum(axis=1), np.ones(3), atol=1e-12)


def test_sdpa_rejects_fully_masked():
    z = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        A.sdpa(z, z, z, np.array([[False, False]]))


def test_sdpa_shape_errors():
    def zeros(*shape):
        return Tensor(np.zeros((1,) + shape))

    with pytest.raises(ShapeError):
        A.sdpa(zeros(2, 3), zeros(2, 4), zeros(2, 4))
    with pytest.raises(ShapeError):
        A.sdpa(zeros(2, 3), zeros(2, 3), zeros(3, 4))
    with pytest.raises(ShapeError):
        A.sdpa(zeros(2, 3), zeros(2, 3), zeros(2, 3), np.array([[True]]))
    with pytest.raises(ShapeError):
        A.sdpa(zeros(2, 3), zeros(2, 3), zeros(2, 3), heads=2)


def test_multi_head_single_identity_head_reduces_to_sdpa():
    rng = np.random.default_rng(3)
    d = 4
    p = A.MhaParams(
        wq=Tensor(np.eye(d)), wk=Tensor(np.eye(d)), wv=Tensor(np.eye(d)),
        wo=Tensor(np.eye(d)), heads=1,
    )
    q = rng.standard_normal((3, d))
    k = rng.standard_normal((5, d))
    out, trace = A.multi_head(Tensor(_one(q)), Tensor(_one(k)), Tensor(_one(k)), p)
    want_out, want_w = np_sdpa(q, k, k)
    npt.assert_allclose(out.data[0], want_out, atol=1e-10)
    npt.assert_allclose(trace.heads[0, 0], want_w, atol=1e-10)


def test_multi_head_identical_heads_identical_traces():
    rng = np.random.default_rng(4)
    base = A.init_mha(rng, 4, 2)

    def twice(w):  # head 0's column block for both heads
        return Tensor(np.hstack([w.data[:, :2]] * 2))

    p = A.MhaParams(wq=twice(base.wq), wk=twice(base.wk), wv=twice(base.wv),
                    wo=base.wo, heads=2)
    x = Tensor(rng.standard_normal((1, 3, 4)))
    _, trace = A.multi_head(x, x, x, p)
    npt.assert_array_equal(trace.heads[0, 0], trace.heads[0, 1])


def test_multi_head_matches_composition_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        p = A.init_mha(rng, 4, 2)
        m, n = rng.integers(1, 6, size=2)
        q = rng.standard_normal((m, 4))
        k = rng.standard_normal((n, 4))
        v = rng.standard_normal((n, 4))
        out, trace = A.multi_head(Tensor(_one(q)), Tensor(_one(k)), Tensor(_one(v)), p)
        pieces = []
        for i in range(2):
            cols = slice(2 * i, 2 * i + 2)
            o_i, w_i = np_sdpa(q @ p.wq.data[:, cols], k @ p.wk.data[:, cols],
                               v @ p.wv.data[:, cols])
            pieces.append(o_i)
            worst = max(worst, np.abs(trace.heads[0, i] - w_i).max())
        want = np.concatenate(pieces, axis=1) @ p.wo.data
        worst = max(worst, np.abs(out.data[0] - want).max())
    assert worst < 1e-10


def test_init_mha_draws_head_blocks_in_order():
    # all wq heads, then all wk, then all wv, then wo: the per-head draw order
    p = A.init_mha(np.random.default_rng(12), 8, 4)
    rng = np.random.default_rng(12)
    lim = 1.0 / math.sqrt(8)
    for fused in (p.wq, p.wk, p.wv):
        blocks = [rng.uniform(-lim, lim, size=(8, 2)) for _ in range(4)]
        npt.assert_array_equal(fused.data, np.hstack(blocks))
    npt.assert_array_equal(p.wo.data, rng.uniform(-lim, lim, size=(8, 8)))
    assert p.heads == 4


def test_multi_head_tape_entries_independent_of_heads():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 3, 8)))
    for h in (1, 2, 4):
        p = A.init_mha(rng, 8, h)
        with T.Tape() as tape:
            A.multi_head(x, x, x, p)
        assert len(tape) == 1


def test_multi_head_shape_errors():
    p = A.init_mha(np.random.default_rng(17), 8, 2)
    x = Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(ShapeError):  # inputs narrower than the projections
        A.multi_head(x, Tensor(np.zeros((2, 4, 6))), Tensor(np.zeros((2, 4, 6))), p)
    with pytest.raises(ShapeError):  # unbatched queries
        A.multi_head(Tensor(np.zeros((3, 8))), x, x, p)


def test_unit_tape_has_one_entry_per_sublayer():
    rng = np.random.default_rng(14)
    p = A.init_attn_unit(rng, 8, 2, 16, p_drop=0.25)
    x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
    with T.Tape() as tape:
        A.guided_attention_unit(x, Tensor(rng.standard_normal((2, 4, 8))), p,
                                rng=np.random.default_rng(1))
    assert [rule.__qualname__.split(".<locals>")[0] for _, _, rule in tape._entries] == [
        "multi_head", "layer_norm", "feed_forward", "layer_norm"]


def test_first_non_finite_names_multi_head():
    rng = np.random.default_rng(15)
    p = A.init_attn_unit(rng, 8, 2, 16)
    p.mha.wk.data[3, 1] = np.nan
    x = Tensor(rng.standard_normal((1, 3, 8)))
    with T.Tape() as tape:
        A.guided_attention_unit(x, x, p)
    assert tape.first_non_finite() == (0, "multi_head")


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("heads", [1, 2], ids=["h1", "h2"])
@pytest.mark.parametrize("self_attention", [True, False], ids=["self", "guided"])
def test_multi_head_equals_the_composed_ops_bit_for_bit(self_attention, heads, masked):
    # one tensor as all three inputs, or a guide as both keys and values:
    # the tape sums a shared input's terms in one order, so every gradient
    # must be the composed tape's, bit for bit
    rng = np.random.default_rng(16 + heads)
    p = A.init_mha(rng, 8, heads)
    x = rng.standard_normal((2, 3, 8))
    guide = x if self_attention else rng.standard_normal((2, 5, 8))
    mask = (np.arange(guide.shape[1]) < np.array([[guide.shape[1]], [2]])) if masked else None
    seed_grad = rng.standard_normal((2, 3, 8))

    def run(mha):
        """The output, the weights and every input and weight gradient."""
        weights = [Tensor(t.data, requires_grad=True) for t in (p.wq, p.wk, p.wv, p.wo)]
        xt = Tensor(x, requires_grad=True)
        gt = xt if self_attention else Tensor(guide, requires_grad=True)
        with T.Tape() as tape:
            out, trace = mha(xt, gt, gt, A.MhaParams(*weights, heads=heads), mask)
        tape.seed(out, seed_grad)
        return [out.data, trace.heads] + [t.grad for t in [xt, gt] + weights]

    for got, want in zip(run(A.multi_head), run(composed_multi_head)):
        npt.assert_array_equal(got, want)


def test_guided_unit_single_guide_position():
    rng = np.random.default_rng(5)
    p = A.init_attn_unit(rng, 4, 2, 16)
    out, trace = A.guided_attention_unit(
        Tensor(rng.standard_normal((1, 3, 4))), Tensor(rng.standard_normal((1, 1, 4))), p
    )
    assert out.data.shape == (1, 3, 4)
    for head in trace.heads[0]:
        npt.assert_allclose(head, np.ones((3, 1)))


def test_guided_unit_output_shape_tracks_x_not_guide():
    rng = np.random.default_rng(6)
    p = A.init_attn_unit(rng, 4, 2, 16)
    x = Tensor(rng.standard_normal((1, 3, 4)))
    for n in (1, 2, 7):
        out, _ = A.guided_attention_unit(x, Tensor(rng.standard_normal((1, n, 4))), p)
        assert out.data.shape == (1, 3, 4)


def test_guided_unit_blind_to_guide_order():
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        p = A.init_attn_unit(rng, 4, 2, 16)
        x = Tensor(rng.standard_normal((1, 2, 4)))
        guide = rng.standard_normal((5, 4))
        mask = rng.random(5) < 0.8
        mask[0] = True
        perm = rng.permutation(5)
        base, _ = A.guided_attention_unit(x, Tensor(_one(guide)), p, _one(mask))
        shuffled, _ = A.guided_attention_unit(x, Tensor(_one(guide[perm])), p,
                                              _one(mask[perm]))
        npt.assert_allclose(shuffled.data, base.data, atol=1e-10)


def test_self_attention_single_position_attends_itself():
    rng = np.random.default_rng(7)
    p = A.init_attn_unit(rng, 4, 2, 16)
    x = Tensor(rng.standard_normal((1, 1, 4)))
    _, trace = A.guided_attention_unit(x, x, p)
    for head in trace.heads[0]:
        npt.assert_allclose(head, np.ones((1, 1)))


def test_trace_rows_are_distributions():
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        p = A.init_attn_unit(rng, 4, 2, 8)
        x = Tensor(rng.standard_normal((1, int(rng.integers(1, 6)), 4)))
        _, trace = A.guided_attention_unit(x, x, p)
        for head in trace.heads[0]:
            npt.assert_allclose(head.sum(axis=1), np.ones(head.shape[0]), atol=1e-6)
            assert (head >= 0.0).all() and (head <= 1.0).all()


def test_unit_grad_check():
    rng = np.random.default_rng(9)
    p = A.init_attn_unit(rng, 4, 2, 8)
    guide = Tensor(rng.standard_normal((1, 3, 4)))
    x = Tensor(rng.standard_normal((1, 2, 4)))

    def wrt_x(t):
        return A.guided_attention_unit(t, guide, p)[0]

    assert T.grad_check(wrt_x, x) < 1e-4

    def wrt_wq(t):
        old = p.mha.wq
        p.mha.wq = t
        try:
            return A.guided_attention_unit(x, guide, p)[0]
        finally:
            p.mha.wq = old

    assert T.grad_check(wrt_wq, p.mha.wq) < 1e-4

    def wrt_ffn(t):
        old = p.ffn.lin1.weight
        p.ffn.lin1.weight = t
        try:
            return A.guided_attention_unit(x, guide, p)[0]
        finally:
            p.ffn.lin1.weight = old

    assert T.grad_check(wrt_ffn, p.ffn.lin1.weight) < 1e-4


def test_unit_ignores_masked_guide_content():
    rng = np.random.default_rng(10)
    p = A.init_attn_unit(rng, 4, 2, 8)
    x = Tensor(rng.standard_normal((1, 2, 4)))
    guide = rng.standard_normal((1, 4, 4))
    mask = np.array([[True, True, False, False]])
    base, trace = A.guided_attention_unit(x, Tensor(guide), p, mask)
    for head in trace.heads[0]:
        assert (head[:, 2:] == 0.0).all()
    corrupted = guide.copy()
    corrupted[0, 2:] = 1e3
    out, _ = A.guided_attention_unit(x, Tensor(corrupted), p, mask)
    npt.assert_allclose(out.data, base.data, atol=1e-10)


def test_trace_json_shape():
    rng = np.random.default_rng(11)
    p = A.init_attn_unit(rng, 4, 2, 8)
    x = Tensor(rng.standard_normal((1, 2, 4)))
    _, trace = A.guided_attention_unit(x, x, p, label="sa.0")
    d = trace.row(0).to_json_dict(["a", "b"], ["c", "d"])
    assert set(d) == {"unit", "heads", "query_tokens", "key_tokens"}
    assert d["unit"] == "sa.0"
    assert len(d["heads"]) == 2
    assert np.asarray(d["heads"][0]).shape == (2, 2)
    assert (d["query_tokens"], d["key_tokens"]) == (["a", "b"], ["c", "d"])


def test_sdpa_batch_matches_row_by_row_calls():
    for seed in range(50):
        rng = np.random.default_rng(24_000 + seed)
        batch, m, n, heads = 3, int(rng.integers(1, 5)), int(rng.integers(1, 6)), 2
        q = rng.standard_normal((batch, m, 4))
        k = rng.standard_normal((batch, n, 4))
        v = rng.standard_normal((batch, n, 6))
        mask = rng.random((batch, n)) < 0.7
        mask[:, 0] = True
        out, w = A.sdpa(Tensor(q), Tensor(k), Tensor(v), mask, heads)
        # the rows of all batch entries side by side, against row 0's keys
        out_s, w_s = A.sdpa(Tensor(q.reshape(1, batch * m, 4)), Tensor(k[:1]), Tensor(v[:1]),
                            mask[:1], heads)
        assert out.data.shape == (batch, m, 6) and w.data.shape == (batch, heads, m, n)
        for b in range(batch):
            row = slice(b, b + 1)
            row_out, row_w = A.sdpa(Tensor(q[row]), Tensor(k[row]), Tensor(v[row]), mask[row],
                                    heads)
            npt.assert_allclose(out.data[b], row_out.data[0], rtol=0, atol=1e-12)
            npt.assert_allclose(w.data[b], row_w.data[0], rtol=0, atol=1e-12)
            row_out, row_w = A.sdpa(Tensor(q[row]), Tensor(k[:1]), Tensor(v[:1]), mask[:1],
                                    heads)
            side = slice(b * m, (b + 1) * m)
            npt.assert_allclose(out_s.data[0, side], row_out.data[0], rtol=0, atol=1e-12)
            npt.assert_allclose(w_s.data[0, :, side], row_w.data[0], rtol=0, atol=1e-12)


def test_sdpa_batch_shape_and_mask_errors():
    q = Tensor(np.zeros((2, 3, 4)))
    kv = Tensor(np.zeros((2, 5, 4)))
    with pytest.raises(ValueError):  # the second row has no real key
        A.sdpa(q, kv, kv, np.array([[True] * 5, [False] * 5]))
    with pytest.raises(ShapeError):
        A.sdpa(q, kv, kv, np.ones((2, 4), dtype=bool))
    with pytest.raises(ShapeError):
        A.sdpa(q, Tensor(np.zeros((3, 5, 4))), Tensor(np.zeros((3, 5, 4))))
    flat = Tensor(np.zeros((5, 4)))
    with pytest.raises(ShapeError):  # unbatched queries, keys or values
        A.sdpa(Tensor(np.zeros((3, 4))), kv, kv)
    with pytest.raises(ShapeError):
        A.sdpa(q, flat, flat)
    with pytest.raises(ShapeError):
        A.sdpa(q, kv, flat)
    for mask in (np.ones((3, 5), dtype=bool), np.ones((1, 5), dtype=bool),
                 np.ones(5, dtype=bool)):
        with pytest.raises(ShapeError):  # one mask row per query batch row
            A.sdpa(q, kv, kv, mask)


def test_guided_unit_batch_matches_row_by_row_units():
    rng = np.random.default_rng(25)
    p = A.init_attn_unit(rng, 8, 2, 16)
    x = rng.standard_normal((3, 4, 8))
    guide = rng.standard_normal((3, 5, 8))
    mask = np.arange(5) < np.array([[5], [2], [4]])
    out, trace = A.guided_attention_unit(Tensor(x), Tensor(guide), p, mask=mask)
    for b in range(3):
        row = slice(b, b + 1)
        row_out, row_trace = A.guided_attention_unit(Tensor(x[row]), Tensor(guide[row]), p,
                                                     mask=mask[row])
        npt.assert_allclose(out.data[b], row_out.data[0], rtol=0, atol=1e-12)
        one = trace.row(b)
        npt.assert_allclose(one.heads, row_trace.heads[0], rtol=0, atol=1e-12)


# a chain of a self-attention unit, a guided unit and a second
# self-attention unit, cut after `cut` of its 12 (unit, sublayer) steps:
# "sa-*" cuts inside the first unit, "ga-*" inside the second, "sa2-*"
# inside the third, and "boundary-*" between two units
CUTS = {"sa-mha|rest": 1, "sa-mha|ln1|rest": 2, "sa-each": 3, "boundary-sa|ga": 4,
        "ga-mha|rest": 5, "ga-mha|ln1|rest": 6, "ga-each": 7, "boundary-ga|sa2": 8,
        "sa2-mha|ln1|rest": 10}


@pytest.mark.parametrize("cut", list(CUTS.values()), ids=list(CUTS))
def test_unit_sublayer_slices_compose_to_the_whole_unit(cut):
    # a gradient sweep runs a chain's steps one at a time up to a restart,
    # then the trailing slice after it, each from the one state tensor the
    # step before left: that must be exactly the whole chain, dropout draws
    # and traces too. After a branching step the state is the residual sum
    # x + branch. A self-attention unit attends over its own input, not
    # over the chain's
    rng = np.random.default_rng(31)
    units = [A.init_attn_unit(rng, 8, 2, 16, p_drop=0.25) for _ in range(3)]
    x = Tensor(rng.standard_normal((2, 3, 8)))
    mask = np.array([[True, True, False], [True, True, True]])
    guide, gmask = Tensor(rng.standard_normal((2, 5, 8))), np.arange(5) < np.array([[5], [2]])
    chain = [("sa", units[0], None, mask, "sa.0"), ("ga", units[1], guide, gmask, "ga.0"),
             ("sa2", units[2], None, mask, "sa.1")]

    whole_rng = np.random.default_rng(7)
    y, first = A.guided_attention_unit(x, x, units[0], mask, whole_rng, "sa.0")
    y, second = A.guided_attention_unit(y, guide, units[1], gmask, whole_rng, "ga.0")
    whole, third = A.guided_attention_unit(y, y, units[2], mask, whole_rng, "sa.1")
    whole_traces = [first, second, third]
    chained, chained_traces = A.run_chain(x, chain, rng=np.random.default_rng(7))
    npt.assert_array_equal(chained.data, whole.data)
    assert [t.unit for t in chained_traces] == ["sa.0", "ga.0", "sa.1"]
    assert not np.array_equal(whole.data, A.run_chain(x, chain)[0].data)

    steps = A.chain_steps(chain)
    assert len(steps) == 12 and steps[4] == ("ga", "mha")
    by_name = {name: (p, g, m) for name, p, g, m, _ in chain}
    sliced_rng = np.random.default_rng(7)
    state, traces = x, []
    for unit, sub in steps[:cut]:
        p, g, m = by_name[unit]
        if sub == "mha":
            keys = state if g is None else g
            branch = A.multi_head(state, keys, keys, p.mha, m)[0]
        elif sub == "ffn":
            branch = feed_forward(state, p.ffn, copy.deepcopy(sliced_rng))
        out, more = A.run_chain(state, chain, ((unit, sub),), sliced_rng)
        if sub in ("mha", "ffn"):
            npt.assert_array_equal(out.data, state.data + branch.data)
        state = out
        traces += more
    out, more = A.run_chain(state, chain, steps[cut:], sliced_rng)
    traces += more
    npt.assert_array_equal(out.data, whole.data)
    assert [t.unit for t in traces] == [t.unit for t in whole_traces]
    for got, want in zip(traces, whole_traces):
        npt.assert_array_equal(got.heads, want.heads)
    assert sliced_rng.bit_generator.state == whole_rng.bit_generator.state


def test_trace_row_slices_heads():
    heads = np.arange(6.0).reshape(2, 1, 1, 3)
    trace = A.AttentionTrace("u", heads)
    one = trace.row(1)
    assert one.unit == "u"
    npt.assert_array_equal(one.heads, heads[1])
    assert trace.row(0).heads.shape == (1, 1, 3)
