import numpy as np
import numpy.testing as npt
import pytest

from helpers import np_layer_norm, zero_unit

from vcrnet import attention as A
from vcrnet import coattention as C
from vcrnet import tensor as T
from vcrnet.grounding import GroundedSeq
from vcrnet.layers import bilstm, init_bilstm
from vcrnet.tensor import Tensor, ShapeError


def _seq(rng, texts, d=4, mask=None):
    """One sequence of random positions, one per text, as a batch of one."""
    m = len(texts)
    return GroundedSeq(
        Tensor(rng.standard_normal((1, m, d))),
        np.ones((1, m), dtype=bool) if mask is None else np.asarray([mask], dtype=bool),
    )


def _params(rng, depth, d=4, h=2, d_ff=8, p_drop=0.0):
    def stack():
        return [C.CoAttnLayerParams(sa=A.init_attn_unit(rng, d, h, d_ff, p_drop),
                                    ga=A.init_attn_unit(rng, d, h, d_ff, p_drop))
                for _ in range(depth)]

    return C.CoAttnParams(q=stack(), r=stack())


def test_join_concatenates_query_first():
    rng = np.random.default_rng(0)
    q = _seq(rng, ["a", "b"])
    r = _seq(rng, ["c", "d", "e"])
    joint = C.join(q, r)
    assert isinstance(joint, GroundedSeq)
    npt.assert_array_equal(joint.positions.data[:, :2], q.positions.data)
    npt.assert_array_equal(joint.positions.data[:, 2:], r.positions.data)
    npt.assert_array_equal(joint.mask, np.ones((1, 5), dtype=bool))


def test_join_rejects_width_mismatch_and_empty_response():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeError):
        C.join(_seq(rng, ["a"], d=4), _seq(rng, ["b"], d=6))
    empty = GroundedSeq(Tensor(np.zeros((1, 0, 4))), np.zeros((1, 0), dtype=bool))
    with pytest.raises(ShapeError):
        C.join(_seq(rng, ["a"]), empty)
    two = GroundedSeq(Tensor(np.zeros((2, 1, 4))), np.ones((2, 1), dtype=bool))
    with pytest.raises(ShapeError):  # one query row per response row
        C.join(_seq(rng, ["a"]), two)


def test_coattend_output_shapes():
    rng = np.random.default_rng(3)
    q = _seq(rng, ["a", "b", "c"])
    r = _seq(rng, ["d", "e"])
    p = _params(rng, depth=2)
    zq, zr, traces = C.coattend(q, r, p)
    assert zq.data.shape == (1, 3, 4)
    assert zr.data.shape == (1, 2, 4)
    # 2 layers x 2 modules x (SA + GA)
    assert len(traces) == 8
    assert traces[0].unit == "coattn.q.sa.0"
    assert traces[1].unit == "coattn.q.ga.0"


def test_coattend_draws_dropout_layer_by_layer_query_side_first():
    # one generator draws every unit's dropout mask: per layer the query
    # side's sa then ga unit, then the response side's. Running a side's
    # whole stack before the other's would draw other masks from one seed
    rng = np.random.default_rng(13)
    q = _seq(rng, ["a", "b", "c"])
    r = _seq(rng, ["d", "e", "<pad>"], mask=[True, True, False])
    p = _params(rng, depth=3, p_drop=0.3)
    joint = C.join(q, r)
    drop = np.random.default_rng(5)
    zq, zr, traces = C.coattend(q, r, p, rng=drop)

    want = np.random.default_rng(5)
    ys = {"q": q.positions, "r": r.positions}
    masks = {"q": q.mask, "r": r.mask}
    want_traces = []
    for idx in range(3):
        for side in ("q", "r"):
            layer = getattr(p, side)[idx]
            ys[side], sa = A.guided_attention_unit(ys[side], ys[side], layer.sa, masks[side], want,
                                                   f"coattn.{side}.sa.{idx}")
            ys[side], ga = A.guided_attention_unit(ys[side], joint.positions, layer.ga, joint.mask,
                                                   want, f"coattn.{side}.ga.{idx}")
            want_traces += [sa, ga]
    npt.assert_array_equal(zq.data, ys["q"].data)
    npt.assert_array_equal(zr.data, ys["r"].data)
    assert [t.unit for t in traces] == [t.unit for t in want_traces]
    for got, expected in zip(traces, want_traces):
        npt.assert_array_equal(got.heads, expected.heads)
    assert drop.bit_generator.state == want.bit_generator.state
    assert not np.array_equal(zq.data, C.coattend(q, r, p)[0].data)


def _zero_params(depth, d=4, d_ff=8):
    def stack():
        return [C.CoAttnLayerParams(sa=zero_unit(d, d_ff), ga=zero_unit(d, d_ff))
                for _ in range(depth)]

    return C.CoAttnParams(q=stack(), r=stack())


def test_coattend_zeroed_layer_is_layer_norm_cascade():
    rng = np.random.default_rng(4)
    q = _seq(rng, ["a", "b"])
    r = _seq(rng, ["c", "d"])
    zq, zr, _ = C.coattend(q, r, _zero_params(depth=1))
    npt.assert_allclose(zq.data, np_layer_norm(np_layer_norm(np_layer_norm(np_layer_norm(q.positions.data)))),
                        atol=1e-12)
    npt.assert_allclose(zr.data, np_layer_norm(np_layer_norm(np_layer_norm(np_layer_norm(r.positions.data)))),
                        atol=1e-12)


def test_coattend_masks_padding_in_guide():
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        q = _seq(rng, ["a", "b"])
        r = _seq(rng, ["c", "d", "<pad>"], mask=[True, True, False])
        p = _params(rng, depth=1)
        _, _, traces = C.coattend(q, r, p)
        for tr in traces:
            if "ga" in tr.unit:
                for head in tr.heads[0]:
                    assert (head[:, 4] == 0.0).all()
            for head in tr.heads[0]:
                npt.assert_allclose(head.sum(axis=1), np.ones(head.shape[0]), atol=1e-6)


def test_query_module_blind_to_response_order_in_guide():
    rng = np.random.default_rng(5)
    q = _seq(rng, ["a", "b"])
    r = _seq(rng, ["c", "d", "e"])
    p = _params(rng, depth=1)
    base_q, _, _ = C.coattend(q, r, p)
    perm = np.array([2, 0, 1])
    r_shuffled = GroundedSeq(Tensor(r.positions.data[:, perm]), r.mask[:, perm])
    shuffled_q, _, _ = C.coattend(q, r_shuffled, p)
    npt.assert_allclose(shuffled_q.data, base_q.data, atol=1e-10)


def test_depth_mismatch_rejected():
    rng = np.random.default_rng(8)
    q = _seq(rng, ["a"])
    r = _seq(rng, ["b"])
    p = _params(rng, depth=1)
    p.r.append(p.r[0])
    with pytest.raises(ShapeError):
        C.coattend(q, r, p)


def test_lstm_encoder_splits_by_provenance():
    rng = np.random.default_rng(9)
    q = _seq(rng, ["a", "b"])
    r = _seq(rng, ["c", "d", "e"])
    p = init_bilstm(rng, 4, 2)
    zq, zr, traces = C.lstm_encode(q, r, p)
    full = bilstm(C.join(q, r).positions, p).data
    npt.assert_array_equal(zq.data, full[:, :2])
    npt.assert_array_equal(zr.data, full[:, 2:])
    assert traces == []


def test_lstm_encoder_reads_real_positions_packed():
    # query padding sits between the query and the response; the encoder
    # must read only the real positions, as if they were contiguous
    rng = np.random.default_rng(12)
    p = init_bilstm(rng, 4, 2)
    q = _seq(rng, ["a", "b", "<pad>"], mask=[True, True, False])
    r = _seq(rng, ["c", "d", "<pad>"], mask=[True, True, False])
    zq, zr, _ = C.lstm_encode(q, r, p)
    packed = np.concatenate([q.positions.data[:, :2], r.positions.data[:, :2]], axis=1)
    want = bilstm(Tensor(packed), p).data
    npt.assert_allclose(zq.data[:, :2], want[:, :2], rtol=0, atol=1e-12)
    npt.assert_allclose(zr.data[:, :2], want[:, 2:], rtol=0, atol=1e-12)
    npt.assert_array_equal(zq.data[:, 2], 0.0)
    npt.assert_array_equal(zr.data[:, 2], 0.0)


def test_coattention_grad_check_minimal_instance():
    rng = np.random.default_rng(10)
    r = _seq(rng, ["c", "d"])
    p = _params(rng, depth=1)

    def f(t):
        q = GroundedSeq(t, np.ones((1, 2), dtype=bool))
        zq, zr, _ = C.coattend(q, r, p)
        return T.concat([zq, zr], axis=1)

    assert T.grad_check(f, Tensor(rng.standard_normal((1, 2, 4)))) < 1e-4
