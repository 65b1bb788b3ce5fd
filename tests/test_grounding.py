import numpy as np
import numpy.testing as npt
import pytest

from helpers import add, np_layer_norm, pad_grounded, zero_unit

from vcrnet import attention as A
from vcrnet import grounding as G
from vcrnet import tensor as T
from vcrnet.layers import bilstm, init_bilstm
from vcrnet.tensor import Tensor, ShapeError


def test_align_without_tags_zeroes_object_half():
    emb = Tensor(np.ones((3, 2)))
    objects = Tensor(np.full((2, 4), 9.0))
    aligned = G.align_tags(np.array([-1, -1, -1]), emb, objects)
    npt.assert_array_equal(aligned.data[:, 2:], np.zeros((3, 4)))
    npt.assert_array_equal(aligned.data[:, :2], emb.data)


def test_align_copies_tagged_object_row_verbatim():
    rng = np.random.default_rng(0)
    emb = Tensor(rng.standard_normal((3, 2)))
    objects = Tensor(rng.standard_normal((3, 4)))
    aligned = G.align_tags(np.array([-1, 1, -1]), emb, objects)
    npt.assert_array_equal(aligned.data[1, 2:], objects.data[1])
    npt.assert_array_equal(aligned.data[0, 2:], np.zeros(4))


def test_align_same_object_identical_halves_distinct_objects_differ():
    rng = np.random.default_rng(1)
    emb = Tensor(rng.standard_normal((4, 2)))
    objects = Tensor(rng.standard_normal((2, 3)))
    aligned = G.align_tags(np.array([0, -1, 0, 1]), emb, objects).data
    npt.assert_array_equal(aligned[0, 2:], aligned[2, 2:])
    assert not np.array_equal(aligned[0, 2:], aligned[3, 2:])


@pytest.mark.parametrize("rows", [[-1, 2], [-2, 0], [0]],
                         ids=["past-k", "below-minus-one", "count"])
def test_align_rejects_rows_that_break_the_contract(rows):
    # the model checks tags against their task's objects before they become
    # rows, so a row out of range or a row count off is a bug, not bad data
    emb = Tensor(np.zeros((2, 2)))
    objects = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        G.align_tags(np.array(rows), emb, objects)


def test_align_grad_check_both_inputs():
    rng = np.random.default_rng(2)
    rows = np.array([0, -1, 2])
    emb = Tensor(rng.standard_normal((3, 2)))
    objects = Tensor(rng.standard_normal((3, 3)))
    assert T.grad_check(lambda t: G.align_tags(rows, t, objects), emb) < 1e-7
    assert T.grad_check(lambda t: G.align_tags(rows, emb, t), objects) < 1e-7


def test_ground_delegates_to_bilstm():
    rng = np.random.default_rng(3)
    p = init_bilstm(rng, 5, 2)
    aligned = Tensor(rng.standard_normal((1, 4, 5)))
    seq = G.ground(aligned, [4], p)
    npt.assert_array_equal(seq.positions.data, bilstm(aligned, p).data)
    assert seq.positions.data.shape == (1, 4, 4)
    assert seq.mask.all() and seq.mask.shape == (1, 4)


def test_grounded_seq_rejects_inconsistent_shapes():
    with pytest.raises(ShapeError):
        G.GroundedSeq(Tensor(np.zeros((1, 2, 4))), np.ones((1, 3), dtype=bool))
    with pytest.raises(ShapeError):  # an unbatched sequence
        G.GroundedSeq(Tensor(np.zeros((2, 4))), np.ones(2, dtype=bool))


def test_pad_grounded():
    rng = np.random.default_rng(4)
    seq = G.GroundedSeq(Tensor(rng.standard_normal((1, 2, 4))), np.ones((1, 2), dtype=bool))
    padded = pad_grounded(seq, 5)
    assert padded.positions.data.shape == (1, 5, 4)
    npt.assert_array_equal(padded.positions.data[0, 2:], np.zeros((3, 4)))
    npt.assert_array_equal(padded.mask, [[True, True, False, False, False]])
    assert pad_grounded(seq, 2) is seq
    with pytest.raises(ShapeError):
        pad_grounded(seq, 1)


def _fuse_params(rng, d, h=2, d_ff=8):
    return G.GaFuseParams(
        ga_query=A.init_attn_unit(rng, d, h, d_ff),
        ga_object=A.init_attn_unit(rng, d, h, d_ff),
    )


def _grounded(rng, texts, d):
    """One sequence of random positions, one per text, as a batch of one."""
    m = len(texts)
    return G.GroundedSeq(Tensor(rng.standard_normal((1, m, d))), np.ones((1, m), dtype=bool))


def _objects(rng, labels, d):
    """One task's object features, one per label, as a batch of one."""
    return _grounded(rng, labels, d)


def test_guided_fuse_query_is_passthrough_object():
    rng = np.random.default_rng(5)
    p = _fuse_params(rng, 4)
    gq = _grounded(rng, ["who", "is"], 4)
    gr = _grounded(rng, ["that", "one"], 4)
    objects = _objects(rng, ["person", "dog"], 4)
    before = gq.positions.data.copy()
    fr, traces = G.guided_fuse(gq, gr, objects, p)
    npt.assert_array_equal(gq.positions.data, before)
    assert [t.unit for t in traces] == ["ga.r_from_q", "ga.r_from_obj"]
    assert fr.positions.data.shape == (1, 2, 4)


def test_guided_fuse_single_object_gets_all_weight():
    rng = np.random.default_rng(6)
    p = _fuse_params(rng, 4)
    gq = _grounded(rng, ["a"], 4)
    gr = _grounded(rng, ["b", "c", "d"], 4)
    _, traces = G.guided_fuse(gq, gr, _objects(rng, ["person"], 4), p)
    obj_trace = next(t for t in traces if t.unit == "ga.r_from_obj")
    for head in obj_trace.heads[0]:
        npt.assert_allclose(head, np.ones((3, 1)))


def test_guided_fuse_zeroed_units_reduce_to_layer_norm_cascade():
    rng = np.random.default_rng(8)
    p = G.GaFuseParams(ga_query=zero_unit(4, 8), ga_object=zero_unit(4, 8))
    gq = _grounded(rng, ["q1", "q2"], 4)
    gr = _grounded(rng, ["r1", "r2", "r3"], 4)
    fr, _ = G.guided_fuse(gq, gr, _objects(rng, ["a", "b"], 4), p)
    want = np_layer_norm(np_layer_norm(np_layer_norm(np_layer_norm(gr.positions.data))))
    npt.assert_allclose(fr.positions.data, want, atol=1e-12)


def test_guided_fuse_padding_content_cannot_leak():
    rng = np.random.default_rng(9)
    p = _fuse_params(rng, 4)
    gq = _grounded(rng, ["w1", "w2"], 4)
    real = rng.standard_normal((2, 4))
    mask = np.array([[True, True, False, False]])
    objects = _objects(rng, ["a", "b", "c"], 4)

    def padded_with(filler):
        return G.GroundedSeq(
            Tensor(np.concatenate([real, filler], axis=0)[None]),
            mask,
        )

    base, _ = G.guided_fuse(gq, padded_with(np.zeros((2, 4))), objects, p)
    noisy, _ = G.guided_fuse(gq, padded_with(np.full((2, 4), 1e3)), objects, p)
    npt.assert_allclose(noisy.positions.data[0, :2], base.positions.data[0, :2], atol=1e-10)

    # padded query positions and padded objects also must not sway the response
    gq_noisy = G.GroundedSeq(
        Tensor(np.concatenate([gq.positions.data, np.full((1, 1, 4), 1e3)], axis=1)),
        np.array([[True, True, False]]),
    )
    gq_padded = pad_grounded(gq, 3)
    objects_noisy = G.GroundedSeq(
        Tensor(np.concatenate([objects.positions.data, np.full((1, 1, 4), 1e3)], axis=1)),
        np.array([[True, True, True, False]]),
    )
    a, _ = G.guided_fuse(gq_padded, padded_with(np.zeros((2, 4))), objects, p)
    b, _ = G.guided_fuse(gq_noisy, padded_with(np.zeros((2, 4))), objects_noisy, p)
    npt.assert_allclose(b.positions.data[0, :2], a.positions.data[0, :2], atol=1e-10)


def test_guided_fuse_candidates_read_their_own_task():
    # two tasks of two candidates each, with different query lengths and
    # object counts, each task's query and objects repeated once per
    # candidate: each candidate must match a run on its own
    rng = np.random.default_rng(10)
    p = _fuse_params(rng, 4)
    q_len, k_len = [2, 3], [3, 1]
    gq = pad_grounded(_grounded(rng, ["q"] * 2, 4), 3)
    gq = G.GroundedSeq(
        Tensor(np.concatenate([gq.positions.data, rng.standard_normal((1, 3, 4))])),
        np.arange(3) < np.array([[2], [3]]),
    )
    objects = G.GroundedSeq(Tensor(rng.standard_normal((2, 3, 4))),
                            np.arange(3) < np.array([[3], [1]]))
    gr = G.GroundedSeq(Tensor(rng.standard_normal((4, 2, 4))),
                       np.array([[True, True], [True, False], [True, True], [True, True]]))
    fr, traces = G.guided_fuse(gq.repeat(2), gr, objects.repeat(2), p)
    for c in range(4):
        t = c // 2
        alone_q = gq.rows(t, t + 1, q_len[t])
        alone_obj = objects.rows(t, t + 1, k_len[t])
        one, one_traces = G.guided_fuse(alone_q, gr.rows(c, c + 1, 2), alone_obj, p)
        npt.assert_allclose(fr.positions.data[c], one.positions.data[0], rtol=0, atol=1e-12)
        for got, want in zip(traces, one_traces):
            row = got.row(c)
            npt.assert_allclose(row.heads[..., :want.heads.shape[-1]], want.heads[0],
                                rtol=0, atol=1e-12)
            npt.assert_array_equal(row.heads[..., want.heads.shape[-1]:], 0.0)


@pytest.mark.parametrize("queries,object_sets", [(2, 2), (4, 2)], ids=["per-task", "objects"])
def test_guided_fuse_needs_one_query_and_object_row_per_response(queries, object_sets):
    # four responses read four rows of each guide; fewer rows are an error,
    # not a grouping of the responses into tasks
    rng = np.random.default_rng(12)
    p = _fuse_params(rng, 4)
    gq = G.GroundedSeq(Tensor(rng.standard_normal((queries, 2, 4))), np.ones((queries, 2), bool))
    objects = G.GroundedSeq(Tensor(rng.standard_normal((object_sets, 3, 4))),
                            np.ones((object_sets, 3), bool))
    gr = G.GroundedSeq(Tensor(rng.standard_normal((4, 2, 4))), np.ones((4, 2), bool))
    with pytest.raises(ShapeError, match=f"^4 responses, {queries} queries and {object_sets} "
                                         f"object sets are not one row per response$"):
        G.guided_fuse(gq, gr, objects, p)


def test_grounding_end_to_end_grad_check():
    rng = np.random.default_rng(11)
    lstm = init_bilstm(rng, 5, 2)
    fuse = _fuse_params(rng, 4)
    rows = np.array([0, -1, 1])
    emb = Tensor(rng.standard_normal((3, 2)))
    obj_feats = Tensor(rng.standard_normal((2, 3)))
    obj_proj = Tensor(rng.standard_normal((3, 4)))

    def pipeline(objects):
        aligned = G.align_tags(rows, emb, objects).reshape(1, 3, 5)
        gq = G.ground(aligned, [len(rows)], lstm)
        scaled = add(gq.positions @ Tensor(0.5 * np.eye(4)), Tensor(np.full((1, 3, 4), 0.1)))
        gr = G.GroundedSeq(scaled, np.ones((1, 3), dtype=bool))
        guide = G.GroundedSeq((objects @ obj_proj).reshape(1, 2, 4), np.ones((1, 2), dtype=bool))
        fr, _ = G.guided_fuse(gq, gr, guide, fuse)
        return fr.positions

    err = T.grad_check(lambda t: pipeline(t), obj_feats)
    assert err < 1e-4
