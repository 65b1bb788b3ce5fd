import numpy as np
import numpy.testing as npt
import pytest

from helpers import composed_reduce, np_layer_norm

from vcrnet import reduction as R
from vcrnet import tensor as T
from vcrnet.layers import FeedForwardParams, LinearParams, init_linear
from vcrnet.tensor import Tape, Tensor, ShapeError


def _mlp(rng, d, hidden=2):
    return FeedForwardParams(init_linear(rng, d, hidden), init_linear(rng, hidden, 1))


def _first_feature_mlp(d, shift):
    """A score MLP whose score of a row is max(row[0], 0) + shift."""
    pick = np.zeros((d, 1))
    pick[0, 0] = 1.0
    return FeedForwardParams(LinearParams(Tensor(pick), Tensor(np.zeros(1))),
                             LinearParams(Tensor(np.ones((1, 1))), Tensor(np.array([shift]))))


def _zero_mlp(d):
    return FeedForwardParams(
        LinearParams(Tensor(np.zeros((d, d // 2))), Tensor(np.zeros(d // 2))),
        LinearParams(Tensor(np.zeros((d // 2, 1))), Tensor(np.zeros(1))),
    )


def test_reduce_zero_mlp_pools_uniformly():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((1, 5, 4))
    pooled, alpha = R.reduce(Tensor(Z), None, _zero_mlp(4))
    npt.assert_allclose(alpha.data, np.full((1, 5), 0.2), atol=1e-12)
    npt.assert_allclose(pooled.data, Z.mean(axis=1), atol=1e-12)


def test_reduce_zero_mlp_with_mask_means_unmasked_rows():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((1, 4, 4))
    mask = np.array([[True, False, True, False]])
    pooled, alpha = R.reduce(Tensor(Z), mask, _zero_mlp(4))
    npt.assert_allclose(alpha.data[0], [0.5, 0.0, 0.5, 0.0], atol=1e-12)
    assert alpha.data[0, 1] == 0.0 and alpha.data[0, 3] == 0.0
    npt.assert_allclose(pooled.data[0], Z[0, [0, 2]].mean(axis=0), atol=1e-12)


def test_reduce_single_row():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((1, 1, 6))
    pooled, alpha = R.reduce(Tensor(Z), None, _zero_mlp(6))
    npt.assert_allclose(alpha.data, [[1.0]])
    npt.assert_allclose(pooled.data, Z[0])


def test_reduce_rejects_fully_masked():
    with pytest.raises(ValueError):
        R.reduce(Tensor(np.zeros((1, 2, 4))), np.array([[False, False]]), _zero_mlp(4))


def test_reduce_two_to_one_odds():
    # scores [ln 2, 0] put exactly twice the weight on the first row
    Z = np.array([[[np.log(2.0), 1.0], [0.0, -1.0]]])
    _, alpha = R.reduce(Tensor(Z), None, _first_feature_mlp(2, 0.0))
    npt.assert_allclose(alpha.data, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-12)


def test_reduce_survives_scores_near_1000():
    # unshifted, exp(1000) overflows and exp(-1000) underflows to 0 / 0
    Z = np.array([[[0.0, 1.0], [np.log(2.0), 2.0], [0.0, 3.0], [5.0, 4.0]]])
    mask = np.array([[True, True, True, False]])
    for shift in (1000.0, -1000.0):
        pooled, alpha = R.reduce(Tensor(Z), mask, _first_feature_mlp(2, shift))
        assert np.isfinite(pooled.data).all() and np.isfinite(alpha.data).all()
        npt.assert_allclose(alpha.data, [[0.25, 0.5, 0.25, 0.0]], rtol=0, atol=1e-12)
        npt.assert_allclose(pooled.data, [[0.5 * np.log(2.0), 2.0]], rtol=0, atol=1e-12)


def test_reduce_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        Z = rng.standard_normal((4, 7, 4)) * rng.uniform(0.1, 50.0)
        mask = np.arange(7) < rng.integers(1, 8, size=(4, 1))
        _, alpha = R.reduce(Tensor(Z), mask, _mlp(rng, 4))
        npt.assert_allclose(alpha.data.sum(axis=-1), np.ones(4), rtol=0, atol=1e-12)
        assert (alpha.data >= 0).all() and not alpha.data[~mask].any()


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "ragged"])
def test_reduce_equals_its_composed_oracle_exactly(masked):
    """The fused pooling (feed_forward, then a one-query sdpa) gives the
    bits of the composed score MLP, mask bias, softmax and weighted sum:
    pooled rows, weights, and the gradients of Z and the score MLP."""
    rng = np.random.default_rng(31)
    for batch, m, d in ((1, 1, 4), (3, 5, 4), (6, 9, 8)):
        p_mlp = _mlp(rng, d, hidden=d // 2)
        params = [t for lin in (p_mlp.lin1, p_mlp.lin2) for t in (lin.weight, lin.bias)]
        Z = rng.standard_normal((batch, m, d)) * 3.0
        mask = np.arange(m) < rng.integers(1, m + 1, size=(batch, 1)) if masked else None
        seed = rng.standard_normal((batch, d))
        got, want = [], []
        for pool, out in ((R.reduce, got), (composed_reduce, want)):
            z = Tensor(Z, requires_grad=True)
            for t in params:
                t.grad = None
            with Tape() as tape:
                pooled, alpha = pool(z, mask, p_mlp)
            tape.seed(pooled, seed)
            out += [pooled.data, alpha.data, z.grad] + [t.grad for t in params]
        for a, b in zip(got, want):
            npt.assert_array_equal(a, b)


def _np_mlp_scores(Z, p_mlp):
    h = np.maximum(Z @ p_mlp.lin1.weight.data + p_mlp.lin1.bias.data, 0.0)
    last = p_mlp.lin2
    return (h @ last.weight.data + last.bias.data)[:, 0]


def test_reduce_matches_scalar_loop_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        m, d = int(rng.integers(1, 7)), 4
        Z = rng.standard_normal((m, d))
        p_mlp = _mlp(rng, d)
        mask = None
        if m > 1 and seed % 2 == 0:
            mask = rng.random(m) < 0.7
            mask[int(rng.integers(m))] = True
        pooled, alpha = R.reduce(Tensor(Z[None]), None if mask is None else mask[None], p_mlp)
        scores = _np_mlp_scores(Z, p_mlp)
        if mask is not None:
            scores[~mask] = -1e9
        exps = np.exp(scores - scores.max())
        want_alpha = exps / exps.sum()
        want = np.zeros(d)
        for i in range(m):
            want += want_alpha[i] * Z[i]
        worst = max(worst, np.abs(alpha.data[0] - want_alpha).max(),
                    np.abs(pooled.data[0] - want).max())
    assert worst < 1e-10


def test_fuse_cancellation_and_zero_inputs_give_beta():
    rng = np.random.default_rng(3)
    p = R.init_reduction(rng, 4, 4)
    p.ln.beta.data = rng.standard_normal(4)
    p.w2.data = -p.w1.data
    z = Tensor(rng.standard_normal((1, 4)))
    npt.assert_allclose(R.fuse(z, z, p).data[0], p.ln.beta.data, atol=1e-12)
    zero = Tensor(np.zeros((1, 4)))
    npt.assert_allclose(R.fuse(zero, zero, p).data[0], p.ln.beta.data, atol=1e-12)


def test_fuse_matches_formula_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        p = R.init_reduction(rng, 4, 4)
        zq = rng.standard_normal((1, 4))
        zr = rng.standard_normal((1, 4))
        got = R.fuse(Tensor(zq), Tensor(zr), p).data
        want = np_layer_norm(zq @ p.w1.data + zr @ p.w2.data)
        want = p.ln.gamma.data * want + p.ln.beta.data
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-10


def test_fuse_rejects_column_vectors():
    rng = np.random.default_rng(4)
    p = R.init_reduction(rng, 4, 4)
    with pytest.raises(ShapeError):
        R.fuse(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 1))), p)


def test_fresh_classifier_scores_zero():
    rng = np.random.default_rng(5)
    p = R.init_reduction(rng, 4, 4)
    fused = R.fuse(Tensor(rng.standard_normal((1, 4))),
                   Tensor(rng.standard_normal((1, 4))), p)
    npt.assert_array_equal(R.candidate_logit(fused, p).data, np.zeros((1, 1)))


def test_reduction_grad_checks():
    rng = np.random.default_rng(6)
    p_mlp = _mlp(rng, 4)
    mask = np.array([[True, True, False, True]])
    assert T.grad_check(
        lambda t: R.reduce(t, mask, p_mlp)[0], Tensor(rng.standard_normal((1, 4, 4)))
    ) < 1e-6

    p = R.init_reduction(rng, 4, 4)
    zr = Tensor(rng.standard_normal((1, 4)))
    assert T.grad_check(lambda t: R.fuse(t, zr, p), Tensor(rng.standard_normal((1, 4)))) < 1e-6

    def wrt_w1(t):
        old = p.w1
        p.w1 = t
        try:
            return R.candidate_logit(R.fuse(zr, zr, p), p)
        finally:
            p.w1 = old

    p.clf.weight.data = rng.standard_normal((4, 1))
    assert T.grad_check(wrt_w1, p.w1) < 1e-6


def test_batched_reduce_and_fuse_match_row_by_row():
    rng = np.random.default_rng(7)
    p = R.init_reduction(rng, 4, 4)
    p.ln.beta.data = rng.standard_normal(4)
    Z = rng.standard_normal((3, 5, 4))
    mask = np.arange(5) < np.array([[5], [1], [3]])
    pooled, alpha = R.reduce(Tensor(Z), mask, p.mlp_q)
    assert pooled.data.shape == (3, 4) and alpha.data.shape == (3, 5)
    npt.assert_array_equal(alpha.data[~mask], 0.0)
    for b in range(3):
        row_pooled, row_alpha = R.reduce(Tensor(Z[b:b + 1]), mask[b:b + 1], p.mlp_q)
        npt.assert_allclose(pooled.data[b], row_pooled.data[0], rtol=0, atol=1e-12)
        npt.assert_allclose(alpha.data[b], row_alpha.data[0], rtol=0, atol=1e-12)
    zr = rng.standard_normal((3, 4))
    fused = R.fuse(pooled, Tensor(zr), p)
    for b in range(3):
        row = R.fuse(Tensor(pooled.data[b:b + 1]), Tensor(zr[b:b + 1]), p)
        npt.assert_allclose(fused.data[b], row.data[0], rtol=0, atol=1e-12)
    assert R.candidate_logit(fused, p).data.shape == (3, 1)
    for bad in (mask[0], mask[:2]):
        with pytest.raises(ShapeError):
            R.reduce(Tensor(Z), bad, p.mlp_q)
    with pytest.raises(ShapeError):  # an unbatched sequence
        R.reduce(Tensor(Z[0]), mask[0], p.mlp_q)
