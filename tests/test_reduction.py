import numpy as np
import numpy.testing as npt
import pytest

from helpers import np_layer_norm

from vcrnet import reduction as R
from vcrnet import tensor as T
from vcrnet.layers import LinearParams, init_mlp
from vcrnet.tensor import Tensor, ShapeError


def _zero_mlp(d):
    return [
        LinearParams(Tensor(np.zeros((d, d // 2))), Tensor(np.zeros(d // 2))),
        LinearParams(Tensor(np.zeros((d // 2, 1))), Tensor(np.zeros(1))),
    ]


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


def _np_mlp_scores(Z, p_mlp):
    h = Z
    for lin in p_mlp[:-1]:
        h = np.maximum(h @ lin.weight.data + lin.bias.data, 0.0)
    last = p_mlp[-1]
    return (h @ last.weight.data + last.bias.data)[:, 0]


def test_reduce_matches_scalar_loop_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        m, d = int(rng.integers(1, 7)), 4
        Z = rng.standard_normal((m, d))
        p_mlp = init_mlp(rng, [d, 2, 1])
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
    p_mlp = init_mlp(rng, [4, 2, 1])
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
