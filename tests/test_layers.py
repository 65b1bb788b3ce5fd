from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    append_entry,
    bilstm_two_pass,
    composed_feed_forward,
    composed_layer_norm,
    composed_linear,
    write_overflowing_container,
)
from vcrnet import checkpoint
from vcrnet import layers as L
from vcrnet import tensor as T
from vcrnet.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from vcrnet.tensor import Tensor, ShapeError


def test_layer_norm_constant_vector_collapses_to_zero():
    p = L.init_layer_norm(4)
    out = L.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), p)
    npt.assert_allclose(out.data, np.zeros(4), atol=1e-12)


def test_layer_norm_two_point_vector():
    p = L.init_layer_norm(2)
    out = L.layer_norm(Tensor([1.0, -1.0]), p)
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    npt.assert_allclose(out.data, [expected, -expected], atol=1e-12)


def test_layer_norm_zero_gain_leaves_only_beta():
    p = L.LayerNormParams(gamma=Tensor(np.zeros(2)), beta=Tensor([7.0, 7.0]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        out = L.layer_norm(Tensor(rng.standard_normal(2)), p)
        npt.assert_allclose(out.data, [7.0, 7.0], atol=1e-12)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(4)
    p = L.init_layer_norm(16)
    x = rng.standard_normal((6, 16)) * 3.0 + 5.0
    out = L.layer_norm(Tensor(x), p).data
    assert np.abs(out.mean(axis=-1)).max() <= 1e-6
    npt.assert_allclose(out.var(axis=-1), np.ones(6), atol=1e-3)


@pytest.mark.parametrize("d", [7, 12])
def test_layer_norm_equals_the_np_mean_formula_exactly(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((3, 5, d)) * 3.0 + 1.5
    gamma, beta, g = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(x.shape)
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv
    dxhat = g * gamma
    want_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                     - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    xt = Tensor(x, requires_grad=True)
    p = L.LayerNormParams(Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True))
    with T.Tape() as tape:
        out = L.layer_norm(xt, p)
    tape.seed(out, g)
    assert np.array_equal(out.data, gamma * xhat + beta)
    assert np.array_equal(xt.grad, want_dx)


def test_layer_norm_width_mismatch():
    p = L.init_layer_norm(3)
    with pytest.raises(ShapeError):
        L.layer_norm(Tensor(np.zeros((2, 4))), p)


def test_layer_norm_grad_check_all_inputs():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((3, 5)))
    gamma = Tensor(rng.standard_normal(5))
    beta = Tensor(rng.standard_normal(5))

    def wrt_x(t):
        return L.layer_norm(t, L.LayerNormParams(gamma, beta))

    def wrt_gamma(t):
        return L.layer_norm(x, L.LayerNormParams(t, beta))

    def wrt_beta(t):
        return L.layer_norm(x, L.LayerNormParams(gamma, t))

    assert T.grad_check(wrt_x, x) < 1e-7
    assert T.grad_check(wrt_gamma, gamma) < 1e-7
    assert T.grad_check(wrt_beta, beta) < 1e-7


def test_feed_forward_zero_params_zero_output():
    p = L.FeedForwardParams(
        lin1=L.LinearParams(Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))),
        lin2=L.LinearParams(Tensor(np.zeros((12, 3))), Tensor(np.zeros(3))),
    )
    out = L.feed_forward(Tensor(np.ones((2, 3))), p)
    npt.assert_allclose(out.data, np.zeros((2, 3)))


def _taped(fn, inputs, seed):
    """fn() under a tape seeded with a fixed random gradient: the output and
    the gradient of each of `inputs`, which start with none."""
    for t in inputs:
        t.grad = None
    with T.Tape() as tape:
        out = fn()
    tape.seed(out, np.random.default_rng(seed).standard_normal(out.data.shape))
    return [out.data] + [t.grad for t in inputs]


def _assert_same(fused, composed):
    assert len(fused) == len(composed)
    for i, (mine, want) in enumerate(zip(fused, composed)):
        assert mine is not None and np.array_equal(mine, want), f"array {i} differs"


@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 6)])
def test_linear_equals_its_composed_oracle_exactly(shape):
    rng = np.random.default_rng(len(shape))
    p = L.init_linear(rng, 6, 5)
    p.bias.data = rng.standard_normal(5)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    inputs = [x, p.weight, p.bias]
    _assert_same(_taped(lambda: L.linear(x, p), inputs, 0),
                 _taped(lambda: composed_linear(x, p), inputs, 0))
    with T.Tape() as tape:
        L.linear(x, p)
    assert len(tape) == 1
    with pytest.raises(ShapeError):
        L.linear(Tensor(np.zeros((2, 5))), p)


@pytest.mark.parametrize("d", [7, 12])
def test_residual_layer_norm_equals_its_composed_oracle_exactly(d):
    rng = np.random.default_rng(d)
    p = L.LayerNormParams(Tensor(rng.standard_normal(d), requires_grad=True),
                          Tensor(rng.standard_normal(d), requires_grad=True))
    x = Tensor(rng.standard_normal((3, 5, d)) * 3.0, requires_grad=True)
    y = Tensor(rng.standard_normal((3, 5, d)) + 1.5, requires_grad=True)
    inputs = [x, y, p.gamma, p.beta]
    _assert_same(_taped(lambda: L.layer_norm(x, p, y), inputs, 1),
                 _taped(lambda: composed_layer_norm(x, p, y), inputs, 1))
    # one entry, whose rule does not hold the sum
    with T.Tape() as tape:
        L.layer_norm(x, p, y)
    assert len(tape) == 1
    _, _, rule = tape._entries[0]
    held = [c.cell_contents for c in rule.__closure__]
    assert not any(isinstance(v, np.ndarray) and v.shape == x.data.shape
                   and np.array_equal(v, x.data + y.data) for v in held)
    with pytest.raises(ShapeError):
        L.layer_norm(x, p, Tensor(np.zeros((3, 4, d))))



def _closure_arrays(fn):
    """Every ndarray a function's closure holds, through nested closures."""
    arrays, stack, seen = [], [fn], {id(fn)}
    while stack:
        for cell in stack.pop().__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif getattr(v, "__closure__", None) is not None and id(v) not in seen:
                seen.add(id(v))
                stack.append(v)
    return arrays


@pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
def test_layer_norm_rule_keeps_no_array_shaped_like_its_input(residual):
    # the backward recomputes x̂ and 1/σ from the inputs, so the rule keeps
    # no array with the input's rows
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True) if residual else None
    with T.Tape() as tape:
        L.layer_norm(x, L.init_layer_norm(6), y)
    _, _, rule = tape._entries[0]
    held = _closure_arrays(rule)
    assert not any(v.shape[:-1] == x.data.shape[:-1] for v in held), [v.shape for v in held]

@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_feed_forward_equals_its_composed_oracle_exactly(training):
    rng = np.random.default_rng(11)
    p = L.init_feed_forward(rng, 6, 24, p_drop=0.1)
    for lin in (p.lin1, p.lin2):
        lin.bias.data = 0.3 * rng.standard_normal(lin.bias.data.shape)
    x = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True)
    inputs = [x, p.lin1.weight, p.lin1.bias, p.lin2.weight, p.lin2.bias]

    def run(fn):
        # the same dropout draw for both: a fixed rng, made fresh per run
        drop_rng = np.random.default_rng(21)
        got = _taped(lambda: fn(x, p, drop_rng if training else None), inputs, 2)
        return got, drop_rng.random()

    fused, after_fused = run(L.feed_forward)
    composed, after_composed = run(composed_feed_forward)
    _assert_same(fused, composed)
    # both draw the same numbers from the rng, and only a given rng is drawn
    assert after_fused == after_composed
    assert (after_fused != np.random.default_rng(21).random()) == training
    with T.Tape() as tape:
        L.feed_forward(x, p, np.random.default_rng(21) if training else None)
    assert len(tape) == 1


# (weight seed, input seed, input shape, d_ff); without an input seed the
# input comes from the weights' generator
@pytest.mark.parametrize("seed, x_seed, shape, d_ff", [(9, None, (2, 3), 8), (1, 5, (4, 6), 24)],
                         ids=["narrow", "wide"])
def test_feed_forward_dropout_off_draws_nothing(seed, x_seed, shape, d_ff):
    """No generator, or a generator with p = 0, applies no dropout; p = 0 leaves
    the generator as it was."""
    rng = np.random.default_rng(seed)
    p_half = L.init_feed_forward(rng, shape[-1], d_ff, p_drop=0.5)
    p_none = L.FeedForwardParams(lin1=p_half.lin1, lin2=p_half.lin2, dropout=0.0)
    x = Tensor((rng if x_seed is None else np.random.default_rng(x_seed)).standard_normal(shape))
    want = L.feed_forward(x, p_none).data
    state = rng.bit_generator.state
    npt.assert_array_equal(L.feed_forward(x, p_half).data, want)
    npt.assert_array_equal(L.feed_forward(x, p_none, rng).data, want)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_a_nan_weight_surfaces_at_feed_forward(training):
    """A NaN pre-activation is not zeroed by the relu or the dropout mask: the
    output goes non-finite and the tape names feed_forward, not the linear
    op before it."""
    rng = np.random.default_rng(3)
    lin = L.init_linear(rng, 4, 4)
    p = L.init_feed_forward(rng, 4, 16, p_drop=0.5)
    p.lin1.weight.data[1, 5] = np.nan
    x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    with T.Tape() as tape:
        out = L.feed_forward(L.linear(x, lin), p,
                             np.random.default_rng(0) if training else None)
    assert not np.isfinite(out.data).all()
    assert tape.first_non_finite() == (1, "feed_forward")


class _NegativeZeroProducts(np.ndarray):
    """An input whose product with any weight is all -0.0. A real matmul sums
    from +0.0, so this is how a test hands feed_forward a -0.0 pre-activation."""

    def __matmul__(self, w):
        return np.full(self.shape[:-1] + w.shape[-1:], -0.0)


def _hidden_of_negative_zero(p, shape, rng=None):
    """feed_forward's hidden activation, as its backward rebuilds it, for
    an input of `shape` whose every pre-activation is -0.0."""
    p.lin1.bias.data[...] = -0.0
    x = Tensor(np.ones(shape))
    x.data = x.data.view(_NegativeZeroProducts)
    with T.Tape() as tape:
        L.feed_forward(x, p, rng)
    _, _, rule = tape._entries[0]
    cells = dict(zip(rule.__code__.co_freevars, (c.cell_contents for c in rule.__closure__)))
    return cells["hidden"]()


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_feed_forward_relu_of_negative_zero_is_positive_zero(training):
    # same-seed byte identity rests on np.maximum(-0.0, 0.0) being +0.0, as
    # the np.where formulation gives
    p = L.init_feed_forward(np.random.default_rng(4), 6, 40, p_drop=0.5)
    a = _hidden_of_negative_zero(p, (3, 7, 6), np.random.default_rng(0) if training else None)
    assert a.shape == (3, 7, 40) and not a.any()
    assert not np.signbit(a).any()


@pytest.mark.parametrize("d_ff", [1, 7, 8, 33, 1000])
def test_feed_forward_relu_of_negative_zero_at_simd_widths(d_ff):
    # hidden widths on and off the SIMD widths of np.maximum
    p = L.init_feed_forward(np.random.default_rng(d_ff), 3, d_ff)
    a = _hidden_of_negative_zero(p, (1, 3))
    assert a.shape == (1, d_ff) and not a.any()
    assert not np.signbit(a).any()


def test_feed_forward_dropout_scales_survivors():
    # identity layers and positive inputs pass every hidden unit through the
    # relu, so the output is the dropout factor itself
    eye = L.LinearParams(Tensor(np.eye(50), requires_grad=True), Tensor(np.zeros(50)))
    p = L.FeedForwardParams(lin1=eye, lin2=eye, dropout=0.25)
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    with T.Tape() as tape:
        y = L.feed_forward(x, p, np.random.default_rng(9))
    kept = y.data != 0.0
    npt.assert_allclose(y.data[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02
    tape.seed(y, np.ones((200, 50)))
    npt.assert_allclose(x.grad, np.where(kept, 1.0 / 0.75, 0.0))
    with pytest.raises(ValueError, match="dropout probability"):
        L.feed_forward(x, L.FeedForwardParams(lin1=eye, lin2=eye, dropout=1.0))


def test_feed_forward_grad_check():
    p = L.init_feed_forward(np.random.default_rng(2), 4, 16)
    worst = 0.0
    for s in range(10):
        x = Tensor(np.random.default_rng(s).standard_normal((3, 4)))
        worst = max(worst, T.grad_check(lambda t: L.feed_forward(t, p), x, seed=s))
    assert worst < 1e-6


# -- LSTM ------------------------------------------------------------------


def _zero_bilstm(d_in, d_h):
    z = lambda shape: Tensor(np.zeros(shape), requires_grad=True)
    return L.BiLstmParams(
        w_x=z((2, d_in, 4 * d_h)), w_h=z((2, d_h, 4 * d_h)), b=z((2, 4 * d_h))
    )


def _alone(x, p):
    """bilstm over one (T, d) sequence, run as a batch of one."""
    return L.bilstm(Tensor(np.asarray(x)[None]), p).data[0]


def test_bilstm_zero_weights_zero_states():
    p = _zero_bilstm(3, 2)
    out = _alone(np.random.default_rng(0).standard_normal((4, 3)), p)
    npt.assert_allclose(out, np.zeros((4, 4)))


def test_bilstm_single_step_sequence():
    p = L.init_bilstm(np.random.default_rng(1), 3, 2)
    out = L.bilstm(Tensor(np.ones((1, 1, 3))), p)
    assert out.data.shape == (1, 1, 4)


def test_bilstm_rejects_empty_sequence():
    p = L.init_bilstm(np.random.default_rng(1), 3, 2)
    with pytest.raises(ShapeError):
        L.bilstm(Tensor(np.zeros((1, 0, 3))), p)
    with pytest.raises(ShapeError):  # an unbatched sequence
        L.bilstm(Tensor(np.zeros((2, 3))), p)


def _np_lstm_direction(x, p, direction):
    """Step-by-step single-cell reference, one gate block at a time, of
    direction 0 (forward) or 1 (backward)."""

    def expit(z):
        return 1.0 / (1.0 + np.exp(-z))

    def block(mat, j):
        return mat[:, j * d_h:(j + 1) * d_h]

    m = x.shape[0]
    d_h = p.d_h
    w_x, w_h, b = p.w_x.data[direction], p.w_h.data[direction], p.b.data[direction]
    h = np.zeros(d_h)
    c = np.zeros(d_h)
    out = np.zeros((m, d_h))
    order = reversed(range(m)) if direction else range(m)
    for t in order:
        i = expit(x[t] @ block(w_x, 0) + h @ block(w_h, 0) + b[0 * d_h:1 * d_h])
        f = expit(x[t] @ block(w_x, 1) + h @ block(w_h, 1) + b[1 * d_h:2 * d_h])
        g = np.tanh(x[t] @ block(w_x, 2) + h @ block(w_h, 2) + b[2 * d_h:3 * d_h])
        o = expit(x[t] @ block(w_x, 3) + h @ block(w_h, 3) + b[3 * d_h:4 * d_h])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def test_bilstm_matches_unrolled_cell_oracle():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        p = L.init_bilstm(rng, 3, 2)
        x = rng.standard_normal((3, 3))
        got = _alone(x, p)
        want = np.concatenate(
            [_np_lstm_direction(x, p, 0), _np_lstm_direction(x, p, 1)],
            axis=1,
        )
        npt.assert_allclose(got, want, atol=1e-10)


def test_bilstm_causality():
    rng = np.random.default_rng(6)
    p = L.init_bilstm(rng, 3, 2)
    x = rng.standard_normal((5, 3))
    base = _alone(x, p)
    bumped = x.copy()
    bumped[3] += 1.0
    out = _alone(bumped, p)
    # forward half before t=3 and backward half after t=3 cannot see the bump
    npt.assert_array_equal(out[:3, :2], base[:3, :2])
    npt.assert_array_equal(out[4:, 2:], base[4:, 2:])
    assert not np.allclose(out[3], base[3])


def test_bilstm_grad_check_sequence_and_weights():
    rng = np.random.default_rng(13)
    p = L.init_bilstm(rng, 3, 2)
    x = Tensor(rng.standard_normal((1, 2, 3)))
    assert T.grad_check(lambda t: L.bilstm(t, p), x) < 1e-6

    def wrt_wh(t):
        old = p.w_h
        p.w_h = t
        try:
            return L.bilstm(x, p)
        finally:
            p.w_h = old

    assert T.grad_check(wrt_wh, p.w_h) < 1e-6


def _ragged_batch(rng, lengths, d_in=3):
    """A (B, T, d_in) batch with random values in the padded rows too, and
    its (B, T) step mask."""
    steps = max(lengths)
    return (rng.standard_normal((len(lengths), steps, d_in)),
            np.arange(steps) < np.asarray(lengths)[:, None])


def test_bilstm_batch_matches_each_sequence_alone():
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        p = L.init_bilstm(rng, 3, 2)
        lengths = rng.integers(1, 6, size=4)
        x, mask = _ragged_batch(rng, lengths)
        got = L.bilstm(Tensor(x), p, mask).data
        for b, n in enumerate(lengths):
            npt.assert_allclose(got[b, :n], _alone(x[b, :n], p), rtol=0, atol=1e-12)


def test_bilstm_batch_padding_is_zero_and_gets_no_gradient():
    rng = np.random.default_rng(14)
    p = L.init_bilstm(rng, 3, 2)
    values, mask = _ragged_batch(rng, [2, 5, 1])
    x = Tensor(values, requires_grad=True)
    with T.Tape() as tape:
        out = L.bilstm(x, p, mask)
        tape.seed(out, rng.standard_normal(out.data.shape))
    padded = ~mask
    assert padded.sum() == 7
    npt.assert_array_equal(out.data[padded], 0.0)
    npt.assert_array_equal(x.grad[padded], 0.0)
    assert (x.grad[~padded] != 0.0).all()
    assert T.grad_check(lambda t: L.bilstm(t, p, mask), x) < 1e-6


def test_bilstm_mask_gap_matches_packed_real_steps():
    # live steps with gaps between them, as in a padded query followed by a
    # padded response
    rng = np.random.default_rng(15)
    p = L.init_bilstm(rng, 3, 2)
    mask = np.array([[1, 0, 0, 1, 1], [1, 1, 1, 0, 1], [0, 1, 0, 1, 1]], dtype=bool)
    x = Tensor(rng.standard_normal((3, 5, 3)), requires_grad=True)
    seed = rng.standard_normal((3, 5, 4))
    with T.Tape() as tape:
        out = L.bilstm(x, p, mask)
        tape.seed(out, seed)
    for b in range(3):
        live = np.flatnonzero(mask[b])
        packed = Tensor(x.data[b, live][None], requires_grad=True)
        with T.Tape() as tape:
            alone = L.bilstm(packed, p)
            tape.seed(alone, seed[b, live][None])
        npt.assert_allclose(out.data[b, live], alone.data[0], rtol=0, atol=1e-12)
        npt.assert_allclose(x.grad[b, live], packed.grad[0], rtol=0, atol=1e-12)
        npt.assert_array_equal(out.data[b, ~mask[b]], 0.0)
        npt.assert_array_equal(x.grad[b, ~mask[b]], 0.0)
    assert T.grad_check(lambda t: L.bilstm(t, p, mask), x) < 1e-6


def _oracle_case(rng, kind):
    """A (B, T) step mask of one kind of length pattern."""
    if kind == "T=1":
        return np.ones((int(rng.integers(1, 5)), 1), dtype=bool)
    if kind == "B=1":
        steps = int(rng.integers(1, 7))
        mask = rng.random((1, steps)) < 0.6
        mask[0, rng.integers(steps)] = True
        return mask
    if kind == "gapped":
        # live steps anywhere, as the lstm encoder's [query | response] mask
        steps, batch = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        mask = rng.random((batch, steps)) < 0.5
        mask[np.arange(batch), rng.integers(steps, size=batch)] = True
        return mask
    if kind == "tied":
        lengths = np.repeat(rng.integers(1, 6, size=2), 2)
    elif kind == "unsorted":
        lengths = np.sort(rng.choice(np.arange(1, 8), size=4, replace=False))
    else:  # ragged
        lengths = rng.integers(1, 7, size=int(rng.integers(2, 6)))
    return np.arange(lengths.max()) < lengths[:, None]


_ORACLE_KINDS = ["ragged", "gapped", "tied", "unsorted", "T=1", "B=1"]


@pytest.mark.parametrize("kind", _ORACLE_KINDS)
def test_bilstm_matches_two_pass_oracle(kind):
    # the one packed, length-sorted recurrence against each direction
    # walking every step under a mask: values, input gradient and all six
    # parameter gradients
    for seed in range(50):
        rng = np.random.default_rng(500 + 100 * _ORACLE_KINDS.index(kind) + seed)
        mask = _oracle_case(rng, kind)
        d_in, d_h = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        p = L.init_bilstm(rng, d_in, d_h)
        for _, param in L.named_tensors(p, "p"):
            param.data = param.data + 0.5 * rng.standard_normal(param.data.shape)
        values = rng.standard_normal(mask.shape + (d_in,))
        seed_grad = rng.standard_normal(mask.shape + (2 * d_h,))
        got = []
        for fn in (L.bilstm, bilstm_two_pass):
            x = Tensor(values, requires_grad=True)
            for _, param in L.named_tensors(p, "p"):
                param.grad = None
            with T.Tape() as tape:
                out = fn(x, p, mask)
                tape.seed(out, seed_grad)
            got.append([out.data, x.grad] + [param.grad for _, param in L.named_tensors(p, "p")])
        for mine, want in zip(*got):
            npt.assert_allclose(mine, want, rtol=0, atol=1e-12)
        npt.assert_array_equal(got[0][0][~mask], 0.0)
        npt.assert_array_equal(got[0][1][~mask], 0.0)


def test_bilstm_is_one_tape_entry():
    rng = np.random.default_rng(16)
    p = L.init_bilstm(rng, 3, 2)
    x = Tensor(rng.standard_normal((3, 4, 3)), requires_grad=True)
    with T.Tape() as tape:
        L.bilstm(x, p, np.arange(4) < np.array([[2], [4], [1]]))
    assert len(tape) == 1


def test_bilstm_batch_rejects_bad_lengths():
    # the step mask must be a (B, T) boolean array with a live step per sequence
    p = L.init_bilstm(np.random.default_rng(1), 3, 2)
    x = Tensor(np.zeros((2, 3, 3)))
    for mask in (np.ones((1, 3), dtype=bool), np.ones((2, 2), dtype=bool),
                 np.array([[True] * 3, [False] * 3]), np.ones(2, dtype=bool), np.ones((2, 3))):
        with pytest.raises(ShapeError):
            L.bilstm(x, p, mask)
    with pytest.raises(ShapeError):
        L.bilstm(Tensor(np.zeros((3, 3))), p, np.ones((1, 3), dtype=bool))


def test_init_bounds_and_forget_bias():
    rng = np.random.default_rng(2)
    lin = L.init_linear(rng, 16, 4)
    assert np.abs(lin.weight.data).max() <= 1.0 / 4.0
    npt.assert_array_equal(lin.bias.data, np.zeros(4))

    state = rng.bit_generator.state
    p = L.init_bilstm(rng, 9, 4)
    assert np.abs(p.w_x.data).max() <= 1.0 / 3.0
    assert np.abs(p.w_h.data).max() <= 1.0 / 2.0
    # the draws of one direction after the other, each w_x then w_h, with
    # each matrix's own bound: a seed gives the weights it always gave
    again = np.random.default_rng()
    again.bit_generator.state = state
    for d in range(2):
        npt.assert_array_equal(p.w_x.data[d], again.uniform(-1.0 / 3.0, 1.0 / 3.0, (9, 16)))
        npt.assert_array_equal(p.w_h.data[d], again.uniform(-1.0 / 2.0, 1.0 / 2.0, (4, 16)))
    # bias is zero except the forget block, which starts at one, in both
    # directions
    for b in p.b.data:
        npt.assert_array_equal(b[4:8], np.ones(4))
        npt.assert_array_equal(b[:4], np.zeros(4))
        npt.assert_array_equal(b[8:], np.zeros(8))


@dataclass
class _Tree:
    # field order differs from alphabetical order on purpose
    second: object
    first: object
    count: int = 3
    rate: float = 0.5
    absent: object = None


def test_named_tensors_follows_fields_and_indexes_lists():
    a, b, c, d = (Tensor(np.full(2, float(i))) for i in range(4))
    tree = _Tree(second=[a, L.LinearParams(b, c)], first=_Tree(second=d, first=None))
    named = list(L.named_tensors(tree, "t"))
    assert [name for name, _ in named] == [
        "t.second.0", "t.second.1.weight", "t.second.1.bias", "t.first.second",
    ]
    # the very tensors, not copies: the optimizer updates them in place
    assert all(got is want for (_, got), want in zip(named, (a, b, c, d)))
    assert list(L.named_tensors(L.init_layer_norm(3), "ln"))[-1][0] == "ln.beta"
    assert list(L.named_tensors(None, "x")) == []
    assert list(L.named_tensors(Tensor(np.zeros(1)), "leaf"))[0][0] == "leaf"


# -- checkpoint container --------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    entries = {
        "enc.weight": rng.standard_normal((3, 4)),
        "enc.bias": rng.standard_normal(4).astype(np.float32),
        "scalar": np.array(3.5),
        "unicode/имя": rng.standard_normal(2),
        "config": np.frombuffer('{"lr": 0.001}'.encode("utf-8"), dtype=np.uint8),
    }
    path = tmp_path / "model.canckpt"
    write_checkpoint(path, entries)
    back = read_checkpoint(path)
    assert list(back) == list(entries)
    for name in entries:
        assert back[name].dtype == np.asarray(entries[name]).dtype
        npt.assert_array_equal(back[name], entries[name])


def test_checkpoint_identical_files_for_identical_entries(tmp_path):
    entries = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "one.canckpt", tmp_path / "two.canckpt"
    write_checkpoint(p1, entries)
    write_checkpoint(p2, entries)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.canckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.canckpt"
    write_checkpoint(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_checkpoint_rejects_an_extent_product_that_wraps(tmp_path):
    # (2**32 - 1)**2 items wrap to a negative count in int64 arithmetic
    path = tmp_path / "model.canckpt"
    write_overflowing_container(path)
    with pytest.raises(CheckpointError, match=f"truncated container {path}"):
        read_checkpoint(path)


def test_checkpoint_rejects_an_empty_entry_too_large_for_an_array(tmp_path):
    # zero items pass the payload read, but numpy refuses any shape whose
    # nonzero extents span more than 2**63 - 1 bytes; per dtype tag (float64,
    # float32), an empty entry just inside that limit, then one just past it
    path = tmp_path / "model.canckpt"
    for tag, fits, too_wide in ((1, (0, 2 ** 30 - 1, 2 ** 30 + 1), (0, 2 ** 30, 2 ** 30)),
                                (0, (0, 2 ** 30, 2 ** 31 - 1), (0, 2 ** 30, 2 ** 31))):
        # read as far as the 16 bytes after the entry
        write_overflowing_container(path, fits, tag)
        with pytest.raises(CheckpointError, match="16 trailing bytes"):
            read_checkpoint(path)
        for extents in (too_wide, (0, 2 ** 32 - 1, 2 ** 32 - 1)):
            write_overflowing_container(path, extents, tag)
            with pytest.raises(CheckpointError, match=f"{path} entry 'w' has shape"):
                read_checkpoint(path)


def test_checkpoint_rejects_a_repeated_entry(tmp_path):
    path = tmp_path / "features.canckpt"
    write_checkpoint(path, {"a": np.zeros(2), "b": np.ones((2, 3))})
    append_entry(path, "b", np.full((2, 3), 2.0))
    with pytest.raises(CheckpointError, match=f"^{path} has entry 'b' twice$"):
        read_checkpoint(path)


def test_checkpoint_rejects_integer_arrays(tmp_path):
    with pytest.raises(CheckpointError):
        write_checkpoint(tmp_path / "x.canckpt", {"ids": np.arange(3)})


class _HalfWrite:
    """A file whose write stores half the payload, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, payload):
        self.fh.write(payload[: len(payload) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail", ["write", "rename"])
def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch, fail):
    path = tmp_path / "model.canckpt"
    write_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
    before = path.read_bytes()
    if fail == "write":
        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **kw: _HalfWrite(open(*a, **kw)), raising=False)
    else:
        def no_rename(src, dst):
            raise OSError(5, "Input/output error")
        monkeypatch.setattr(checkpoint.os, "replace", no_rename)
    with pytest.raises(OSError):
        write_checkpoint(path, {"w": np.zeros((50, 50))})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.canckpt"]
