import weakref

import numpy as np
import numpy.testing as npt
import pytest

from helpers import add, all_gradients

from vcrnet import tensor as T
from vcrnet.data import TASK_Q2A, TASK_QA2R, make_task
from vcrnet.diagnostics import probe_instance, probe_model
from vcrnet.tensor import Tensor, Tape, ShapeError
from vcrnet.training import task_loss


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, k, m = rng.integers(1, 6, size=3)
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        got = (Tensor(a) @ Tensor(b)).data
        want = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                for p in range(k):
                    want[i, j] += a[i, p] * b[p, j]
        npt.assert_allclose(got, want, atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


@pytest.mark.parametrize("apply", [
    lambda a, b: a + b,
    lambda a, b: a @ b,
    lambda a, b: b + a,
    lambda a, b: b @ a,
], ids=["tensor-add", "tensor-matmul", "ndarray-add", "ndarray-matmul"])
def test_operator_with_ndarray_operand_is_type_error(apply):
    with pytest.raises(TypeError):
        apply(Tensor(np.eye(2)), np.eye(2))


def test_backward_through_matmul_sum():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0], [6.0]]), requires_grad=True)
    with Tape() as tape:
        out = a @ b
    tape.seed(out, np.ones((2, 1)))
    npt.assert_allclose(a.grad, np.ones((2, 1)) @ b.data.T)
    npt.assert_allclose(b.grad, a.data.T @ np.ones((2, 1)))


def test_backward_twice_accumulates():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = x.reshape(1, 2) @ x.reshape(2, 1)  # x · x
    tape.backward(loss)
    first = x.grad.copy()
    with Tape() as again:
        loss = x.reshape(1, 2) @ x.reshape(2, 1)
    again.backward(loss)
    npt.assert_allclose(x.grad, 2.0 * first)


def test_value_used_twice_gets_summed_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
        loss = add(y, y)
    tape.backward(loss)
    npt.assert_allclose(x.grad, [4.0])


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.zeros(3), requires_grad=True)
    with Tape() as tape:
        y = x.reshape(3, 1)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_constant_loss_leaves_grads_unset():
    x = Tensor(np.ones(4), requires_grad=True)
    with Tape() as tape:
        loss = Tensor(np.array(7.0))
    tape.backward(loss)
    assert x.grad is None


def test_ops_outside_tape_record_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.concat([x @ x, x]).reshape(8)
    assert y.grad is None and x.grad is None
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_inner_tape_shadows_outer():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as outer:
        with Tape() as inner:
            add(add(x, x), x)
        assert len(outer) == 0
        assert len(inner) == 2


# -- finite-difference verification of every backward rule -----------------


def _check_many(make, count=30, tol=1e-7):
    worst = 0.0
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        f, x = make(rng)
        worst = max(worst, T.grad_check(f, x, seed=seed))
    assert worst < tol, f"worst relative error {worst:.3e}"


def test_grad_check_matmul():
    def make(rng):
        n, k, m = rng.integers(1, 5, size=3)
        b = Tensor(rng.standard_normal((k, m)))
        return (lambda t: t @ b), Tensor(rng.standard_normal((n, k)))

    _check_many(make, count=100)


def test_grad_check_structural_ops():
    def reshape_make(rng):
        return (lambda t: t.reshape(6, 2)), Tensor(rng.standard_normal((3, 4)))

    def slice_make(rng):
        return (lambda t: t.slice(1, 1, 3)), Tensor(rng.standard_normal((3, 4)))

    def concat_make(rng):
        other = Tensor(rng.standard_normal((2, 4)))
        return (lambda t: T.concat([t, other], axis=0)), Tensor(rng.standard_normal((3, 4)))

    for make in (reshape_make, slice_make, concat_make):
        _check_many(make, count=20)


def test_grad_check_embedding():
    ids = [0, 2, 2, 1]

    def make(rng):
        return (lambda t: T.embedding_lookup(t, ids)), Tensor(rng.standard_normal((4, 5)))

    _check_many(make, count=20)


def test_grad_check_catches_broken_backward():
    """A deliberately wrong rule must trip the checker, not slip through."""

    def bad_double(t):
        return T.record_op(t.data * 2.0, [t], lambda g: (g * 3.0,))

    err = T.grad_check(bad_double, Tensor(np.array([1.0, -2.0, 0.5])))
    assert err > 1e-2


def test_concat_slice_round_trip():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(6.0, 14.0).reshape(2, 4), requires_grad=True)
    with Tape() as tape:
        joined = T.concat([a, b], axis=1)
        back = joined.slice(1, 0, 3)
    npt.assert_allclose(back.data, a.data)
    tape.seed(back, np.ones((2, 3)))
    npt.assert_allclose(a.grad, np.ones((2, 3)))
    npt.assert_allclose(b.grad, np.zeros((2, 4)))


def test_slice_rejects_bad_bounds():
    x = Tensor(np.zeros((2, 5)))
    for start, stop in [(-1, 2), (3, 3), (0, 6), (4, 2)]:
        with pytest.raises(ShapeError):
            x.slice(1, start, stop)


def test_embedding_lookup_gathers_and_scatters():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    with Tape() as tape:
        rows = T.embedding_lookup(table, [2, 0, 2])
    npt.assert_allclose(rows.data, table.data[[2, 0, 2]])
    tape.seed(rows, np.ones((3, 3)))
    # row 2 was gathered twice, so its gradient doubles
    npt.assert_allclose(table.grad, np.array([[1.0] * 3, [0.0] * 3, [2.0] * 3, [0.0] * 3]))


def test_embedding_rejects_out_of_range_ids():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        T.embedding_lookup(table, [0, 4])
    with pytest.raises(IndexError):
        T.embedding_lookup(table, [-1])


def test_first_non_finite_names_the_op():
    x = Tensor([[1.0, -1.0]], requires_grad=True)
    with Tape() as tape:
        add(x, x) @ Tensor([[np.inf], [0.0]])
    assert tape.first_non_finite() == (1, "matmul")
    with Tape() as clean:
        add(x, x) @ Tensor([[1.0], [0.0]])
    assert clean.first_non_finite() is None


def test_batched_matmul_forms_match_per_row_products():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 2, 4))
    shared = rng.standard_normal((4, 5))
    paired = rng.standard_normal((3, 4, 5))
    got_shared = (Tensor(a) @ Tensor(shared)).data
    got_paired = (Tensor(a) @ Tensor(paired)).data
    for b in range(3):
        npt.assert_allclose(got_shared[b], a[b] @ shared, rtol=0, atol=1e-12)
        npt.assert_allclose(got_paired[b], a[b] @ paired[b], rtol=0, atol=1e-12)
    for bad in ((2, 4, 5), (4,), (3, 5, 4)):
        with pytest.raises(ShapeError):
            Tensor(a) @ Tensor(np.zeros(bad))


def test_grad_check_batched_matmul():
    rng = np.random.default_rng(13)
    a = Tensor(rng.standard_normal((3, 2, 4)))
    shared = Tensor(rng.standard_normal((4, 5)))
    paired = Tensor(rng.standard_normal((3, 4, 5)))
    assert T.grad_check(lambda t: t @ shared, a) < 1e-7
    assert T.grad_check(lambda t: a @ t, shared) < 1e-7
    assert T.grad_check(lambda t: t @ paired, a) < 1e-7
    assert T.grad_check(lambda t: a @ t, paired) < 1e-7


def test_repeat_copies_rows_and_sums_their_gradients():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = T.repeat(x, 4)
        seed = rng.standard_normal((8, 3))
        tape.seed(y, seed)
    assert y.data.shape == (8, 3)
    for b in range(8):
        npt.assert_array_equal(y.data[b], x.data[b // 4])
    npt.assert_allclose(x.grad, seed.reshape(2, 4, 3).sum(axis=1), rtol=0, atol=1e-12)
    assert T.grad_check(lambda t: T.repeat(t, 3), x) < 1e-7
    assert T.grad_check(lambda t: T.repeat(t, 2), Tensor(rng.standard_normal((3, 2, 2)))) < 1e-7
    with pytest.raises(ShapeError):
        T.repeat(x, 0)
    with pytest.raises(ShapeError):
        T.repeat(Tensor(np.array(1.0)), 2)


def test_seed_writes_leaves_only_and_matches_full_accumulation():
    # a chunk forward of the probe model: the leaves are its parameters
    inst = probe_instance()
    model = probe_model(inst)
    tasks = [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R)]
    with Tape() as tape:
        logits = model.forward_chunk(tasks).logits
        losses = task_loss(logits, [t.gold for t in tasks])
    want = all_gradients(tape, losses, np.ones(2))
    outputs = [out for _, out, _ in tape._entries]
    tape.seed(losses, np.ones(2))
    assert all(entry is None for entry in tape._entries)
    for out in outputs:
        assert out.grad is None
    for name, p in model.named_parameters():
        if id(p) in want:
            assert np.array_equal(p.grad, want[id(p)]), name
        else:
            assert p.grad is None, name
    # a second tape of the same forward adds the same totals again
    first = {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}
    with Tape() as again:
        logits = model.forward_chunk(tasks).logits
        losses = task_loss(logits, [t.gold for t in tasks])
    again.seed(losses, np.ones(2))
    for name, grad in first.items():
        npt.assert_array_equal(dict(model.named_parameters())[name].grad, grad + grad)



def test_seed_releases_each_rule_as_it_runs():
    # a co-attention trace's weights are saved by the multi_head rule that
    # produced them; once the forward's result is dropped, only that rule
    # holds them, and the backward frees it as it walks past
    inst = probe_instance()
    model = probe_model(inst)
    tasks = [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R)]
    with Tape() as tape:
        fwd = model.forward_chunk(tasks)
        heads = [weakref.ref(t.heads) for t in fwd.traces if t.unit.startswith("coattn.")]
        logits = fwd.logits
        del fwd
        losses = task_loss(logits, [t.gold for t in tasks])
    entries = len(tape)
    assert heads and all(ref() is not None for ref in heads)
    tape.seed(losses, np.ones(2))
    assert all(ref() is None for ref in heads)
    assert len(tape) == entries
    assert all(entry is None for entry in tape._entries)


def test_seed_releases_each_entry_output():
    # an intermediate output is held only by the tape: by the entry that
    # produced it and the entries that read it, which the walk releases
    inst = probe_instance()
    model = probe_model(inst)
    tasks = [make_task(inst, kind) for kind in (TASK_Q2A, TASK_QA2R)]
    with Tape() as tape:
        logits = model.forward_chunk(tasks).logits
        losses = task_loss(logits, [t.gold for t in tasks])
    # every output but those this test holds: the losses and the logits,
    # whose data is a view of the head's output
    refs = [weakref.ref(out.data) for _, out, _ in tape._entries
            if not any(np.shares_memory(out.data, t.data) for t in (logits, losses))]
    assert len(refs) == len(tape) - 3 and all(ref() is not None for ref in refs)
    tape.seed(losses, np.ones(2))
    assert all(ref() is None for ref in refs)


def test_a_tape_is_seeded_once():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = x.reshape(1, 2) @ x.reshape(2, 1)  # x · x
    tape.backward(loss)
    for again in (lambda: tape.backward(loss), lambda: tape.seed(loss, np.ones((1, 1))),
                  tape.first_non_finite):
        with pytest.raises(RuntimeError, match="seeded already"):
            again()
    npt.assert_array_equal(x.grad, [2.0, 4.0])
