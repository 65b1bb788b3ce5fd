import numpy as np
import numpy.testing as npt
import pytest

from helpers import assert_flat_aliasing, stage_sweep
from vcrnet import diagnostics
from vcrnet.attention import SUBLAYERS
from vcrnet.data import TASK_Q2A, make_task
from vcrnet.model import STAGES, stage_of
from vcrnet.diagnostics import (
    CheckResult,
    end_to_end_checks,
    layer_checks,
    probe_instance,
    probe_model,
    restart_of,
    restart_points,
)
from vcrnet.tensor import Tape
from vcrnet.training import task_loss


def test_layer_battery_is_clean():
    results = layer_checks()
    assert results
    worst = max(r.max_rel_err for r in results)
    assert worst <= 1e-4
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    # the fused hand-written backward rules are the risky ones; make sure
    # they are actually in the battery
    assert any(n.startswith("bilstm") for n in names)
    assert any(n.startswith("sdpa") for n in names)
    assert {"linear/x", "layer_norm/residual/y", "feed_forward/train/x",
            "feed_forward/train.lin1.weight"} <= set(names)


def test_probe_instance_round_trips_validation():
    inst = probe_instance()
    assert inst.validate() is inst
    assert len(inst.answers) == 4
    assert inst.objects.shape == (2, 2)


def test_probe_model_head_is_live():
    model = probe_model()
    assert np.abs(model.reduction.clf.weight.data).max() > 0
    inst = probe_instance()
    logits = model.forward_chunk([make_task(inst, TASK_Q2A)]).logits.data
    assert np.abs(logits).max() > 0


def test_stage_routing_covers_every_parameter():
    for overrides in ({}, {"ga": False}, {"encoder": "lstm"}):
        for name, _ in probe_model(**overrides).named_parameters():
            assert stage_of(name) in STAGES
    assert stage_of("embedding") == "encode"
    assert stage_of("reduce.clf.weight") == "head"
    with pytest.raises(ValueError):
        stage_of("bogus.weight")


def test_check_result_serializes():
    r = CheckResult("x/y", 1.5e-9, 12, 0.12345)
    blob = r.to_json_dict()
    assert blob == {"name": "x/y", "max_rel_err": 1.5e-9, "coords": 12,
                    "seconds": 0.123}
    named = CheckResult("end_to_end/head", 1.5e-9, 12, 0.12345, "reduce.w1[3]")
    assert named.to_json_dict() == {**blob, "name": "end_to_end/head",
                                    "worst_at": "reduce.w1[3]"}
    # strict JSON: a non-finite error is written as null
    for err in (np.nan, np.inf):
        assert CheckResult("x/y", err, 12, 0.12345).to_json_dict() == {
            **blob, "max_rel_err": None}


def test_probe_model_overrides_replace_its_fields():
    overrides = dict(d_model=12, d_token=6, heads=3, layers=2, dropout=0.1)
    config = probe_model(**overrides).config
    assert {key: getattr(config, key) for key in overrides} == overrides


# the probe model and its ablations: no guided fusion, the masked BiLSTM
# encoder, and two co-attention layers (narrower, at d_model=4 and one head,
# to keep their sweeps short)
PROBES = pytest.mark.parametrize(
    "overrides", [{}, {"ga": False}, {"encoder": "lstm"}, {"layers": 2, "d_model": 4, "heads": 1}],
    ids=["default", "no-ga", "lstm", "layers2"])


@PROBES
def test_end_to_end_sweep_of_ablation_probe_models(overrides, request):
    # each attention unit's parameters restart at the sublayer that reads
    # them; the sweep that reruns whole stages must agree with it to the
    # last bit. The ablations take other paths, and at layers=2 a layer-0
    # restart reruns layer 1 of its side. The default probe's sweep is A1's,
    # run once per session
    if overrides:
        model = probe_model(**overrides)
        results = end_to_end_checks(model=model)
    else:
        model, battery, _ = request.getfixturevalue("a1_battery")
        results = [r for r in battery if r.name.startswith("end_to_end/")]
    # the sweep writes coordinates of the flat buffer and puts each back
    assert_flat_aliasing(model)
    npt.assert_array_equal(model.flat, probe_model(**overrides).flat)
    assert [(r.name, r.max_rel_err, r.coords, r.worst_at) for r in results] == \
        stage_sweep(model)
    assert sum(r.coords for r in results) == model.num_parameters()
    worst = max(r.max_rel_err for r in results)
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"


@PROBES
def test_a_stacked_rest_keeps_each_state_apart(overrides):
    # the sweep runs the rest once on the +h / -h states of a block of
    # coordinates, laid end to end; row by row that must be exactly the loss
    # of each state run alone. Each restart takes the three coordinates of
    # largest gradient among the parameters that restart there, so that
    # every state differs
    model = probe_model(**overrides)
    task = make_task(probe_instance(), TASK_Q2A)
    with Tape() as tape:
        tape.backward(task_loss(model.forward_chunk([task]).logits.reshape(4), task.gold))
    grad = np.abs(model.flat_grad())
    model.zero_grad()
    points = restart_points(model, task)
    owner = np.concatenate([[restart_of(name, points)] * p.data.size
                            for name, p in model.named_parameters()])
    flat = model.flat
    checked = 0
    for where, (part, rest) in points.items():
        coords = np.flatnonzero(owner == where)
        if coords.size == 0:
            continue  # a stage whose every parameter restarts at a unit
        states = []
        for i in coords[np.argsort(-grad[coords], kind="stable")[:3]]:
            orig = flat[i]
            for step in (1e-3, -1e-3):
                flat[i] = orig + step
                states.append(part())
            flat[i] = orig
        alone = [rest([state])[0] for state in states]
        assert len(set(alone)) == len(alone), where
        assert rest(states) == alone, where
        checked += 1
    assert checked == len(set(owner))


@PROBES
def test_each_unit_parameter_restarts_at_its_sublayer(overrides):
    # an attention unit's parameter restarts at the one sublayer that reads
    # it, named by its prefix: fuse.<unit>.<sublayer> or
    # coattn.<side>.<layer>.<unit>.<sublayer>; any other at its stage
    model = probe_model(**overrides)
    points = restart_points(model, make_task(probe_instance(), TASK_Q2A))
    used = set()
    for name, _ in model.named_parameters():
        path = name.split(".")
        depth = {"fuse": 3, "coattn": 5}.get(path[0])
        key = restart_of(name, points)
        if depth is None:
            assert key == stage_of(name), name
        else:
            assert key == ".".join(path[:depth]) and path[depth - 1] in SUBLAYERS, name
            used.add(key)
    assert used == set(points) - set(STAGES)


def test_a_restart_that_misses_the_loss_in_a_stack_is_named(monkeypatch):
    # a rest that is exact on one copy but not on a stack of them stops the
    # sweep before it starts
    model = probe_model()
    head = model._stage_head

    def off_in_the_last_row(state, rng):
        state = head(state, rng)
        if state.logits.data.shape[0] > 1:
            state.logits.data[-1, 0] += 1.0
        return state

    monkeypatch.setattr(model, "_stage_head", off_in_the_last_row)
    with pytest.raises(AssertionError, match="restart 'encode' .* stack of 2"):
        end_to_end_checks(model=model)


def _nan_head_while_perturbed(monkeypatch, model, name, index):
    # the model's head gives NaN logits while flat coordinate `index` of
    # parameter `name` is perturbed
    offsets = np.cumsum([0] + [p.data.size for _, p in model.named_parameters()])
    at = offsets[[n for n, _ in model.named_parameters()].index(name)] + index
    orig = model.flat[at]
    head = model._stage_head

    def head_with_nan(state, rng):
        state = head(state, rng)
        if model.flat[at] != orig:
            state.logits.data[...] = np.nan
        return state

    monkeypatch.setattr(model, "_stage_head", head_with_nan)


def test_a_nan_central_difference_fails_its_stage(monkeypatch):
    # NaN compares false with every number, so a NaN error must be ranked
    # above them explicitly, or the stage passes
    model = probe_model()
    _nan_head_while_perturbed(monkeypatch, model, "reduce.clf.weight", 6)
    head = end_to_end_checks(model=model)[-1]
    assert head.name == "end_to_end/head" and np.isnan(head.max_rel_err)
    assert head.worst_at == "reduce.clf.weight[6]"
    # the oracle ranks it the same way (on a narrower model, to stay short)
    small = probe_model(ga=False, encoder="lstm", d_model=4, heads=1)
    _nan_head_while_perturbed(monkeypatch, small, "reduce.clf.weight", 2)
    swept = [(r.name, r.max_rel_err, r.coords, r.worst_at)
             for r in end_to_end_checks(model=small)]
    oracle = stage_sweep(small)
    assert swept[:-1] == oracle[:-1]
    head_coords = swept[-1][2]
    for name, err, coords, worst_at in (swept[-1], oracle[-1]):
        assert np.isnan(err)
        assert (name, coords, worst_at) == \
            ("end_to_end/head", head_coords, "reduce.clf.weight[2]")


def test_a_sweep_that_raises_leaves_the_model_as_it_was(monkeypatch):
    # the sublayer restarts' chains fail as soon as they see a perturbed
    # model: the coordinate being evaluated must be put back all the same
    model = probe_model()
    before = model.flat.copy()
    run_chain = diagnostics.run_chain

    def chain_unperturbed_only(*args, **kwargs):
        if not np.array_equal(model.flat, before):
            raise RuntimeError("evaluation failed mid-sweep")
        return run_chain(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "run_chain", chain_unperturbed_only)
    with pytest.raises(RuntimeError, match="mid-sweep"):
        end_to_end_checks(model=model)
    assert model.flat.tobytes() == before.tobytes()
    assert_flat_aliasing(model)
