"""The traced run: per-layer numbers for one workload.

Order: set-up once under the tracer (for the per-call data and checkpoint
figures), a warm-up, a fixed number of untraced rounds, then the same
number of traced rounds. The untraced rounds give the tracing overhead. The
traced rounds must repeat their work counts exactly, round by round.

Per-unit figures are divided by the workload's unit of work (one training
instance, one eval task, one A1 battery); `*_ms` figures named per call
(Adam step, in-epoch evaluation, checkpoint write/read, data generation and
loading) are means per call over the whole traced run, 0 when the workload
never makes that call.
"""

from __future__ import annotations

from spans import OP_KINDS, STAGES, Tracer, op_kind
from workloads import NoSpans, Sample


def _snapshot(tracer: Tracer) -> dict:
    out = {f"count:{k}": v for k, v in tracer.counts.items()}
    out.update({f"op:{k}": v for k, v in tracer.ops.items()})
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for stage in STAGES:
        names += [(f"model.{stage}.fwd_ms", "ms"), (f"model.{stage}.bwd_ms", "ms"),
                  (f"model.{stage}.tape_entries", "count")]
    names.append(("model.padded_row_share", "share"))
    names += [("tensor.tape_entries", "count"), ("tensor.backward_ms", "ms")]
    names += [(f"tensor.ops.{k}", "count") for k in OP_KINDS]
    names += [("tensor.ops.other", "count"), ("tensor.ops.total", "count")]
    names += [
        ("layers.bilstm.ms", "ms"), ("layers.bilstm.steps", "count"),
        ("grounding.ground.ms", "ms"), ("grounding.align_tags.ms", "ms"),
        ("grounding.guided_fuse.ms", "ms"),
        ("attention.unit.calls", "count"), ("attention.unit.ms", "ms"),
        ("attention.sdpa.calls", "count"), ("coattention.coattend.ms", "ms"),
        ("reduction.ms", "ms"),
        ("training.adam_step_ms", "ms"), ("training.eval_ms", "ms"),
        ("checkpoint.write_ms", "ms"), ("checkpoint.read_ms", "ms"),
        ("checkpoint.bytes", "count"),
        ("data.synth_generate_ms", "ms"), ("data.load_instances_ms", "ms"),
    ]
    for stage in STAGES:
        names += [(f"diagnostics.end_to_end.{stage}.s", "s"),
                  (f"diagnostics.end_to_end.{stage}.coords", "count")]
    names += [("diagnostics.stage_calls", "count"), ("diagnostics.layer_checks.s", "s")]
    names += [
        ("trace.step_ms", "ms"), ("trace.untraced_step_ms", "ms"),
        ("trace.overhead_share", "share"), ("trace.attributed_ms", "ms"),
        ("trace.unattributed_ms", "ms"),
    ]
    return names


def _per_call_ms(tracer: Tracer, name: str) -> float:
    calls = tracer.calls[name]
    return 1000.0 * tracer.incl[name] / calls if calls else 0.0


def layer_values(tracer: Tracer, units: int, untraced_ms: float, untraced_units: int,
                 diag_results: list) -> dict:
    """Per-layer values from a tracer whose window covered `units` of work."""
    ms = {k: 1000.0 * v / units for k, v in tracer.win_incl.items()}
    counts = {k: v / units for k, v in tracer.counts.items()}
    v = {}
    for stage in STAGES:
        v[f"model.{stage}.fwd_ms"] = ms.get(f"model.{stage}", 0.0)
        v[f"model.{stage}.bwd_ms"] = 1000.0 * tracer.stage_bwd.get(stage, 0.0) / units
        v[f"model.{stage}.tape_entries"] = counts.get(f"model.{stage}.tape_entries", 0)
    rows = tracer.counts["model.candidate_rows"]
    v["model.padded_row_share"] = tracer.counts["model.padded_rows"] / rows if rows else 0.0
    v["tensor.tape_entries"] = counts.get("tensor.tape_entries", 0)
    v["tensor.backward_ms"] = ms.get("tensor.backward", 0.0)
    by_kind = {}
    for qualname, n in tracer.ops.items():
        kind = op_kind(qualname)
        by_kind[kind] = by_kind.get(kind, 0) + n
    for kind in OP_KINDS:
        v[f"tensor.ops.{kind}"] = by_kind.pop(kind, 0) / units
    v["tensor.ops.other"] = sum(by_kind.values()) / units
    v["tensor.ops.total"] = sum(tracer.ops.values()) / units
    v["layers.bilstm.ms"] = ms.get("layers.bilstm", 0.0)
    v["layers.bilstm.steps"] = counts.get("layers.bilstm.steps", 0)
    for name in ("grounding.ground", "grounding.align_tags", "grounding.guided_fuse",
                 "attention.unit", "coattention.coattend"):
        v[f"{name}.ms"] = ms.get(name, 0.0)
    v["attention.unit.calls"] = counts.get("attention.unit.calls", 0)
    v["attention.sdpa.calls"] = counts.get("attention.sdpa.calls", 0)
    v["reduction.ms"] = ms.get("reduction", 0.0)
    v["training.adam_step_ms"] = _per_call_ms(tracer, "training.adam_step")
    v["training.eval_ms"] = _per_call_ms(tracer, "training.eval")
    v["checkpoint.write_ms"] = _per_call_ms(tracer, "checkpoint.write")
    v["checkpoint.read_ms"] = _per_call_ms(tracer, "checkpoint.read")
    writes = tracer.calls["checkpoint.write"]
    v["checkpoint.bytes"] = tracer.counts_all["checkpoint.bytes"] / writes if writes else 0
    v["data.synth_generate_ms"] = _per_call_ms(tracer, "data.synth_generate")
    v["data.load_instances_ms"] = _per_call_ms(tracer, "data.load_instances")
    by_check = {r.name: r for r in diag_results}
    for stage in STAGES:
        r = by_check.get(f"end_to_end/{stage}")
        v[f"diagnostics.end_to_end.{stage}.s"] = r.seconds if r else 0.0
        v[f"diagnostics.end_to_end.{stage}.coords"] = r.coords if r else 0
    v["diagnostics.stage_calls"] = counts.get("diagnostics.stage_calls", 0)
    v["diagnostics.layer_checks.s"] = sum(
        r.seconds for r in diag_results if not r.name.startswith("end_to_end/"))
    step = ms.get("workload.call", 0.0)
    unattributed = 1000.0 * tracer.win_self.get("workload.call", 0.0) / units
    v["trace.step_ms"] = step
    v["trace.untraced_step_ms"] = untraced_ms / untraced_units
    v["trace.overhead_share"] = step / v["trace.untraced_step_ms"] - 1.0
    v["trace.attributed_ms"] = step - unattributed
    v["trace.unattributed_ms"] = unattributed
    return v


def run(cls, seed: int, workdir) -> tuple:
    tracer = Tracer()
    workload = cls(seed, workdir, spans=tracer)
    tracer.install()
    try:
        workload.prepare()
    finally:
        tracer.uninstall()
    workload.warm_up()

    workload.spans = NoSpans()
    untraced = [s for _ in range(cls.traced_rounds) for s in workload.round()]
    diag_results = list(getattr(workload, "last_results", []))

    workload.spans = tracer
    traced, deltas = [], []
    tracer.install()
    try:
        for _ in range(cls.traced_rounds):
            before = _snapshot(tracer)
            traced.extend(workload.round())
            deltas.append(_delta(_snapshot(tracer), before))
    finally:
        tracer.uninstall()

    samples = untraced + traced
    if any(d != deltas[0] for d in deltas[1:]):
        samples.append(Sample(0, 0.0, False, errors=["work counts differ between rounds"]))
    values = layer_values(
        tracer, workload.units(traced),
        sum(s.ms for s in untraced), workload.units(untraced), diag_results,
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    self_ms = {k: 1000.0 * s / workload.units(traced) for k, s in sorted(tracer.win_self.items())}
    detail = {"unit": cls.unit, "units": workload.units(traced),
              "self_ms_per_unit": self_ms, "round_counts": deltas[0]}
    return metrics, samples, detail
