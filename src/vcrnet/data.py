"""Data model for four-way multiple-choice visual reasoning instances.

An instance bundles detected-object features, a tagged question, four
candidate answers, and four candidate rationales. Tags are bracketed object
indices inside the text ("[1]") linking a token to an object.

Files: annotations are JSON Lines (one instance per line, token/tag arrays
in parallel); object features live in a separate binary container keyed
"objects/<instance_id>". The synthetic generator plants a feature signature
on one focus object per instance so that the gold candidate is decidable,
but only through tag-object alignment, never from text statistics alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from vcrnet.checkpoint import read_checkpoint, write_atomic, write_checkpoint

TASK_Q2A = "Q2A"
TASK_QA2R = "QA2R"

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class DataError(ValueError):
    """Raised for malformed instances, files, or prediction sets."""


@dataclass(frozen=True)
class TaggedToken:
    text: str
    tag: Optional[int] = None


@dataclass
class VcrInstance:
    instance_id: str
    objects: np.ndarray
    object_labels: list
    question: list
    answers: list
    rationales: list
    gold_answer: int
    gold_rationale: int

    def validate(self) -> "VcrInstance":
        k = self.objects.shape[0] if self.objects.ndim == 2 else -1
        if k < 1:
            raise DataError(f"{self.instance_id}: objects must be a non-empty k x d matrix")
        if len(self.object_labels) != k:
            raise DataError(
                f"{self.instance_id}: {len(self.object_labels)} labels for {k} objects"
            )
        if len(self.answers) != 4 or len(self.rationales) != 4:
            raise DataError(
                f"{self.instance_id}: expected 4 answers and 4 rationales, "
                f"got {len(self.answers)} and {len(self.rationales)}"
            )
        if not np.isfinite(self.objects).all():
            raise DataError(f"{self.instance_id}: object features contain NaN or Inf")
        if not 0 <= self.gold_answer < 4 or not 0 <= self.gold_rationale < 4:
            raise DataError(f"{self.instance_id}: gold index out of range")
        for seq in [self.question, *self.answers, *self.rationales]:
            if not seq:
                raise DataError(f"{self.instance_id}: empty token sequence")
            for tok in seq:
                if tok.tag is not None and not 0 <= tok.tag < k:
                    raise DataError(
                        f"{self.instance_id}: tag {tok.tag} out of range for {k} objects"
                    )
        return self


@dataclass
class TaskExample:
    """One task to score: a query, its candidate responses and the image's objects."""

    instance_id: str
    task: str
    query: list
    responses: list
    gold: int
    objects: np.ndarray


def make_task(inst: VcrInstance, kind: str) -> TaskExample:
    """Q2A: bare question vs. answers. QA2R: question + gold answer vs. rationales."""
    if kind == TASK_Q2A:
        return TaskExample(inst.instance_id, kind, list(inst.question),
                           [list(a) for a in inst.answers], inst.gold_answer, inst.objects)
    if kind == TASK_QA2R:
        query = list(inst.question) + list(inst.answers[inst.gold_answer])
        return TaskExample(inst.instance_id, kind, query,
                           [list(r) for r in inst.rationales], inst.gold_rationale,
                           inst.objects)
    raise DataError(f"unknown task kind {kind!r}")


# -- vocabulary ------------------------------------------------------------


class Vocab:
    """Dense token-to-id map; id 0 is padding, id 1 the unknown token."""

    def __init__(self, tokens: Sequence[str]):
        if list(tokens[:2]) != [PAD_TOKEN, UNK_TOKEN]:
            raise DataError("vocab must start with the padding and unknown tokens")
        self._tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise DataError("vocab contains duplicate tokens")

    @classmethod
    def build(cls, instances: Iterable[VcrInstance]) -> "Vocab":
        words = set()
        max_objects = 0
        for inst in instances:
            max_objects = max(max_objects, inst.objects.shape[0])
            for seq in [inst.question, *inst.answers, *inst.rationales]:
                for tok in seq:
                    words.add(tok.text.lower())
        tags = [f"[{i}]" for i in range(max_objects)]
        words -= set(tags)
        return cls([PAD_TOKEN, UNK_TOKEN] + tags + sorted(words))

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def token_id(self, text: str) -> int:
        return self._ids.get(text.lower(), self.unk_id)

    def encode(self, tokens: Sequence[TaggedToken]) -> list:
        # token_id inlined: this runs once per token of every forward
        ids, unk = self._ids, self.unk_id
        return [ids.get(tok.text.lower(), unk) for tok in tokens]

    def tokens(self) -> list:
        return list(self._tokens)

    def to_json(self) -> str:
        return json.dumps({"tokens": self._tokens}, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "Vocab":
        try:
            mapping = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise DataError(f"vocab is not valid JSON: {exc}") from exc
        tokens = mapping.get("tokens") if isinstance(mapping, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError('vocab must be a JSON object whose "tokens" is a list of strings')
        return cls(tokens)


# -- annotation files ------------------------------------------------------


def _seq_to_dict(seq: Sequence[TaggedToken]) -> dict:
    return {"tokens": [t.text for t in seq], "tags": [t.tag for t in seq]}


def _json_int(value, what: str) -> int:
    # bool is an int subclass and 1.0 == 1, but neither is an index in the file
    if type(value) is not int:
        raise DataError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_strings(value, what: str) -> list:
    # a JSON string is iterable too, and would load as one-character tokens
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{what} must be a JSON list of strings, got {json.dumps(value)}")
    return value


def _seq_from_dict(d: dict) -> list:
    tokens, tags = _json_strings(d["tokens"], "tokens"), d["tags"]
    if not isinstance(tags, list):
        raise DataError(f"tags must be a JSON list, got {json.dumps(tags)}")
    if len(tokens) != len(tags):
        raise DataError("token and tag arrays differ in length")
    return [TaggedToken(text, None if tag is None else _json_int(tag, "tag"))
            for text, tag in zip(tokens, tags)]


def serialize_instance(inst: VcrInstance) -> str:
    record = {
        "instance_id": inst.instance_id,
        "object_labels": list(inst.object_labels),
        "question": _seq_to_dict(inst.question),
        "answers": [_seq_to_dict(a) for a in inst.answers],
        "rationales": [_seq_to_dict(r) for r in inst.rationales],
        "gold_answer": inst.gold_answer,
        "gold_rationale": inst.gold_rationale,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def save_annotations(path, instances: Sequence[VcrInstance]) -> None:
    text = "".join(serialize_instance(inst) + "\n" for inst in instances)
    write_atomic(path, text.encode("utf-8"))


def save_features(path, instances: Sequence[VcrInstance]) -> None:
    write_checkpoint(
        path, {f"objects/{inst.instance_id}": inst.objects for inst in instances}
    )


def load_instances(annotation_path, feature_path) -> list:
    features = read_checkpoint(feature_path)
    instances = []
    first_line = {}  # instance_id -> the line that introduced it
    with open(annotation_path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as err:
                raise DataError(f"{annotation_path} line {lineno}: not UTF-8 text: {err}") from err
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"{annotation_path}: malformed JSON on line {lineno}: {err}")
            try:
                instance_id = record["instance_id"]
                # an integer 5 would find the features of "5" and pass as another id
                if not isinstance(instance_id, str):
                    raise DataError(
                        f"instance_id must be a JSON string, got {json.dumps(instance_id)}")
                key = f"objects/{instance_id}"
                if key not in features:
                    raise DataError(f"{instance_id}: no feature entry in {feature_path}")
                if instance_id in first_line:
                    raise DataError(f"duplicate instance_id {instance_id!r}, "
                                    f"first on line {first_line[instance_id]}")
                inst = VcrInstance(
                    instance_id=instance_id,
                    objects=features[key],
                    object_labels=_json_strings(record["object_labels"], "object_labels"),
                    question=_seq_from_dict(record["question"]),
                    answers=[_seq_from_dict(a) for a in record["answers"]],
                    rationales=[_seq_from_dict(r) for r in record["rationales"]],
                    gold_answer=_json_int(record["gold_answer"], "gold_answer"),
                    gold_rationale=_json_int(record["gold_rationale"], "gold_rationale"),
                ).validate()
            except KeyError as err:
                raise DataError(f"{annotation_path} line {lineno}: missing field {err}")
            except (ValueError, TypeError) as err:
                raise DataError(f"{annotation_path} line {lineno}: {err}") from err
            instances.append(inst)
            first_line[instance_id] = lineno
    return instances


# -- predictions and metrics -----------------------------------------------


@dataclass
class PredictionRecord:
    instance_id: str
    task: str
    logits: list
    pred: int
    gold: int

    @property
    def correct(self) -> bool:
        return self.pred == self.gold

    def to_json_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "task": self.task,
            "logits": [float(v) for v in self.logits],
            "pred": int(self.pred),
            "gold": int(self.gold),
        }


def accuracy(records: Sequence[PredictionRecord]) -> float:
    if not records:
        raise DataError("accuracy over an empty prediction set")
    return sum(r.correct for r in records) / len(records)


def q2ar_metric(q2a: Sequence[PredictionRecord], qa2r: Sequence[PredictionRecord]) -> float:
    """Fraction of instances whose answer AND rationale are both right."""
    by_id = {r.instance_id: r for r in q2a}
    if len(by_id) != len(q2a):
        raise DataError("duplicate instance ids in predictions")
    if set(by_id) != {r.instance_id for r in qa2r}:
        raise DataError("prediction sets cover different instances")
    if not q2a:
        raise DataError("empty prediction sets")
    hits = sum(1 for r in qa2r if r.correct and by_id[r.instance_id].correct)
    return hits / len(qa2r)


def metrics_report(q2a: Sequence[PredictionRecord], qa2r: Sequence[PredictionRecord]) -> dict:
    return {
        "q2a": accuracy(q2a),
        "qa2r": accuracy(qa2r),
        "q2ar": q2ar_metric(q2a, qa2r),
        "n": len(q2a),
    }


# -- synthetic instances ---------------------------------------------------

_QUESTION_WORDS = (
    "what", "is", "going", "on", "here", "who", "stands", "out", "in",
    "this", "scene", "why", "does", "it", "look", "that", "way",
)
_ANSWER_WORDS = ("it", "is", "clearly", "probably", "see", "watch", "there")
_RATIONALE_WORDS = ("because", "since", "notice", "shows", "acts", "near")
_OBJECT_NAMES = ("person", "dog", "car", "chair", "book", "cup", "table", "hat")

SIGNATURE_DIM = 0
SIGNATURE_FOCUS = 3.0
SIGNATURE_OTHER = -3.0


def _words(rng: np.random.Generator, bank, count: int) -> list:
    return [TaggedToken(bank[i]) for i in rng.integers(0, len(bank), size=count)]


def _candidates(rng: np.random.Generator, bank, k: int, focus: int) -> tuple:
    """4 candidate sequences, each tagging a distinct object; gold tags the focus."""
    others = [j for j in range(k) if j != focus]
    rng.shuffle(others)
    gold_slot = int(rng.integers(4))
    tagged = others[:3]
    tagged.insert(gold_slot, focus)
    seqs = []
    for obj in tagged:
        fillers = _words(rng, bank, int(rng.integers(1, 3)))
        tag_tok = TaggedToken(f"[{obj}]", obj)
        if rng.random() < 0.3:
            seqs.append([tag_tok] + fillers)
        else:
            seqs.append(fillers + [tag_tok])
    return seqs, gold_slot


def synth_generate(
    seed: int,
    n: int,
    k_objects: int = 4,
    d_o: int = 8,
) -> list:
    """Deterministic instances whose gold choice is decidable from the inputs.

    One object per instance carries a planted signature in feature dim 0
    (+3 focus, -3 everyone else); the gold answer and gold rationale are the
    candidates whose tag points at that object. The question never mentions
    it, so a correct model has to route object features to tag positions.
    """
    if n < 1:
        raise ValueError(f"need at least one instance, got n={n}")
    if k_objects < 4:
        raise ValueError(f"need at least 4 objects for distinct candidates, got {k_objects}")
    instances = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        focus = int(rng.integers(k_objects))
        objects = rng.standard_normal((k_objects, d_o)) * 0.5
        objects[:, SIGNATURE_DIM] = SIGNATURE_OTHER
        objects[focus, SIGNATURE_DIM] = SIGNATURE_FOCUS
        labels = [_OBJECT_NAMES[j] for j in rng.integers(0, len(_OBJECT_NAMES), size=k_objects)]
        question = _words(rng, _QUESTION_WORDS, int(rng.integers(3, 7)))
        answers, gold_answer = _candidates(rng, _ANSWER_WORDS, k_objects, focus)
        rationales, gold_rationale = _candidates(rng, _RATIONALE_WORDS, k_objects, focus)
        inst = VcrInstance(
            instance_id=f"synth-{seed}-{i:05d}",
            objects=objects,
            object_labels=labels,
            question=question,
            answers=answers,
            rationales=rationales,
            gold_answer=gold_answer,
            gold_rationale=gold_rationale,
        )
        instances.append(inst.validate())
    return instances
