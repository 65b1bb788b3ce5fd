"""Long planted-rule instances for the eval-long workload.

The rule is the one `vcrnet.data.synth_generate` plants: one focus object
carries +3 in feature dim 0, every other object -3, and the gold answer and
gold rationale are the candidates whose tag points at the focus. Only the
lengths differ: 16 objects, 24-40-token questions and 4-24-token candidates
whose lengths differ inside one instance, so the grounding BiLSTM and the
padding of candidates to one width carry more of the cost than on the
default corpus. The generator lives here so the package's own generator and
the data its tests pin stay byte-identical.
"""

from __future__ import annotations

import numpy as np

from vcrnet.data import TaggedToken, VcrInstance

K_OBJECTS = 16
D_OBJECT = 8
QUESTION_LEN = (24, 40)
CANDIDATE_LEN = (4, 24)
SIGNATURE_FOCUS = 3.0
SIGNATURE_OTHER = -3.0

_QUESTION_WORDS = (
    "what", "is", "going", "on", "here", "who", "stands", "out", "in",
    "this", "scene", "why", "does", "it", "look", "that", "way",
)
_ANSWER_WORDS = ("it", "is", "clearly", "probably", "see", "watch", "there")
_RATIONALE_WORDS = ("because", "since", "notice", "shows", "acts", "near")
_OBJECT_NAMES = ("person", "dog", "car", "chair", "book", "cup", "table", "hat")


def _words(rng: np.random.Generator, bank, count: int) -> list:
    return [TaggedToken(bank[i]) for i in rng.integers(0, len(bank), size=count)]


def _candidates(rng: np.random.Generator, bank, focus: int) -> tuple:
    """Four candidates of distinct lengths, each tagging a distinct object."""
    others = [j for j in range(K_OBJECTS) if j != focus]
    rng.shuffle(others)
    gold_slot = int(rng.integers(4))
    tagged = others[:3]
    tagged.insert(gold_slot, focus)
    lo, hi = CANDIDATE_LEN
    lengths = rng.choice(np.arange(lo, hi + 1), size=4, replace=False)
    seqs = []
    for obj, length in zip(tagged, lengths):
        seq = _words(rng, bank, int(length) - 1)
        seq.insert(int(rng.integers(length)), TaggedToken(f"[{obj}]", obj))
        seqs.append(seq)
    return seqs, gold_slot


def long_instances(seed: int, n: int) -> list:
    """`n` validated instances, fully determined by `seed`."""
    instances = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        focus = int(rng.integers(K_OBJECTS))
        objects = rng.standard_normal((K_OBJECTS, D_OBJECT)) * 0.5
        objects[:, 0] = SIGNATURE_OTHER
        objects[focus, 0] = SIGNATURE_FOCUS
        labels = [_OBJECT_NAMES[j] for j in rng.integers(0, len(_OBJECT_NAMES), size=K_OBJECTS)]
        lo, hi = QUESTION_LEN
        question = _words(rng, _QUESTION_WORDS, int(rng.integers(lo, hi + 1)))
        answers, gold_answer = _candidates(rng, _ANSWER_WORDS, focus)
        rationales, gold_rationale = _candidates(rng, _RATIONALE_WORDS, focus)
        instances.append(VcrInstance(
            instance_id=f"long-{seed}-{i:05d}",
            objects=objects,
            object_labels=labels,
            question=question,
            answers=answers,
            rationales=rationales,
            gold_answer=gold_answer,
            gold_rationale=gold_rationale,
        ).validate())
    return instances
