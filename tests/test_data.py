import json

import numpy as np
import numpy.testing as npt
import pytest

from vcrnet import data as D
from vcrnet.data import (
    DataError,
    PredictionRecord,
    TaggedToken,
    Vocab,
    load_instances,
    make_task,
    q2ar_metric,
    save_annotations,
    save_features,
    serialize_instance,
    synth_generate,
)


def test_synth_same_seed_is_bitwise_identical():
    a = synth_generate(seed=7, n=12)
    b = synth_generate(seed=7, n=12)
    assert [serialize_instance(x) for x in a] == [serialize_instance(y) for y in b]
    for x, y in zip(a, b):
        npt.assert_array_equal(x.objects, y.objects)


def test_synth_different_seeds_differ():
    a = synth_generate(seed=7, n=4)
    b = synth_generate(seed=8, n=4)
    assert [serialize_instance(x) for x in a] != [serialize_instance(y) for y in b]


def test_synth_instances_satisfy_invariants():
    for seed in range(10):
        for inst in synth_generate(seed=seed, n=8):
            inst.validate()
            assert len(inst.answers) == 4 and len(inst.rationales) == 4


def _tagged_object(seq):
    tags = [t.tag for t in seq if t.tag is not None]
    assert len(tags) == 1
    return tags[0]


def test_synth_rule_oracle_is_perfect():
    """Reading the planted feature signature through the tags solves every instance."""
    for inst in synth_generate(seed=123, n=50):
        for seqs, gold in ((inst.answers, inst.gold_answer),
                           (inst.rationales, inst.gold_rationale)):
            scores = [inst.objects[_tagged_object(s), D.SIGNATURE_DIM] for s in seqs]
            assert int(np.argmax(scores)) == gold


def test_synth_candidates_tag_distinct_objects():
    for inst in synth_generate(seed=5, n=20):
        for seqs in (inst.answers, inst.rationales):
            tagged = [_tagged_object(s) for s in seqs]
            assert len(set(tagged)) == 4


def test_synth_question_carries_no_tags():
    for inst in synth_generate(seed=9, n=20):
        assert all(t.tag is None for t in inst.question)


def test_synth_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        synth_generate(seed=0, n=0)
    with pytest.raises(ValueError):
        synth_generate(seed=0, n=4, k_objects=3)


def test_make_task_q2a_uses_bare_question():
    inst = synth_generate(seed=2, n=1)[0]
    ex = make_task(inst, D.TASK_Q2A)
    assert ex.query == inst.question
    assert ex.responses == [list(a) for a in inst.answers]
    assert ex.gold == inst.gold_answer


def test_make_task_qa2r_appends_gold_answer():
    inst = synth_generate(seed=2, n=1)[0]
    ex = make_task(inst, D.TASK_QA2R)
    assert len(ex.query) == len(inst.question) + len(inst.answers[inst.gold_answer])
    assert ex.query[: len(inst.question)] == inst.question
    assert ex.gold == inst.gold_rationale
    with pytest.raises(DataError):
        make_task(inst, "Q2AR")


def test_round_trip_through_files(tmp_path):
    instances = synth_generate(seed=31, n=6)
    ann, feat = tmp_path / "a.jsonl", tmp_path / "f.canckpt"
    save_annotations(ann, instances)
    save_features(feat, instances)
    back = load_instances(ann, feat)
    assert [serialize_instance(x) for x in back] == [serialize_instance(x) for x in instances]
    for x, y in zip(instances, back):
        npt.assert_array_equal(x.objects, y.objects)


def _write_instance_files(tmp_path, mutate=None):
    instances = synth_generate(seed=31, n=2)
    records = [json.loads(serialize_instance(x)) for x in instances]
    if mutate:
        mutate(records)
    ann = tmp_path / "a.jsonl"
    with open(ann, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    feat = tmp_path / "f.canckpt"
    save_features(feat, instances)
    return ann, feat


def test_loader_reports_line_number_for_bad_json(tmp_path):
    ann, feat = _write_instance_files(tmp_path)
    with open(ann, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert "line 3" in str(err.value)


def test_loader_names_a_repeated_instance_id_and_its_first_line(tmp_path):
    ann, feat = _write_instance_files(tmp_path, lambda records: records.append(records[0]))
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert str(err.value) == (f"{ann} line 3: duplicate instance_id 'synth-31-00000', "
                              f"first on line 1")


def test_loader_rejects_a_non_string_instance_id(tmp_path):
    inst = synth_generate(seed=31, n=1)[0]
    inst.instance_id = "5"
    record = json.loads(serialize_instance(inst))
    record["instance_id"] = 5
    ann, feat = tmp_path / "a.jsonl", tmp_path / "f.canckpt"
    ann.write_text(json.dumps(record) + "\n")
    save_features(feat, [inst])
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert str(err.value) == f"{ann} line 1: instance_id must be a JSON string, got 5"


def test_loader_rejects_wrong_answer_count(tmp_path):
    def chop(records):
        records[1]["answers"] = records[1]["answers"][:3]

    ann, feat = _write_instance_files(tmp_path, chop)
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert "4 answers" in str(err.value)


def test_loader_rejects_out_of_range_tag(tmp_path):
    def corrupt(records):
        records[0]["question"]["tokens"].append("[9]")
        records[0]["question"]["tags"].append(9)

    ann, feat = _write_instance_files(tmp_path, corrupt)
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert "synth-31-00000" in str(err.value)


def test_loader_rejects_missing_feature_entry(tmp_path):
    instances = synth_generate(seed=31, n=2)
    ann = tmp_path / "a.jsonl"
    save_annotations(ann, instances)
    feat = tmp_path / "f.canckpt"
    save_features(feat, instances[:1])
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert "synth-31-00001" in str(err.value)


def test_loader_rejects_feature_row_mismatch(tmp_path):
    instances = synth_generate(seed=31, n=1)
    ann = tmp_path / "a.jsonl"
    save_annotations(ann, instances)
    feat = tmp_path / "f.canckpt"
    instances[0].objects = instances[0].objects[:2]
    save_features(feat, instances)
    with pytest.raises(DataError) as err:
        load_instances(ann, feat)
    assert "labels" in str(err.value) or "objects" in str(err.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_validate_rejects_non_finite_features(value):
    inst = synth_generate(seed=31, n=1)[0]
    inst.objects[2, 0] = value
    with pytest.raises(DataError) as err:
        inst.validate()
    assert str(err.value).startswith("synth-31-00000: ")


def test_vocab_layout_and_lookup():
    instances = synth_generate(seed=3, n=10)
    vocab = Vocab.build(instances)
    toks = vocab.tokens()
    assert toks[0] == D.PAD_TOKEN and toks[1] == D.UNK_TOKEN
    assert toks[2:6] == ["[0]", "[1]", "[2]", "[3]"]
    assert vocab.pad_id == 0
    assert vocab.token_id("never-seen-token") == vocab.unk_id
    assert vocab.token_id("WHAT") == vocab.token_id("what") != vocab.unk_id
    assert sorted(toks[6:]) == toks[6:]


def test_vocab_round_trip_and_encode():
    vocab = Vocab.build(synth_generate(seed=3, n=4))
    again = Vocab.from_json(vocab.to_json())
    assert again.tokens() == vocab.tokens()
    ids = vocab.encode([TaggedToken("what"), TaggedToken("[1]", 1), TaggedToken("zzz")])
    assert ids[1] == vocab.token_id("[1]")
    assert ids[2] == vocab.unk_id


def test_vocab_rejects_bad_layout():
    with pytest.raises(DataError):
        Vocab(["a", "b"])
    with pytest.raises(DataError):
        Vocab([D.PAD_TOKEN, D.UNK_TOKEN, "x", "x"])
    with pytest.raises(DataError):
        Vocab([D.PAD_TOKEN])


@pytest.mark.parametrize("blob", ['{"bad": ', "[1]", '{"tokens": 3}', '{"words": []}',
                                  '{"tokens": ["<pad>", "<unk>", 7]}'])
def test_vocab_from_json_rejects_malformed_blobs(blob):
    with pytest.raises(DataError):
        Vocab.from_json(blob)


def _record(iid, task, pred, gold):
    return PredictionRecord(iid, task, [0.0, 0.0, 0.0, 0.0], pred, gold)


def test_q2ar_requires_both_correct():
    q2a = [_record("a", "Q2A", 1, 1), _record("b", "Q2A", 2, 2)]
    qa2r = [_record("a", "QA2R", 3, 3), _record("b", "QA2R", 0, 1)]
    assert q2ar_metric(q2a, qa2r) == 0.5
    perfect = [_record(r.instance_id, "QA2R", r.gold, r.gold) for r in qa2r]
    assert q2ar_metric(q2a, perfect) == 1.0


def test_q2ar_never_exceeds_either_task():
    rng = np.random.default_rng(17)
    for _ in range(50):
        ids = [f"i{j}" for j in range(20)]
        q2a = [_record(i, "Q2A", int(rng.integers(4)), int(rng.integers(4))) for i in ids]
        qa2r = [_record(i, "QA2R", int(rng.integers(4)), int(rng.integers(4))) for i in ids]
        joint = q2ar_metric(q2a, qa2r)
        assert joint <= min(D.accuracy(q2a), D.accuracy(qa2r)) + 1e-12


def test_q2ar_rejects_mismatched_instance_sets():
    q2a = [_record("a", "Q2A", 0, 0)]
    qa2r = [_record("b", "QA2R", 0, 0)]
    with pytest.raises(DataError):
        q2ar_metric(q2a, qa2r)


def test_metrics_report_fields():
    q2a = [_record("a", "Q2A", 0, 0), _record("b", "Q2A", 1, 0)]
    qa2r = [_record("a", "QA2R", 2, 2), _record("b", "QA2R", 3, 3)]
    report = D.metrics_report(q2a, qa2r)
    assert report == {"q2a": 0.5, "qa2r": 1.0, "q2ar": 0.5, "n": 2}
