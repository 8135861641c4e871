"""Consensus accuracy, Wu-Palmer scores, and reports."""

import numpy as np
import numpy.testing as npt
import pytest

from cubevqa import data, metrics
from cubevqa.metrics import (EvalReport, Taxonomy, TaxonomyError, evaluate,
                             normalize_answer, vqa_accuracy, wup_similarity, wups_score)
from cubevqa.model import ModelConfig, VqaModel
from cubevqa.tensor import InvalidArgumentError


# ---------------------------------------------------------------------------
# consensus accuracy


def test_vqa_accuracy_exhaustive_match_counts():
    for matches in range(11):
        answers = ["yes"] * matches + [f"no{i}" for i in range(10 - matches)]
        expected = min(matches / 3.0, 1.0)
        assert vqa_accuracy("yes", answers) == pytest.approx(expected)
    assert vqa_accuracy("yes", ["yes"] * 2 + ["no"] * 8) == pytest.approx(2 / 3)
    assert vqa_accuracy("yes", ["yes"] * 5 + ["no"] * 5) == 1.0


def test_vqa_accuracy_values_are_quantized():
    allowed = {0.0, 1 / 3, 2 / 3, 1.0}
    for matches in range(11):
        answers = ["a"] * matches + [f"b{i}" for i in range(10 - matches)]
        assert any(abs(vqa_accuracy("a", answers) - v) < 1e-12 for v in allowed)


def test_vqa_accuracy_normalizes_strings():
    assert vqa_accuracy("  Red ", ["red"] * 10) == 1.0
    assert vqa_accuracy("fire   truck", ["Fire Truck"] * 10) == 1.0


def test_vqa_accuracy_requires_ten_answers():
    with pytest.raises(InvalidArgumentError):
        vqa_accuracy("yes", ["yes"] * 9)


# ---------------------------------------------------------------------------
# taxonomy and Wu-Palmer


def toy_taxonomy(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text(
        "entity\tcolor\n"
        "entity\tshape\n"
        "color\tred\n"
        "color\tblue\n"
        "shape\tcircle\n"
        "shape\tsquare\n"
        "square\trectangle\n")
    return Taxonomy.load(str(path))


def test_wup_identity_is_one(tmp_path):
    tax = toy_taxonomy(tmp_path)
    assert wup_similarity("red", "red", tax) == 1.0


def test_wup_siblings_under_root():
    # three-node tree: root at depth 1, two leaves at depth 2
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        open(path, "w").write("root\ta\nroot\tb\n")
        tax = Taxonomy.load(path)
        assert wup_similarity("a", "b", tax) == pytest.approx(0.5)


def test_wup_deeper_ancestor_scores_higher(tmp_path):
    tax = toy_taxonomy(tmp_path)
    # red/blue share "color" at depth 2; red/circle only share the root
    assert wup_similarity("red", "blue", tax) > wup_similarity("red", "circle", tax)
    npt.assert_allclose(wup_similarity("red", "blue", tax), 2 * 2 / (3 + 3))
    npt.assert_allclose(wup_similarity("red", "circle", tax), 2 * 1 / (3 + 3))


def test_wup_symmetry(tmp_path):
    tax = toy_taxonomy(tmp_path)
    for a, b in (("red", "circle"), ("rectangle", "blue"), ("shape", "square")):
        assert wup_similarity(a, b, tax) == wup_similarity(b, a, tax)


def test_wup_unknown_term_fallback(tmp_path):
    tax = toy_taxonomy(tmp_path)
    assert wup_similarity("plasma", "plasma", tax) == 1.0
    assert wup_similarity("plasma", "red", tax) == 0.0


def test_taxonomy_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\tb\nc\td\n")  # two roots
    with pytest.raises(TaxonomyError):
        Taxonomy.load(str(path))
    path.write_text("a\tb\nb\ta\n")  # a cycle and nothing else: no root
    with pytest.raises(TaxonomyError):
        Taxonomy.load(str(path))
    path.write_text("root\tx\na\tb\nb\ta\n")  # one root and a detached cycle
    with pytest.raises(TaxonomyError, match="cycle detected"):
        Taxonomy.load(str(path))
    path.write_text("a\tb\nc\tb\n")  # re-parenting
    with pytest.raises(TaxonomyError):
        Taxonomy.load(str(path))
    path.write_text("justoneline\n")
    with pytest.raises(TaxonomyError):
        Taxonomy.load(str(path))


def test_wups_threshold_behaviour(tmp_path):
    tax = toy_taxonomy(tmp_path)
    # identical lists score 1 at any threshold
    preds = ["red", "circle", "rectangle"]
    assert wups_score(preds, preds, tax, 0.0) == 1.0
    assert wups_score(preds, preds, tax, 0.9) == 1.0
    # a 0.5-similarity pair is down-weighted to 0.05 above its threshold
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        open(path, "w").write("root\ta\nroot\tb\n")
        small = Taxonomy.load(path)
        assert wups_score(["a"], ["b"], small, 0.9) == pytest.approx(0.05)
        assert wups_score(["a"], ["b"], small, 0.0) == pytest.approx(0.5)


def test_wups_monotone_in_threshold(tmp_path):
    tax = toy_taxonomy(tmp_path)
    rng = np.random.default_rng(0)
    terms = ["red", "blue", "circle", "square", "rectangle"]
    preds = [terms[i] for i in rng.integers(0, 5, 40)]
    truths = [terms[i] for i in rng.integers(0, 5, 40)]
    scores = [wups_score(preds, truths, tax, t) for t in (0.0, 0.3, 0.6, 0.9, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def test_wups_validates_inputs(tmp_path):
    tax = toy_taxonomy(tmp_path)
    with pytest.raises(InvalidArgumentError):
        wups_score(["red"], ["red", "blue"], tax, 0.5)
    with pytest.raises(InvalidArgumentError):
        wups_score(["red"], ["red"], tax, 1.5)


# ---------------------------------------------------------------------------
# evaluate


def desk_model_and_data(variant="cva", size=120, seed=0):
    bundle = data.generate_toy_dataset("mixed", size, 6, 32, seed=seed)
    prepared = data.prepare_dataset(bundle.container, bundle.examples,
                                    bundle.question_vocab, bundle.answer_vocab)
    config = ModelConfig.from_profile(
        "desk", variant=variant, vocab_size=len(bundle.question_vocab),
        num_answers=len(bundle.answer_vocab), feat_dim=32)
    return VqaModel(config, seed=seed), prepared, bundle


def build_full_taxonomy(bundle, tmp_path):
    lines = []
    for color in data.COLOR_WORDS:
        lines.append(f"color\t{color}")
    for fam, values in data.FAMILIES:
        for value in values:
            lines.append(f"{fam}\t{value}")
    lines.append("entity\tcolor")
    lines.append("entity\tshape")
    lines.append("entity\tsize")
    path = tmp_path / "full_tax.txt"
    path.write_text("\n".join(lines) + "\n")
    return Taxonomy.load(str(path))


def test_evaluate_oracle_labels_score_one(tmp_path):
    # a model that always answers correctly: swap predictions in by scoring
    # through an oracle distribution is equivalent to accuracy==1 on all
    # metrics; emulate with a classifier biased to each true label via a
    # dataset of a single repeated example
    model, prepared, bundle = desk_model_and_data(size=1, seed=1)
    model.store["clf.b_out"].value[prepared.labels[0]] = 50.0
    tax = build_full_taxonomy(bundle, tmp_path)
    report = evaluate(model, prepared, taxonomy=tax)
    assert report.accuracy == 1.0
    assert report.wups_0_0 == 1.0
    assert report.wups_0_9 == 1.0


def test_evaluate_untrained_desk_model_near_chance():
    bundle = data.generate_toy_dataset("spatial", 2000, 6, 32, seed=0)
    test_bundle = data.generate_toy_dataset("spatial", 500, 6, 32, seed=0,
                                            split="test")
    data.assign_labels(test_bundle.examples, bundle.answer_vocab)
    prepared = data.prepare_dataset(test_bundle.container, test_bundle.examples,
                                    bundle.question_vocab, bundle.answer_vocab)
    config = ModelConfig.from_profile(
        "desk", variant="cva", vocab_size=len(bundle.question_vocab),
        num_answers=len(bundle.answer_vocab), feat_dim=32)
    model = VqaModel(config, seed=0)
    report = evaluate(model, prepared)
    assert abs(report.accuracy - 0.2) <= 0.05


def test_evaluate_report_invariants_and_types(tmp_path):
    model, prepared, bundle = desk_model_and_data(size=150, seed=2)
    tax = build_full_taxonomy(bundle, tmp_path)
    report = evaluate(model, prepared, taxonomy=tax)
    assert 0.0 <= report.accuracy <= 1.0
    assert report.wups_0_0 >= report.wups_0_9 >= report.accuracy - 1e-12
    assert report.count == 150
    assert "color" in report.per_type
    assert sum(n for _, n in report.per_type.values()) == 150


def test_evaluate_report_invariant_across_random_models(tmp_path):
    _, prepared, bundle = desk_model_and_data(size=100, seed=3)
    tax = build_full_taxonomy(bundle, tmp_path)
    for seed in range(4):
        config = ModelConfig.from_profile(
            "desk", variant="ra", vocab_size=len(bundle.question_vocab),
            num_answers=len(bundle.answer_vocab), feat_dim=32)
        model = VqaModel(config, seed=seed)
        report = evaluate(model, prepared, taxonomy=tax)
        assert report.wups_0_0 >= report.wups_0_9 >= report.accuracy - 1e-12


def test_evaluate_deterministic():
    model, prepared, _ = desk_model_and_data(size=80, seed=4)
    a = evaluate(model, prepared)
    b = evaluate(model, prepared)
    assert a.accuracy == b.accuracy
    assert a.per_type == b.per_type


def test_evaluate_batches_by_region_count_and_keeps_example_order(monkeypatch):
    # images of 2 to 6 regions, shuffled together; more than one batch
    container, examples = data.FeatureContainer(), []
    for k in range(2, 7):
        bundle = data.generate_toy_dataset("mixed", 30, k, 16, seed=6, split=f"k{k}")
        for image_id, features in bundle.container.records.items():
            container.add(image_id, features)
        examples.extend(bundle.examples)
    examples = [examples[i] for i in np.random.default_rng(7).permutation(len(examples))]
    question_vocab, answer_vocab = data.build_vocab(examples)
    data.assign_labels(examples, answer_vocab)
    prepared = data.prepare_dataset(container, examples, question_vocab, answer_vocab)
    config = ModelConfig.from_profile("desk", variant="cva", num_answers=len(answer_vocab),
                                      vocab_size=len(question_vocab), feat_dim=16)
    model = VqaModel(config, seed=8)
    one_at_a_time = [int(np.argmax(model.predict_batch(prepared.gather([i])[0])))
                     for i in range(prepared.size())]

    counts = []
    predict_batch = model.predict_batch
    monkeypatch.setattr(model, "predict_batch", lambda batch: (
        counts.extend(batch.region_counts), predict_batch(batch))[1])
    assert metrics.predict_answers(model, prepared).tolist() == one_at_a_time
    assert prepared.size() > metrics.EVAL_BATCH and counts == sorted(counts)
    report = evaluate(model, prepared)
    expected = np.mean([metrics.vqa_accuracy(answer_vocab[p], ex.human_answers)
                        for p, ex in zip(one_at_a_time, examples)])
    assert report.accuracy == pytest.approx(expected, abs=1e-12)


def test_evaluate_without_taxonomy_notes_omission():
    model, prepared, _ = desk_model_and_data(size=30, seed=5)
    report = evaluate(model, prepared)
    assert report.wups_0_0 is None
    assert any("taxonomy" in note for note in report.notes)


def test_report_rendering():
    report = EvalReport(accuracy=0.5, per_type={"color": (0.25, 40)},
                        wups_0_9=0.6, wups_0_0=0.9, count=80)
    text = report.to_text()
    csv = report.to_csv()
    assert "accuracy" in text and "0.5000" in text
    assert csv.splitlines()[0] == "metric,name,value"
    assert "accuracy,color,0.250000" in csv
    assert "wups,0.9,0.600000" in csv