"""Feature container format, toy generator, vocabularies, dataset lines."""

import os
import re
import struct
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubevqa.data as D
import cubevqa.training as TR
from cubevqa.data import (FeatureContainer, FormatError, VqaExample, build_vocab,
                          encode_tokens, generate_toy_dataset, load_examples,
                          load_features, load_vocab, most_frequent_answer,
                          plan_layout, prepare_dataset, write_examples,
                          write_features, write_vocab)
from cubevqa.tensor import InvalidArgumentError
from helpers import (decode_channel_from_mean, decode_spatial,
                     decode_spatial_from_mean)


# ---------------------------------------------------------------------------
# feature container


def test_feature_roundtrip_within_f32(tmp_path):
    rng = np.random.default_rng(0)
    container = FeatureContainer()
    container.add("img_a", rng.standard_normal((3, 5)))
    container.add("img_b", rng.standard_normal((6, 5)))
    path = str(tmp_path / "f.cvaf")
    write_features(container, path)
    loaded = load_features(path)
    assert list(loaded.records) == ["img_a", "img_b"]
    for key in container.records:
        npt.assert_array_equal(loaded[key],
                               container[key].astype(np.float32))


def test_empty_container_roundtrip(tmp_path):
    path = str(tmp_path / "e.cvaf")
    write_features(FeatureContainer(), path)
    assert len(load_features(path)) == 0


def test_truncated_container_is_rejected_with_offset(tmp_path):
    container = FeatureContainer()
    container.add("img", np.ones((2, 3)))
    path = str(tmp_path / "t.cvaf")
    write_features(container, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-5])
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert "byte" in str(err.value)


def test_bad_magic_and_trailing_bytes(tmp_path):
    container = FeatureContainer()
    container.add("img", np.ones((2, 3)))
    path = str(tmp_path / "m.cvaf")
    write_features(container, path)
    blob = bytearray(open(path, "rb").read())
    blob[0] = 0
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError):
        load_features(path)
    write_features(container, path)
    open(path, "ab").write(b"xx")
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert "trailing" in str(err.value)


def test_non_utf8_image_id_is_format_error(tmp_path):
    container = FeatureContainer()
    container.add("img", np.ones((2, 3)))
    path = str(tmp_path / "u.cvaf")
    write_features(container, path)
    blob = bytearray(open(path, "rb").read())
    # magic, version and record count take 12 bytes, the id length 2
    assert blob[14:17] == b"img"
    blob[14] = 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert "UTF-8" in str(err.value) and "byte 14" in str(err.value)


def small_container_file(tmp_path):
    container = FeatureContainer()
    container.add("img", np.arange(6.0).reshape(2, 3))
    container.add("second", -np.ones((1, 3)))
    path = str(tmp_path / "s.cvaf")
    write_features(container, path)
    return path, open(path, "rb").read()


def test_container_cut_at_every_offset_names_the_offset(tmp_path):
    path, blob = small_container_file(tmp_path)
    for cut in range(len(blob)):
        open(path, "wb").write(blob[:cut])
        with pytest.raises(FormatError) as err:
            load_features(path)
        offset = re.search(r"at byte (\d+)", str(err.value))
        assert offset and int(offset.group(1)) <= cut, (cut, str(err.value))


# after the magic (bytes 0-3, tested on its own above): version, record
# count and the first id's length (4-13), the id "img" (14-16), its K and D
# (17-24)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flips=st.lists(st.tuples(st.integers(4, 24), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_flipped_header_or_id_bytes_raise_only_documented_errors(tmp_path_factory, flips):
    path, blob = small_container_file(tmp_path_factory.mktemp("flip"))
    blob = bytearray(blob)
    for position, mask in flips:
        blob[position] ^= mask
    open(path, "wb").write(bytes(blob))
    try:
        load_features(path)
    except (FormatError, InvalidArgumentError):
        pass


def owner(array):
    """The array that owns ``array``'s memory, through views and memoryviews."""
    while True:
        base = array.base
        if isinstance(base, memoryview):
            base = base.obj
        if not isinstance(base, np.ndarray):
            return array
        array = base


def test_loaded_records_are_views_of_one_buffer(tmp_path):
    # "img"'s payload takes bytes 25-48, "second"'s header 49-64 and its
    # payload 65-76: the buffer holds the built runs, headers within a run
    # included, and nothing else
    path, _ = small_container_file(tmp_path)
    for image_ids, size in ((None, 52), ({"img", "second"}, 52), ({"img"}, 24),
                            ({"second"}, 12)):
        loaded = load_features(path, image_ids)
        owners = {id(owner(a)): owner(a) for a in loaded.records.values()}
        assert len(owners) == 1, image_ids
        (buffer,) = owners.values()
        assert buffer.nbytes == size and not buffer.flags.writeable
        assert not any(a.flags.writeable for a in loaded.records.values())
        if image_ids != {"second"}:
            npt.assert_array_equal(loaded["img"], np.arange(6.0).reshape(2, 3))
        if image_ids != {"img"}:
            npt.assert_array_equal(loaded["second"], -np.ones((1, 3)))


def cvaf_bytes(records):
    """The bytes of a CVAF file holding ``(id bytes, (K, D) array)`` records,
    written without any of ``FeatureContainer``'s checks."""
    parts = [b"CVAF", struct.pack("<II", 1, len(records))]
    for image_id, features in records:
        parts += [struct.pack("<H", len(image_id)), image_id,
                  struct.pack("<II", *features.shape),
                  np.asarray(features, dtype="<f4").tobytes()]
    return b"".join(parts)


KEPT = (b"kept", np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("records,error,match", [
    ([KEPT, (b"\xffid", np.ones((1, 3)))], FormatError, "byte 52 is not UTF-8"),
    ([KEPT, (b"other", np.ones((1, 3))), (b"other", np.ones((2, 3)))],
     InvalidArgumentError, "duplicate image id 'other'"),
    ([KEPT, (b"other", np.ones((1, 4)))], InvalidArgumentError, "'other' have 4 channels"),
    ([(b"other", np.ones((1, 4))), KEPT], InvalidArgumentError, "'kept' have 3 channels"),
    ([KEPT, (b"other", np.ones((0, 3)))], InvalidArgumentError, r"'other' must be a \(K, D\)"),
], ids=["non-utf8-id", "repeated-id", "other-channel-count", "kept-after-other-count",
        "empty-shape"])
def test_skipped_record_headers_are_still_checked(tmp_path, records, error, match):
    path = tmp_path / "f.cvaf"
    path.write_bytes(cvaf_bytes(records))
    for image_ids in ({"kept"}, None):
        with pytest.raises(error, match=match):
            load_features(str(path), image_ids)


def test_skipped_record_truncation_and_trailing_bytes_are_still_refused(tmp_path):
    path = tmp_path / "f.cvaf"
    blob = cvaf_bytes([KEPT, (b"other", np.ones((2, 3)))])
    path.write_bytes(blob[:-1])
    with pytest.raises(FormatError, match="truncated while reading features of 'other'"):
        load_features(str(path), {"kept"})
    path.write_bytes(blob + b"x")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_features(str(path), {"kept"})


def test_only_built_records_are_scanned_for_non_finite_values(tmp_path):
    path = tmp_path / "f.cvaf"
    path.write_bytes(cvaf_bytes([KEPT, (b"nan", np.full((1, 3), np.nan))]))
    loaded = load_features(str(path), {"kept", "absent"})
    assert list(loaded.records) == ["kept"] and loaded.feat_dim == 3
    for image_ids in ({"kept", "nan"}, None):
        with pytest.raises(InvalidArgumentError, match="'nan' contain non-finite"):
            load_features(str(path), image_ids)


def test_loading_without_ids_builds_every_record(tmp_path):
    path, _ = small_container_file(tmp_path)
    every = load_features(path)
    assert list(every.records) == ["img", "second"] and every.feat_dim == 3
    for image_ids in (None, {"img", "second"}):
        loaded = load_features(path, image_ids)
        assert list(loaded.records) == list(every.records)
        for key, features in every.records.items():
            assert loaded[key].dtype == features.dtype == np.float32
            npt.assert_array_equal(loaded[key], features)


def recorded_reads(monkeypatch):
    """The byte count of every read the reader asks the OS for, in order:
    ``("window", n)`` for a header window, ``("run", n)`` for a payload run."""
    reads = []
    pread, preadv = os.pread, os.preadv

    def recording_pread(fd, count, offset):
        reads.append(("window", count))
        return pread(fd, count, offset)

    def recording_preadv(fd, buffers, offset):
        reads.append(("run", sum(memoryview(b).nbytes for b in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "pread", recording_pread)
    monkeypatch.setattr(os, "preadv", recording_preadv)
    return reads


def wide_container_file(tmp_path):
    """Five records whose payloads are each wider than the header window, so
    every header is read with a window of its own. Returns the path and
    each record's header and payload size in bytes."""
    width = TR._WINDOW // 4 + 1
    records = [(f"r{n}".encode(), np.full((k, width), float(n))) for n, k in
               enumerate((1, 2, 1, 3, 2))]
    path = tmp_path / "wide.cvaf"
    path.write_bytes(cvaf_bytes(records))
    return str(path), {name.decode(): (2 + len(name) + 8, 4 * f.size) for name, f in records}


@pytest.mark.parametrize("image_ids,runs", [
    (None, [["r0", "r1", "r2", "r3", "r4"]]),
    ({"r1", "r2", "r4"}, [["r1", "r2"], ["r4"]]),
    ({"r0", "r3"}, [["r0"], ["r3"]]),
    ({"r2"}, [["r2"]]),
    (set(), []),
])
def test_reader_reads_each_run_of_built_records_once(tmp_path, monkeypatch, image_ids, runs):
    path, sizes = wide_container_file(tmp_path)
    reads = recorded_reads(monkeypatch)
    loaded = load_features(path, image_ids)
    assert list(loaded.records) == [name for run in runs for name in run]
    # a run spans its payloads and the headers between them
    expected = [sum(sum(sizes[name]) for name in run) - sizes[run[0]][0] for run in runs]
    assert [count for kind, count in reads if kind == "run"] == expected
    kinds = [kind for kind, _ in reads]
    assert kinds == sorted(kinds, key=lambda kind: kind == "run")  # headers first
    windows = [count for kind, count in reads if kind == "window"]
    # one window for magic, version and count, and at most one per header
    assert len(windows) <= 1 + len(sizes) and max(windows) <= TR._WINDOW
    assert sum(count for _, count in reads) <= sum(expected) + TR._WINDOW * (1 + len(sizes))


@pytest.mark.parametrize("call", ["pread", "preadv"])
def test_a_short_read_is_a_format_error_naming_the_file(tmp_path, monkeypatch, call):
    # a file that shrinks after it was opened: the read returns a byte less
    path, _ = small_container_file(tmp_path)
    real = getattr(os, call)

    def short(fd, request, offset):
        if call == "pread":
            return real(fd, request, offset)[:-1]
        return real(fd, [memoryview(request[0])[:-1]], offset)

    monkeypatch.setattr(os, call, short)
    with pytest.raises(FormatError, match=f"{re.escape(path)}: short read of"):
        load_features(path)


RECORD_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ids=st.lists(RECORD_IDS, min_size=1, max_size=8, unique=True),
       d=st.integers(1, 4), draw=st.data())
def test_a_subset_loads_as_the_whole_file_restricted_to_it(tmp_path_factory, ids, d, draw):
    rng = np.random.default_rng(len(ids) * 5 + d)
    container = FeatureContainer()
    for image_id in ids:
        container.add(image_id, rng.standard_normal((draw.draw(st.integers(1, 5)), d)))
    subset = draw.draw(st.sets(st.sampled_from(ids + ["absent"])))
    window = draw.draw(st.sampled_from([1, 7, TR._WINDOW]))
    path = str(tmp_path_factory.mktemp("subset") / "f.cvaf")
    write_features(container, path)
    with mock.patch.object(TR, "_WINDOW", window):
        every = load_features(path)
        part = load_features(path, subset)
        assert list(part.records) == [i for i in every.records if i in subset]
        assert part.feat_dim == every.feat_dim == d
        for image_id, features in part.records.items():
            assert features.tobytes() == every[image_id].tobytes()
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:draw.draw(st.integers(0, len(blob) - 1))])
        messages = set()
        for image_ids in (None, subset):
            with pytest.raises(FormatError, match="truncated while reading") as err:
                load_features(path, image_ids)
            messages.add(str(err.value))
        assert len(messages) == 1


def test_container_validation():
    container = FeatureContainer()
    container.add("a", np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        container.add("a", np.ones((2, 3)))  # duplicate id
    with pytest.raises(InvalidArgumentError):
        container.add("b", np.ones((2, 4)))  # inconsistent D
    with pytest.raises(InvalidArgumentError):
        container.add("c", np.array([[np.inf, 0, 0]]))


# ---------------------------------------------------------------------------
# dataset lines


def test_example_lines_roundtrip(tmp_path):
    examples = [VqaExample("img_0", ["what", "color"], ["red"] * 10, 3),
                VqaExample("img_1", ["what", "shape"], ["ring"] * 10, 1)]
    path = str(tmp_path / "ds.txt")
    write_examples(examples, path)
    loaded = load_examples(path)
    assert loaded == examples


def test_example_lines_validation(tmp_path):
    path = str(tmp_path / "bad.txt")
    path_obj = tmp_path / "bad.txt"
    path_obj.write_text("img tok\tred,red\t0\n")
    with pytest.raises(FormatError, match="expected 10 answers"):
        load_examples(path)
    for head in ("img", " "):
        path_obj.write_text(head + "\t" + ",".join(["red"] * 10) + "\t0\n")
        with pytest.raises(FormatError, match="expected image id and question tokens"):
            load_examples(path)
    path_obj.write_text("img tok\t" + ",".join(["red"] * 10) + "\tx\n")
    with pytest.raises(FormatError):
        load_examples(path)
    path_obj.write_text("img tok\t" + ",".join(["red"] * 10) + "\t7\n")
    with pytest.raises(FormatError):
        load_examples(path, num_answers=5)


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_sorted_with_unknown_at_zero():
    examples = [VqaExample("a", ["zed", "alpha"], ["blue"] * 10),
                VqaExample("b", ["mid", "alpha"], ["red"] * 10)]
    qv, av = build_vocab(examples)
    assert qv[0] == "<unk>" and av[0] == "<unk>"
    assert qv[1:] == sorted(qv[1:])
    assert av[1:] == sorted(av[1:])
    qv2, av2 = build_vocab(examples)
    assert qv == qv2 and av == av2


def test_answer_cap_keeps_most_frequent():
    examples = []
    for i in range(30):
        ans = "common" if i < 20 else f"rare{i}"
        examples.append(VqaExample(f"e{i}", ["q"], [ans] * 10))
    _, av = build_vocab(examples, answer_cap=3)
    assert len(av) == 3
    assert "common" in av


def test_unknown_token_maps_to_zero():
    vocab = ["<unk>", "alpha", "beta"]
    index = {tok: i for i, tok in enumerate(vocab)}
    npt.assert_array_equal(encode_tokens(["beta", "gamma", "alpha"], index), [2, 0, 1])


def test_most_frequent_answer_tie_breaks_lexicographically():
    answers = ["b"] * 5 + ["a"] * 5
    assert most_frequent_answer(answers) == "a"
    assert most_frequent_answer(["z"] * 6 + ["a"] * 4) == "z"


# ---------------------------------------------------------------------------
# toy generation


def test_generator_rejects_invalid_sizes():
    with pytest.raises(InvalidArgumentError):
        generate_toy_dataset("spatial", 0, 6, 32, 0)
    with pytest.raises(InvalidArgumentError):
        generate_toy_dataset("spatial", 10, 1, 32, 0)
    with pytest.raises(InvalidArgumentError):
        generate_toy_dataset("spatial", 10, 6, 7, 0)
    with pytest.raises(InvalidArgumentError):
        generate_toy_dataset("orbit", 10, 6, 32, 0)


def test_generator_determinism_bytes(tmp_path):
    paths = []
    for run in range(2):
        bundle = generate_toy_dataset("mixed", 50, 6, 32, seed=7)
        fpath = str(tmp_path / f"f{run}.cvaf")
        epath = str(tmp_path / f"e{run}.txt")
        write_features(bundle.container, fpath)
        write_examples(bundle.examples, epath)
        paths.append((fpath, epath))
    assert open(paths[0][0], "rb").read() == open(paths[1][0], "rb").read()
    assert open(paths[0][1], "rb").read() == open(paths[1][1], "rb").read()


def test_generator_seed_sensitivity():
    a = generate_toy_dataset("spatial", 20, 6, 32, seed=0)
    b = generate_toy_dataset("spatial", 20, 6, 32, seed=1)
    assert any(not np.array_equal(a.container[f"train_{i:06d}"],
                                  b.container[f"train_{i:06d}"]) for i in range(20))


def test_spatial_oracle_decodes_perfectly():
    bundle = generate_toy_dataset("spatial", 300, 6, 32, seed=3)
    layout = bundle.layout
    for ex in bundle.examples:
        region = int(ex.tokens[4])
        feats = bundle.container[ex.image_id].astype(np.float64)
        decoded = D.COLOR_WORDS[decode_spatial(feats, region, layout)]
        assert decoded == ex.human_answers[0]


def test_channel_task_solvable_from_channel_means():
    bundle = generate_toy_dataset("channel", 300, 6, 32, seed=4)
    layout = bundle.layout
    families = {name: i for i, (name, _) in enumerate(D.FAMILIES[:layout.num_families])}
    for ex in bundle.examples:
        fam = families[ex.tokens[1]]
        feats = bundle.container[ex.image_id].astype(np.float64)
        decoded = D.FAMILIES[fam][1][decode_channel_from_mean(feats, fam, layout)]
        assert decoded == ex.human_answers[0]


def test_spatial_task_unsolvable_from_channel_means():
    # the color block's per-channel mean is exactly zero by construction, so
    # a mean-restricted reader scores at chance
    bundle = generate_toy_dataset("spatial", 2000, 6, 32, seed=5)
    layout = bundle.layout
    hits = 0
    for ex in bundle.examples:
        feats = bundle.container[ex.image_id].astype(np.float64)
        color_mean = feats[:, layout.color_slice].mean(axis=0)
        npt.assert_allclose(color_mean, 0.0, atol=1e-7)
        guess = D.COLOR_WORDS[decode_spatial_from_mean(feats, layout)]
        hits += int(guess == ex.human_answers[0])
    chance = 1.0 / layout.num_colors
    assert abs(hits / len(bundle.examples) - chance) <= 0.05


def test_channel_answers_region_shuffle_invariant():
    bundle = generate_toy_dataset("channel", 50, 6, 32, seed=6)
    layout = bundle.layout
    rng = np.random.default_rng(8)
    families = {name: i for i, (name, _) in enumerate(D.FAMILIES[:layout.num_families])}
    for ex in bundle.examples:
        feats = bundle.container[ex.image_id].astype(np.float64)
        shuffled = feats[rng.permutation(feats.shape[0])]
        fam = families[ex.tokens[1]]
        decoded = D.FAMILIES[fam][1][decode_channel_from_mean(shuffled, fam, layout)]
        assert decoded == ex.human_answers[0]


def test_mixed_task_contains_both_kinds():
    bundle = generate_toy_dataset("mixed", 200, 6, 32, seed=9)
    kinds = {ex.tokens[1] for ex in bundle.examples}
    assert "color" in kinds
    assert kinds - {"color"}


def test_layout_planner_adapts_and_validates():
    layout = plan_layout(6, 32)
    assert (layout.num_colors, layout.num_families) == (5, 2)
    small = plan_layout(2, 8)
    assert small.num_colors >= 2
    assert small.filler_start <= 8
    with pytest.raises(InvalidArgumentError):
        plan_layout(20, 8)


def test_all_ten_answers_equal_truth():
    bundle = generate_toy_dataset("mixed", 40, 6, 32, seed=10)
    for ex in bundle.examples:
        assert len(set(ex.human_answers)) == 1
        assert ex.train_label == bundle.answer_vocab.index(ex.human_answers[0])


# ---------------------------------------------------------------------------
# prepared datasets


def test_prepare_dataset_and_gather_groups():
    bundle = generate_toy_dataset("spatial", 12, 6, 32, seed=11)
    prepared = prepare_dataset(bundle.container, bundle.examples,
                               bundle.question_vocab, bundle.answer_vocab)
    assert prepared.size() == 12
    batches = prepared.gather(np.arange(5))
    assert len(batches) == 1
    assert batches[0].features.shape == (5, 6, 32)
    assert batches[0].token_ids.shape[0] == 5
    npt.assert_array_equal(batches[0].labels, prepared.labels[:5])


def test_gather_pads_mixed_region_counts():
    container = FeatureContainer()
    container.add("a", np.ones((3, 8)))
    container.add("b", np.ones((5, 8)))
    examples = [VqaExample("a", ["what", "color"], ["red"] * 10, 1),
                VqaExample("b", ["what", "color"], ["red"] * 10, 1)]
    prepared = prepare_dataset(container, examples, ["<unk>", "color", "what"],
                               ["<unk>", "red"])
    (batch,) = prepared.gather([1, 0])
    assert sorted(batch.region_counts) == [3, 5]
    npt.assert_array_equal(batch.region_counts, [5, 3])
    assert batch.features.shape == (2, 5, 8)
    npt.assert_array_equal(batch.features[0], np.ones((5, 8)))
    npt.assert_array_equal(batch.features[1, :3], np.ones((3, 8)))
    npt.assert_array_equal(batch.features[1, 3:], np.zeros((2, 8)))


def test_prepare_dataset_missing_features():
    examples = [VqaExample("ghost", ["what"], ["red"] * 10, 1)]
    with pytest.raises(InvalidArgumentError):
        prepare_dataset(FeatureContainer(), examples, ["<unk>", "what"],
                        ["<unk>", "red"])


def test_prepare_dataset_refuses_a_question_over_the_maximum():
    container = FeatureContainer()
    container.add("a", np.ones((2, 4)))
    examples = [VqaExample("a", ["what"] * 27, ["red"] * 10, 1)]
    with pytest.raises(InvalidArgumentError, match="27 tokens, maximum is 26"):
        prepare_dataset(container, examples, ["<unk>", "what"], ["<unk>", "red"])


def test_vocab_file_roundtrip(tmp_path):
    path = str(tmp_path / "v.txt")
    write_vocab(["<unk>", "alpha", "beta"], path)
    assert load_vocab(path) == ["<unk>", "alpha", "beta"]
    write_vocab(["alpha"], path)
    with pytest.raises(FormatError):
        load_vocab(path)


def test_pretrained_embedding_loader(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("alpha 1.0 2.0\nmissing 0.5 0.5\nbeta -1.0 0.25\n")
    rows = D.load_pretrained_embeddings(str(path), ["<unk>", "alpha", "beta"], 2)
    assert set(rows) == {1, 2}
    npt.assert_array_equal(rows[1], [1.0, 2.0])
    path.write_text("alpha 1.0\n")
    with pytest.raises(FormatError):
        D.load_pretrained_embeddings(str(path), ["<unk>", "alpha"], 2)
    path.write_text("alpha 1.0 2.0\nbeta nan 0.5\n")
    with pytest.raises(FormatError) as err:
        D.load_pretrained_embeddings(str(path), ["<unk>", "alpha", "beta"], 2)
    assert f"{path}:2" in str(err.value)