import csv
import errno
import hashlib
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erset import similarity
from erset.model import Attribute, EmptyRecord, Record
from erset.synth import generate_dataset, planted_embeddings
from erset.similarity import (
    DimMismatch,
    EmbeddingParseError,
    MissingRecord,
    SimilarityConfig,
    SimilarityIndex,
    ZeroVector,
    cosine,
    cosine_blocks,
    hashed_tfidf,
    jaccard,
    load_embeddings,
    row_norms,
    save_embeddings,
    serialize,
    tokenize,
)


def _record(rid="r1", **values):
    return Record(rid, tuple(Attribute(k, v) for k, v in values.items()))


def test_serialize_skips_empty_values():
    r = _record(name="ada lovelace", city="", phone="555")
    assert serialize(r) == "name: ada lovelace phone: 555"


def test_serialize_empty_record_raises():
    with pytest.raises(EmptyRecord):
        serialize(Record("r1", ()))


def test_tokenize_word_and_ngram():
    # one scheme, words: there is no n-gram option
    r = _record(name="Ada Lovelace")
    assert tokenize(r) == ["name", "ada", "lovelace"]
    with pytest.raises(TypeError):
        tokenize(r, scheme="char_ngram")


def test_jaccard():
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, set()) == 0.0
    assert jaccard(["a", "a", "b"], ["a", "b"]) == 1.0  # duplicates ignored


def test_cosine_errors():
    with pytest.raises(DimMismatch):
        cosine(np.ones(3), np.ones(4))
    with pytest.raises(ZeroVector):
        cosine(np.zeros(3), np.ones(3))
    assert cosine(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(1.0)


def test_similarity_config_validation():
    with pytest.raises(ValueError):
        SimilarityConfig(measure="euclid")
    with pytest.raises(ValueError):
        SimilarityConfig(embedder="word2vec")


class TestHashedTfidf:
    def _corpus(self):
        return {
            "r1": _record("r1", name="ada lovelace", city="london"),
            "r2": _record("r2", name="ada lovelace", city="london"),
            "r3": _record("r3", name="grace hopper", city="arlington"),
        }

    def _embeddings(self, dim, seed):
        config = SimilarityConfig(dim=dim, seed=seed)
        return SimilarityIndex(self._corpus(), config).embeddings

    def test_deterministic_and_normalized(self):
        v1 = self._embeddings(dim=64, seed=7)["r1"]
        v2 = self._embeddings(dim=64, seed=7)["r1"]
        assert np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0)

    def test_seed_changes_hashing(self):
        a = self._embeddings(dim=64, seed=0)["r1"]
        b = self._embeddings(dim=64, seed=1)["r1"]
        assert not np.allclose(a, b)

    def test_duplicates_embed_closer_than_strangers(self):
        vecs = self._embeddings(dim=256, seed=0)
        assert cosine(vecs["r1"], vecs["r2"]) > cosine(vecs["r1"], vecs["r3"])


def test_embedding_roundtrip(tmp_path):
    path = tmp_path / "emb.csv"
    emb = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    save_embeddings(path, emb)
    loaded = load_embeddings(path, ["a", "b"])
    assert np.allclose(loaded["a"], emb["a"]) and np.allclose(loaded["b"], emb["b"])


def test_load_embeddings_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_bytes(b"\xef\xbb\xbfid,d0,d1\na,1.0,2.0\nb,3.0,4.0\n")
    loaded = load_embeddings(path, ["a", "b"])
    assert loaded["a"].tolist() == [1.0, 2.0] and loaded["b"].tolist() == [3.0, 4.0]


def test_load_embeddings_rejects_a_repeated_id_by_file_line(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id,d0,d1\na,1.0,2.0\n\nb,3.0,4.0\na,5.0,6.0\n")
    with pytest.raises(EmbeddingParseError, match=r"line 5: duplicate id 'a'$"):
        load_embeddings(path, ["a", "b"])


def test_index_keeps_one_embedding_per_record():
    """An embedding whose id names no record is dropped; a record without
    an embedding is an error."""
    records = {rid: _record(rid, name=rid) for rid in ("a", "b")}
    emb = {"zz": np.ones(2), "b": np.array([1.0, 2.0]), "a": np.array([3.0, 1.0])}
    idx = SimilarityIndex(records, embeddings=emb)
    assert list(idx.embeddings) == ["a", "b"]
    assert np.array_equal(idx.rows(["a", "b"]), [emb["a"], emb["b"]])
    del emb["a"]
    with pytest.raises(MissingRecord, match="'a'"):
        SimilarityIndex(records, embeddings=emb)


def test_load_embeddings_errors(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id,d0,d1\na,1.0,2.0\n")
    with pytest.raises(MissingRecord, match="'b'"):
        load_embeddings(path, ["a", "b"])
    path.write_text("id,d0,d1\na,1.0,2.0\nb,1.0\n")
    with pytest.raises(DimMismatch):
        load_embeddings(path, ["a", "b"])


def test_load_embeddings_rows_match_the_header_width(tmp_path):
    """A row wider than its header is not a wider embedding, even when every
    row is as wide."""
    path = tmp_path / "emb.csv"
    path.write_text("id,d0,d1\na,1.0,2.0,3.0\nb,1.0,2.0,3.0\n")
    with pytest.raises(DimMismatch, match="line 2: id 'a' has dim 3, header has 2"):
        load_embeddings(path, ["a", "b"])
    path.write_text("id,d0,d1\na,1.0,2.0\nb,1.0,2.0,3.0\n")
    with pytest.raises(DimMismatch, match="line 3: id 'b' has dim 3, header has 2"):
        load_embeddings(path, ["a", "b"])


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("b,1.0,x", EmbeddingParseError, "line 4: bad row for id 'b'"),
        ("b,nan,1", EmbeddingParseError, "line 4: non-finite value for id 'b'"),
        ("b,1.0", DimMismatch, "line 4: id 'b' has dim 1"),
    ],
    ids=["bad-value", "non-finite", "narrow"],
)
def test_load_embeddings_row_errors_name_the_file_line(tmp_path, row, error, message):
    """The blank third line is skipped but counted."""
    path = tmp_path / "emb.csv"
    path.write_text(f"id,d0,d1\na,1.0,2.0\n\n{row}\n")
    with pytest.raises(error, match=message):
        load_embeddings(path, ["a", "b"])


def test_load_embeddings_rejects_a_header_without_dimensions(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("id\na\nb\n")
    with pytest.raises(
        EmbeddingParseError, match="line 1: header has no dimension columns"
    ):
        load_embeddings(path, ["a", "b"])


def test_load_embeddings_rejects_a_zero_row_by_file_line(tmp_path):
    """A zero vector has no direction, so no cosine: -0.0 counts as zero."""
    path = tmp_path / "emb.csv"
    path.write_text("id,d0,d1\na,1.0,2.0\n\nb,0.0,-0.0\n")
    with pytest.raises(EmbeddingParseError, match="line 4: zero vector for id 'b'$"):
        load_embeddings(path, ["a", "b"])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_embeddings_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "emb.csv"
    path.write_text(f"id,d0,d1\na,1.0,2.0\nr1,{bad},1\n")
    with pytest.raises(EmbeddingParseError, match="non-finite value for id 'r1'"):
        load_embeddings(path, ["a", "r1"])


def _reference_load_embeddings(path, record_ids):
    """load_embeddings as it was before its bulk parse: csv rows, float() per
    value. Kept frozen, as the reference that load_embeddings must equal."""
    out = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0] != "id":
            raise EmbeddingParseError(f"{path}: missing 'id,d0,...' header row")
        if len(header) < 2:
            raise EmbeddingParseError(
                f"{path} line {reader.line_num}: header has no dimension columns"
            )
        for row in reader:
            if not row:
                continue
            rid, where = row[0], f"{path} line {reader.line_num}"
            if rid in out:
                raise EmbeddingParseError(f"{where}: duplicate id {rid!r}")
            if len(row) != len(header):
                raise DimMismatch(
                    f"{where}: id {rid!r} has dim {len(row) - 1}, "
                    f"header has {len(header) - 1}"
                )
            try:
                values = np.array([float(x) for x in row[1:]])
            except ValueError as exc:
                raise EmbeddingParseError(f"{where}: bad row for id {rid!r}") from exc
            if not np.isfinite(values).all():
                raise EmbeddingParseError(f"{where}: non-finite value for id {rid!r}")
            if not values.any():
                raise EmbeddingParseError(f"{where}: zero vector for id {rid!r}")
            out[rid] = values
    missing = [rid for rid in record_ids if rid not in out]
    if missing:
        raise MissingRecord(f"{path}: no embedding for record id {missing[0]!r}")
    return out


def _load_outcome(load, path, record_ids):
    """What load returns, as (id, dtype, shape, bytes) in order, or the type
    and message of what it raises; a warning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = load(path, record_ids)
        except Exception as exc:
            return type(exc), str(exc)
    return [(rid, v.dtype, v.shape, v.tobytes()) for rid, v in got.items()]


# Values both parsers read alike: signs and bare points, signed zero,
# subnormals, the largest finite float, padding both strip, long digit runs.
_VALUES = st.sampled_from([
    "1.0", "+1.", ".5", "-0.0", "5e-324", "2.2250738585072014e-308",
    "1.7976931348623157e308", " 2.5 ", "1\u2003", "0.30000000000000004",
    "1.00000000000000011102230246251565404236316680908203125000000000000001",
]) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
# Values where they part or which fail a check: overflow, nan, digit-group
# underscores, a non-ASCII digit, a comment mark, separators only np.loadtxt
# strips as whitespace, and text neither reads.
_ODD_VALUES = st.sampled_from([
    "1e400", "-1e400", "nan", "inf", "1_0", "\u0661", "0.2#junk", "\x1c1",
    "1\x1f", "", "x", "0x10",
])
_IDS = st.sampled_from(["r1", "r2", "r3", "r4", "r5", " r1", "r\u00e9", ""])
_QUOTED_IDS = st.sampled_from(["a,b", 'say "hi"', "two\nlines"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# Line breaks of str.splitlines at which csv ends no row.
_NON_CSV_BREAKS = st.sampled_from(list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))


def _csv_field(value: str) -> str:
    """value as one csv field: quoted, quotes doubled, if it needs it."""
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def _embedding_files(draw):
    """An embedding file's text and the record ids to load from it. An id
    may need quotes, and one row may have a flaw: a repeated id, zeros, an
    odd value, or one value too few or too many. Blank and whitespace-only
    lines, mixed line ends, a line break at which csv ends no row and a
    byte-order mark come in; some files have a header and no rows, and some
    miss a record id."""
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(_IDS, unique=True, max_size=5))
    rows = [[rid] + draw(st.lists(_VALUES, min_size=dim, max_size=dim)) for rid in ids]
    if rows and draw(st.integers(0, 5)) == 0:
        draw(st.sampled_from(rows))[0] = draw(_QUOTED_IDS)
    flaws = [None] * 4 + ["repeat", "zero", "odd", "narrow", "wide"]
    flaw = draw(st.sampled_from(flaws))
    if rows and flaw:
        row = draw(st.sampled_from(rows))
        if flaw == "repeat":
            rows.append([draw(st.sampled_from(ids))] + row[1:])
        elif flaw == "zero":
            zero = st.sampled_from(["0", "-0.0", "0.0"])
            row[1:] = draw(st.lists(zero, min_size=dim, max_size=dim))
        elif flaw == "odd":
            row[draw(st.integers(1, dim))] = draw(_ODD_VALUES)
        else:
            row[1:] = row[1:-1] if flaw == "narrow" else row[1:] + ["1.0"]
    lines = ["id," + ",".join(f"d{i}" for i in range(dim))]
    for row in rows:
        lines.append(",".join(map(_csv_field, row)))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "", "", " ", "\t"])))
    ends = [draw(_LINE_ENDS) for _ in lines]
    if len(ends) > 1 and draw(st.integers(0, 7)) == 0:
        ends[draw(st.integers(1, len(ends) - 1))] = draw(_NON_CSV_BREAKS)
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = "\ufeff" + text
    record_ids = [row[0] for row in rows if draw(st.booleans())]
    if draw(st.integers(0, 5)) == 0:
        record_ids.append("zz")
    return text, record_ids


@settings(max_examples=400, deadline=None)
@given(_embedding_files())
def test_load_embeddings_equals_the_per_row_reference(case):
    """Bitwise the same vectors, in the same order, or the same error type
    and message, with no warning, on files the bulk parse reads and files it
    leaves to the per-row reader."""
    text, record_ids = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "emb.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want = _load_outcome(_reference_load_embeddings, path, record_ids)
        assert _load_outcome(load_embeddings, path, record_ids) == want


@pytest.mark.parametrize(
    "text",
    ['id,d0\n"say ""hi""",1.0\n', "id,d0\nr\x001,1.0\n"]
    + [f"id,d0\nr1,1.0{c}r2,2.0\n" for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
    + [f"id,d0\nr1,{c}1.0{c}\n" for c in "\x1c\x1d\x1e\x1f"],
)
def test_load_embeddings_equals_the_reference_where_parsers_part(tmp_path, text):
    """A quoted id, NUL, a line break where csv ends no row, and separators
    that np.loadtxt strips but float() rejects: each loads or fails as the
    per-row reference does."""
    path = tmp_path / "emb.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _load_outcome(_reference_load_embeddings, path, [])
    assert _load_outcome(load_embeddings, path, []) == want


def test_a_plain_file_is_read_in_one_bulk_parse(tmp_path, monkeypatch):
    """A file as csv.writer writes it (CRLF line ends, repr values) never
    reaches the per-row reader, and each id maps to a row of one matrix."""
    path = tmp_path / "emb.csv"
    emb = {"a": np.array([1.0, -0.0, 5e-324]), "b": np.array([0.1, 2.0, -3.5])}
    save_embeddings(path, emb)
    monkeypatch.setattr(similarity, "_load_rows", None)
    loaded = load_embeddings(path, ["b"])
    assert list(loaded) == ["a", "b"]
    assert loaded["a"].base is loaded["b"].base is not None
    assert all(loaded[k].tobytes() == emb[k].tobytes() for k in emb)


def test_load_embeddings_keeps_a_comment_mark_a_bad_value(tmp_path):
    """np.loadtxt's default comments="#" would load 0.2#junk as 0.2."""
    path = tmp_path / "emb.csv"
    path.write_text("id,d0,d1\na,1.0,2.0\nr1,0.5,0.2#junk\n")
    with pytest.raises(EmbeddingParseError, match="line 3: bad row for id 'r1'$"):
        load_embeddings(path, ["a", "r1"])


@pytest.mark.parametrize(
    "value, expected",
    [("1_0", 10.0), ("\u0661", 1.0)],
    ids=["underscore", "arabic-indic"],
)
def test_load_embeddings_reads_values_only_float_accepts(tmp_path, value, expected):
    """float() reads digit-group underscores and non-ASCII digits, which
    np.loadtxt rejects: such a file loads as float() reads it."""
    path = tmp_path / "emb.csv"
    path.write_text(f"id,d0,d1\na,{value},2.0\n", encoding="utf-8")
    assert load_embeddings(path, ["a"])["a"].tolist() == [expected, 2.0]


def test_load_embeddings_keeps_the_csv_field_size_limit(tmp_path):
    """A value longer than csv's field limit is csv's error, though float()
    reads it."""
    path = tmp_path / "emb.csv"
    value = "1." + "0" * csv.field_size_limit()
    path.write_text(f"id,d0\na,{value}\n")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_embeddings(path, ["a"])


def test_save_embeddings_rejects_an_empty_mapping(tmp_path):
    path = tmp_path / "emb.csv"
    with pytest.raises(ValueError, match="no embeddings to save"):
        save_embeddings(path, {})
    assert not path.exists()


def test_save_embeddings_rejects_mixed_dimensions(tmp_path):
    path = tmp_path / "emb.csv"
    with pytest.raises(ValueError, match="embeddings differ in dimension"):
        save_embeddings(path, {"a": np.ones(2), "b": np.ones(3)})
    assert not path.exists()


@pytest.mark.parametrize(
    "emb, match",
    [
        ({"a": np.zeros(2), "b": np.ones(2)}, "zero vector for id 'a'"),
        ({"a": np.zeros(0)}, "zero vector for id 'a'"),
        ({"a": np.ones(2), "b": np.array([1.0, np.nan])}, "non-finite value for id 'b'"),
        ({"a": np.array([-np.inf, 1.0])}, "non-finite value for id 'a'"),
        ({"a": np.ones((1, 2))}, r"id 'a' has shape \(1, 2\)"),
    ],
)
def test_save_embeddings_rejects_what_load_embeddings_rejects(tmp_path, emb, match):
    path = tmp_path / "emb.csv"
    with pytest.raises(ValueError, match=match):
        save_embeddings(path, emb)
    assert not path.exists()


def test_a_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    """A save that fails partway through its rows (the disk fills on the
    second) leaves the file it would replace byte-identical, and no
    temporary file beside it."""
    path = tmp_path / "emb.csv"
    save_embeddings(path, {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])})
    before = path.read_bytes()
    real_writer = csv.writer

    class DiskFullWriter:
        def __init__(self, *args, **kwargs):
            self.writer, self.rows = real_writer(*args, **kwargs), 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.writer.writerow(row)

    monkeypatch.setattr(csv, "writer", DiskFullWriter)
    with pytest.raises(OSError, match="No space left"):
        save_embeddings(path, {"a": np.array([5.0, 6.0]), "b": np.array([7.0, 8.0])})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["emb.csv"]


_EXTREMES = st.sampled_from([
    -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.30000000000000004, 1.2345678901234567e-89,
])


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=4),
        st.lists(
            _EXTREMES | st.floats(allow_nan=False, allow_infinity=False),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_save_then_load_is_bitwise(vectors):
    """repr(float) reads back to the same bits: signed zero, subnormals, the
    largest finite floats and 17 significant digits."""
    emb = {rid: np.array(v) for rid, v in vectors.items() if any(v)}
    assume(emb)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "emb.csv")
        save_embeddings(path, emb)
        loaded = load_embeddings(path, list(emb))
    assert list(loaded) == sorted(emb)
    assert all(loaded[rid].tobytes() == emb[rid].tobytes() for rid in emb)


@pytest.mark.parametrize(
    "args, rid",
    [((500, 5, 0.1, 0.05, 4), "r02254"), ((300, 4, 0.2, 0.1, 6), "r00678")],
    ids=["seed4", "seed6"],
)
def test_synth_record_with_every_value_dropped_keeps_its_name(args, rid):
    records, _ = generate_dataset(*args)
    values = {a.name: a.value for a in records[rid].attributes}
    assert values["name"] and not any(values[k] for k in ("city", "phone", "street"))
    SimilarityIndex(records)


def test_similarity_index_measures():
    records = {
        "r1": _record("r1", name="ada lovelace"),
        "r2": _record("r2", name="ada lovelace"),
        "r3": _record("r3", name="zzz qqq"),
    }
    idx = SimilarityIndex(records, SimilarityConfig(measure="jaccard"))
    assert idx.sim("r1", "r2") == 1.0
    assert idx.sim("r1", "r3") < 1.0
    idx2 = SimilarityIndex(records, SimilarityConfig(measure="cosine"))
    assert idx2.sim("r1", "r2") == pytest.approx(1.0)
    # r1 and r2 embed alike, so the tie goes to the lowest id
    assert idx2.representative({"r2", "r1"}) == "r1"


@given(st.sets(st.text("ab", max_size=3)), st.sets(st.text("ab", max_size=3)))
def test_jaccard_bounds_and_symmetry(a, b):
    s = jaccard(a, b)
    assert 0.0 <= s <= 1.0
    assert s == jaccard(b, a)


@pytest.mark.parametrize("planted", [False, True])
def test_index_sim_equals_cosine_exactly(planted):
    records, truth = generate_dataset(20, 3, seed=8)
    emb = planted_embeddings(truth, noise=0.1, seed=8) if planted else None
    idx = SimilarityIndex(records, embeddings=emb)
    ids = sorted(records)
    for a in ids[:12]:
        for b in ids:
            u, v = idx.embeddings[a], idx.embeddings[b]
            assert idx.sim(a, b) == cosine(u, v)
            assert cosine(u, v) == float(
                np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            )
    for members in (ids[:2], ids[:5], ids):
        mean = np.mean([idx.embeddings[rid] for rid in members], axis=0)
        expected = min(
            members, key=lambda rid: (1.0 - cosine(idx.embeddings[rid], mean), rid)
        )
        assert idx.representative(reversed(members)) == expected


def test_index_rejects_embeddings_of_mixed_dimension():
    records = {rid: _record(rid, name=rid) for rid in ("a", "b")}
    with pytest.raises(DimMismatch):
        SimilarityIndex(records, embeddings={"a": np.ones(3), "b": np.ones(4)})


@pytest.mark.parametrize(
    "a, b, error, match",
    [
        ([[1.0, 2.0]], [[3.0, 1.0]], DimMismatch, r"\[\(1, 2\)\]"),
        ([], [], DimMismatch, r"\[\(0,\)\]"),
        (1.0, 2.0, DimMismatch, r"\[\(\)\]"),
        ([1.0, 2.0], [np.nan, 1.0], EmbeddingParseError, "non-finite value for id 'b'"),
        ([1.0, 2.0], [np.inf, 1.0], EmbeddingParseError, "non-finite value for id 'b'"),
    ],
)
def test_index_rejects_what_is_not_a_finite_vector(a, b, error, match):
    """Caught at construction: sims would return NaN, or an (n, 1, 1) array
    for (1, dim) rows."""
    records = {rid: _record(rid, name=rid) for rid in ("a", "b")}
    with pytest.raises(error, match=match):
        SimilarityIndex(records, embeddings={"a": np.array(a), "b": np.array(b)})


def test_index_sim_raises_zero_vector_at_call():
    records = {rid: _record(rid, name=rid) for rid in ("a", "b", "c")}
    emb = {"a": np.zeros(3), "b": np.ones(3), "c": np.arange(3.0)}
    idx = SimilarityIndex(records, embeddings=emb)
    assert idx.sim("b", "c") == cosine(emb["b"], emb["c"])
    with pytest.raises(ZeroVector):
        idx.sim("a", "b")
    with pytest.raises(ZeroVector):
        idx.sim("c", "a")


def _kernel_index(planted, measure="cosine"):
    """38 hashed TF-IDF (or planted) records under ``measure``; r_dup0 and
    r_dup1 repeat the text of the first record exactly."""
    records, truth = generate_dataset(12, 3, seed=4)
    first = records[min(records)]
    for rid in ("r_dup0", "r_dup1"):
        records[rid] = Record(rid, first.attributes)
        truth[rid] = truth[first.id]
    emb = planted_embeddings(truth, noise=0.1, seed=4) if planted else None
    return SimilarityIndex(records, SimilarityConfig(measure=measure), emb)


@pytest.mark.parametrize("planted", [False, True])
def test_sims_bitwise_equal_sim_and_cosine(planted):
    idx = _kernel_index(planted)
    ids = sorted(idx.embeddings)
    full = idx.sims(ids)
    assert full.shape == (len(ids), len(ids))
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            value = cosine(idx.embeddings[a], idx.embeddings[b])
            assert full[i, j] == idx.sim(a, b) == value, (a, b)
    # the LSH verifier calls the same kernel on stacks of gathered buckets
    # and on row stripes of one bucket
    matrix = idx.rows(ids)
    norms = row_norms(matrix)
    buckets = np.random.default_rng(1).permutation(len(ids))[:36].reshape(4, 9)
    g, ng = matrix[buckets], norms[buckets]
    stacked = cosine_blocks(g, g, ng, ng)
    assert np.array_equal(stacked, np.stack([full[np.ix_(b, b)] for b in buckets]))
    stripe = cosine_blocks(matrix[5:9], matrix[5:], norms[5:9], norms[5:])
    assert np.array_equal(stripe, full[5:9, 5:])


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_sims_rectangular_and_empty_shapes(measure):
    records, _ = generate_dataset(4, 2, seed=2)
    idx = SimilarityIndex(records, SimilarityConfig(measure=measure))
    ids = sorted(records)
    full = idx.sims(ids)
    assert np.array_equal(idx.sims(ids[:3], ids[3:7]), full[:3, 3:7])
    assert np.array_equal(idx.sims(ids[5:], ids), full[5:])
    assert idx.sims([], ids).shape == (0, len(ids))
    assert idx.sims(ids, []).shape == (len(ids), 0)
    assert idx.sims([]).shape == (0, 0)


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_sims_of_permuted_ids_are_the_permuted_matrix(measure):
    idx = _kernel_index(planted=False, measure=measure)
    ids = sorted(idx.embeddings)
    perm = np.random.default_rng(0).permutation(len(ids))
    permuted = idx.sims(ids[k] for k in perm)
    assert np.array_equal(permuted, idx.sims(ids)[np.ix_(perm, perm)])


def _or_zero_vector(read):
    """read()'s value, or ZeroVector if it raises that."""
    try:
        return read()
    except ZeroVector:
        return ZeroVector


def _reference_representative(index, members):
    """representative() as it was before the stacked read: one group, its
    mean by mean(axis=0), its least 1.0 - cosine by min() over the ids."""
    ids = sorted(members)
    if len(ids) == 1:
        return ids[0]
    rows = index.rows(ids)
    mean = rows.mean(axis=0)
    norm = row_norms(mean)
    if norm == 0.0:
        return ids[0]
    sims = similarity._over_norms(np.vecdot(rows, mean), row_norms(rows), norm).tolist()
    return min(zip(ids, sims), key=lambda t: (1.0 - t[1], t[0]))[0]


def _group_index(planted):
    """_kernel_index's records under their own embeddings, kept bitwise, and
    under given ones for four more: r_twin repeats the first record's
    embedding, for ties; r_neg0 and r_neg1 negate it, so that a group of it
    and its negations, summed in id order, has a zero mean exactly; r_zero
    is a zero row."""
    index = _kernel_index(planted)
    ids = sorted(index.embeddings)
    emb = dict(index.embeddings)
    emb["r_twin"] = emb[ids[0]].copy()
    emb["r_neg0"], emb["r_neg1"] = -emb[ids[0]], -emb[ids[0]]
    emb["r_zero"] = np.zeros_like(emb[ids[0]])
    records = {rid: _record(rid, name=rid) for rid in emb}
    return SimilarityIndex(records, embeddings=emb)


_GROUP_INDEXES = {planted: _group_index(planted) for planted in (False, True)}


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.sampled_from([1, None]), st.data())
def test_representatives_match_the_per_group_reference(planted, budget, data):
    """Groups of 1 to 12 ids, of mixed sizes, from a pool that holds
    duplicate embeddings, negations and a zero row: the stacked
    representatives are the frozen per-group reference's, with a stack of
    one group per call (budget 1) and at the default budget. A zero row
    raises ZeroVector unless its group's mean is zero."""
    index = _GROUP_INDEXES[planted]
    ids = sorted(index.embeddings)
    pool = ids[:9] + ["r_dup0", "r_dup1", "r_twin", "r_neg0", "r_neg1", "r_zero"]
    groups = data.draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True),
            max_size=8,
        )
        | st.just([[ids[0], "r_neg0", "r_zero"], [ids[0], "r_neg0", "r_neg1", "r_twin"]])
    )
    expected = [_or_zero_vector(lambda: _reference_representative(index, g)) for g in groups]
    with mock.patch.object(similarity, "_VERIFY_BUDGET", budget or similarity._VERIFY_BUDGET):
        got = [_or_zero_vector(lambda: index.representative(reversed(g))) for g in groups]
        assert got == expected
        if ZeroVector in expected:
            with pytest.raises(ZeroVector):
                index.representatives(groups)
        else:
            assert index.representatives(groups) == expected


def test_representative_ties_and_zero_means():
    index = _GROUP_INDEXES[True]
    first, second = sorted(index.embeddings)[:2]
    # equal embeddings: the lowest id; a zero mean: the lowest id, before
    # any zero row is looked at, and per group in a stacked call
    assert index.representative({"r_twin", first}) == first
    assert index.representative({"r_neg0", first}) == first
    assert index.representative({"r_twin", "r_neg1", "r_neg0", first}) == first
    assert index.representative({"r_zero", "r_neg0", first}) == first
    with pytest.raises(ZeroVector):
        index.representative({"r_zero", first})
    assert index.representatives(
        [{"r_zero", "r_neg0", first}, {first, second}, {second}]
    ) == [first, _reference_representative(index, {first, second}), second]


def test_representative_key_is_one_minus_cosine():
    """Six near-orthogonal unit rows, each cosine to the mean about 0.41:
    r0's and r1's differ in the last bit, but 1.0 - cosine rounds them
    equal, so the tie goes to the lowest id, r0, not to the larger cosine."""
    nudge = [
        [-2, 3, 2, 0, -1, 3], [0, -1, 0, 2, 1, 2], [-1, 0, -1, -2, 0, -1],
        [3, -1, 3, 3, -2, 1], [2, 3, 3, -1, 0, 0], [0, 0, 1, -1, -2, 0],
    ]
    rows = np.eye(6) + np.array(nudge) * 2.0**-50
    records = {f"r{k}": _record(f"r{k}", name=f"r{k}") for k in range(6)}
    index = SimilarityIndex(records, embeddings=dict(zip(records, rows)))
    sims = similarity._over_norms(
        np.vecdot(rows, rows.mean(axis=0)), row_norms(rows), row_norms(rows.mean(axis=0))
    )
    assert sims[1] > sims[0] and 1.0 - sims[1] == 1.0 - sims[0] < 1.0 - sims[2:].max()
    assert index.representative(records) == _reference_representative(index, records)
    assert index.representatives([records]) == ["r0"]


def _tokenless_index(measure):
    """_kernel_index's records plus q1 and q2, whose every value is empty,
    under given planted embeddings: Jaccard scores the two 1.0."""
    records, truth = generate_dataset(12, 3, seed=4)
    for rid in ("q1", "q2"):
        records[rid] = Record(rid, (Attribute("name", ""), Attribute("city", "")))
        truth[rid] = "q"
    emb = planted_embeddings(truth, noise=0.1, seed=4)
    return SimilarityIndex(records, SimilarityConfig(measure=measure), emb)


_TOKENLESS = {m: _tokenless_index(m) for m in ("cosine", "jaccard")}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["cosine", "jaccard"]), st.sampled_from([1, 50, None]), st.data()
)
def test_group_sims_equal_sims_bitwise(measure, budget, data):
    """Each group's stacked matrix is sims(group), byte for byte, for groups
    of 0 to 12 ids (repeats allowed), the two token-less records among them,
    with one group per call (budget 1), a few, or the default."""
    index = _TOKENLESS[measure]
    pool = ["q1", "q2"] + sorted(index.embeddings)[:10]
    groups = data.draw(
        st.lists(st.lists(st.sampled_from(pool), max_size=12), max_size=8)
    )
    with mock.patch.object(similarity, "_VERIFY_BUDGET", budget or similarity._VERIFY_BUDGET):
        got = index.group_sims(groups)
    assert len(got) == len(groups)
    for group, sims in zip(groups, got):
        want = index.sims(group)
        assert sims.shape == want.shape and sims.dtype == want.dtype
        assert sims.tobytes() == want.tobytes(), group
    if measure == "jaccard":
        (pair,) = index.group_sims([["q1", "q2"]])
        assert (pair == 1.0).all()


def test_group_sims_take_one_kernel_call_per_size(monkeypatch):
    index = _TOKENLESS["cosine"]
    ids = sorted(index.embeddings)
    calls = []
    real = similarity.cosine_blocks

    def counting(a, b, na, nb):
        calls.append(a.shape)
        return real(a, b, na, nb)

    monkeypatch.setattr(similarity, "cosine_blocks", counting)
    groups = [ids[k : k + size] for k, size in enumerate([3, 2, 3, 5, 2, 3])]
    index.group_sims(groups)
    dim = index.embeddings[ids[0]].shape[0]
    assert calls == [(3, 3, dim), (2, 2, dim), (1, 5, dim)]
    # a budget of two 3-record groups' values: the three take two calls
    calls.clear()
    monkeypatch.setattr(similarity, "_VERIFY_BUDGET", 2 * 3 * (dim + 3))
    index.group_sims(groups)
    assert calls == [(2, 3, dim), (1, 3, dim), (2, 2, dim), (1, 5, dim)]


def test_sims_raise_zero_vector_iff_a_pair_holds_a_zero_row():
    records = {rid: _record(rid, name=rid) for rid in ("a", "b", "c")}
    emb = {"a": np.zeros(3), "b": np.ones(3), "c": np.arange(3.0)}
    idx = SimilarityIndex(records, embeddings=emb)
    lists = [[], ["a"], ["b"], ["a", "b"], ["b", "c"], ["c", "a"]]
    for ids in lists:
        for others in lists:
            if ids and others and "a" in ids + others:
                with pytest.raises(ZeroVector):
                    idx.sims(ids, others)
            else:
                idx.sims(ids, others)


def test_jaccard_sims_equal_jaccard():
    records, _ = generate_dataset(8, 3, seed=6)
    idx = SimilarityIndex(records, SimilarityConfig(measure="jaccard"))
    ids = sorted(records)
    full = idx.sims(ids)
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            assert full[i, j] == jaccard(idx.token_sets[a], idx.token_sets[b])


_WORDS = st.lists(st.sampled_from("abcde"), max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abcd"), _WORDS), min_size=1, max_size=8),
    st.data(),
)
def test_jaccard_sims_equal_jaccard_bitwise(fields, data):
    """Records whose token sets come from a five-letter alphabet; an empty
    value leaves a record with no tokens. Every entry of every shape is
    jaccard()'s, 1.0 for two token-less records included. The embeddings are
    given, since hashed TF-IDF rejects a record with no tokens."""
    records = {
        f"r{k}": Record(f"r{k}", (Attribute(name, value),))
        for k, (name, value) in enumerate(fields)
    }
    emb = {rid: np.ones(2) for rid in records}
    idx = SimilarityIndex(records, SimilarityConfig(measure="jaccard"), emb)
    rids = sorted(records)
    ids = data.draw(st.lists(st.sampled_from(rids), max_size=6))
    others = data.draw(st.lists(st.sampled_from(rids), max_size=6))

    def expected(rows, cols):
        sets = idx.token_sets
        return np.array([[jaccard(sets[a], sets[b]) for b in cols] for a in rows])

    for rows, cols, got in [
        (ids, ids, idx.sims(ids)),
        (ids, others, idx.sims(ids, others)),
        (ids + others, others, idx.sims(ids + others, others)),
        (rids, rids, idx.sims(rids)),
    ]:
        want = expected(rows, cols).reshape(len(rows), len(cols))
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (rows, cols)


def _reference_hash(token, seed):
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "little")


def _reference_embedder(corpus, dim, seed):
    """The per-record loop hashed_tfidf replaced with one scatter-add: df
    over the corpus, then one keyed hash and one vector add per distinct
    token of a record, in first-appearance order."""
    df = {}
    for record in corpus:
        for token in set(tokenize(record)):
            df[token] = df.get(token, 0) + 1

    def embed(record):
        tokens = tokenize(record)
        if not tokens:
            raise EmptyRecord(f"record {record.id} produced no tokens")
        counts = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        vec = np.zeros(dim)
        for token, count in counts.items():
            h = _reference_hash(token, seed)
            sign = 1.0 if (h >> 63) & 1 else -1.0
            idf = math.log(1.0 + len(corpus) / df.get(token, 1))
            vec[h % dim] += sign * (count * idf)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ZeroVector(f"record {record.id} hashed to the zero vector")
        return vec / norm

    return embed


# Values whose words per (name, value) pair must join to the serialized
# record's: a final capital sigma ("ΟΔΟΣ" lowers to "οδος"), "İ", whose
# lower() is two code points, values holding ":" or "name: x",
# whitespace-only and empty values, and an empty name.
_TRICKY_VALUES = [
    _record("t1", name="ΟΔΟΣ ΑΘΗΝΑΣ", city="ΣΟΦΙΑ Σ"),
    _record("t2", name="İSTANBUL İ", city="ıi İi"),
    _record("t3", name="a:b", note="name: x", city=":"),
    _record("t4", name="ΟΔΟΣ", city=" ", phone="\t", note=""),
    _record("t5", **{"": "Σ", "ΟΔΟΣ": "İ:Σ"}),
]


def test_tokenize_records_equals_tokenize_per_record():
    """Per-value words joined in attribute order are tokenize()'s, in the
    index's token sets too; a record without attributes raises as
    tokenize() does."""
    records = _bitwise_corpus()
    expected = [tokenize(r) for r in records.values()]
    assert similarity.tokenize_records(records.values()) == expected
    tricky = dict(zip(records, expected))
    assert tricky["t1"] == ["name", "οδος", "αθηνας", "city", "σοφια", "σ"]
    assert tricky["t2"] == ["name", "i", "stanbul", "i", "city", "ıi", "i", "i"]
    assert tricky["t3"] == ["name", "a", "b", "note", "name", "x", "city"]
    assert tricky["t4"] == ["name", "οδος", "city", "phone"]
    # ":" is case-ignorable, so the sigma after "İ:" ends a word; the space
    # after "ΟΔΟΣ:" stops its context
    assert tricky["t5"] == ["σ", "οδος", "i", "ς"]
    index = SimilarityIndex(records, embeddings={rid: np.ones(2) for rid in records})
    assert list(index.token_sets.values()) == [set(t) for t in expected]
    with pytest.raises(EmptyRecord, match="^record e has no attributes$"):
        similarity.tokenize_records([_record("f", name="x"), Record("e", ())])


_TRICKY_TEXT = st.text("aΣσςİiı:' .\t", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TRICKY_TEXT, _TRICKY_TEXT), min_size=1, max_size=4))
def test_tokenize_records_equals_tokenize_on_tricky_text(pairs):
    """Random names and values over sigmas, dotted and dotless i, colons,
    apostrophes, full stops and whitespace."""
    attributes = dict(pairs)  # a record names each attribute once
    record = Record("r", tuple(Attribute(k, v) for k, v in attributes.items()))
    shared = Record("s", record.attributes[::-1])
    assert similarity.tokenize_records([record, shared, record]) == [
        tokenize(record), tokenize(shared), tokenize(record)
    ]


def _bitwise_corpus():
    """Repeated tokens, tokens shared across records, and non-ASCII text."""
    records, _ = generate_dataset(10, 3, seed=5)
    extra = [
        _record("x1", name="ada ada ada lovelace", city="london london"),
        _record("x2", name="Zoë Ångström", city="Malmö", note="straße STRASSE"),
        _record("x3", name="東京 大阪 東京", city="ʻOumuamua"),
        _record("x4", name="ada lovelace", city="", phone="555 555 0100"),
        *_TRICKY_VALUES,
    ]
    records.update((r.id, r) for r in extra)
    return records


@pytest.mark.parametrize("dim", [1, 7, 256])
@pytest.mark.parametrize("seed", [0, 1, 13])
def test_embeddings_bitwise_equal_the_per_record_loop(dim, seed):
    records = _bitwise_corpus()
    reference = _reference_embedder(list(records.values()), dim, seed)
    index = SimilarityIndex(records, SimilarityConfig(dim=dim, seed=seed))
    ids = list(records)
    tokens = [tokenize(record) for record in records.values()]
    matrix = hashed_tfidf(ids, tokens, dim, seed)
    for row, (rid, record) in enumerate(records.items()):
        expected = reference(record).tobytes()
        assert index.embeddings[rid].tobytes() == expected, rid
        assert matrix[row].tobytes() == expected, rid


def _cancelling_tokens(seed):
    """Two tokens whose keyed hashes have opposite signs: a record of just
    these two, each once and in no other record, sums to zero in dim 1."""
    positive = negative = None
    for i in range(64):
        token = f"w{i}"
        if (_reference_hash(token, seed) >> 63) & 1:
            positive = positive or token
        else:
            negative = negative or token
    return positive, negative


@pytest.mark.parametrize("zero_first", [True, False])
def test_first_failing_record_names_the_error(zero_first):
    a, b = _cancelling_tokens(seed=0)
    zero = Record("z", (Attribute(a, b),))
    empty = _record("e", name="")
    fine = _record("f", name="ada lovelace")
    order = [fine, zero, empty] if zero_first else [fine, empty, zero]
    records = {r.id: r for r in order}
    error, message = (
        (ZeroVector, "record z hashed to the zero vector")
        if zero_first
        else (EmptyRecord, "record e produced no tokens")
    )
    with pytest.raises(error, match=f"^{message}$"):
        SimilarityIndex(records, SimilarityConfig(dim=1, seed=0))
    tokens = [tokenize(record) for record in order]
    with pytest.raises(error, match=f"^{message}$"):
        hashed_tfidf(list(records), tokens, 1, 0)
    reference = _reference_embedder(order, 1, 0)
    with pytest.raises(error, match=f"^{message}$"):
        for record in order:
            reference(record)


_ALPHABET_WORDS = st.lists(st.sampled_from(["a", "b", "c", "d", "A"]), max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from("xyz"), _ALPHABET_WORDS), min_size=1, max_size=3
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 8),
    st.integers(0, 3),
)
def test_hashed_tfidf_equals_the_per_record_loop(rows, dim, seed):
    """Corpora over a five-word alphabet, so tokens repeat within a record
    and across records and small dims sum several terms per cell: each row
    is the reference loop's byte for byte, or the first failing record
    raises the reference's error and message."""
    records = {
        f"r{k}": _record(f"r{k}", **{name: " ".join(words) for name, words in fields})
        for k, fields in enumerate(rows)
    }
    order = list(records.values())
    reference = _reference_embedder(order, dim, seed)
    expected = []
    failure = None
    for record in order:
        try:
            expected.append(reference(record).tobytes())
        except (EmptyRecord, ZeroVector) as exc:
            failure = (type(exc), str(exc))
            break
    tokens = [tokenize(record) for record in order]
    config = SimilarityConfig(dim=dim, seed=seed)
    embedders = [
        lambda: hashed_tfidf(list(records), tokens, dim, seed),
        lambda: SimilarityIndex(records, config).embeddings.values(),
    ]
    for embed in embedders:
        if failure:
            with pytest.raises(failure[0], match=f"^{failure[1]}$"):
                embed()
        else:
            assert [row.tobytes() for row in embed()] == expected
