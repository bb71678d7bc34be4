"""Property tests: decoders and the CLI turn arbitrary input into a result or a SparseJLError.

The JSON decoder's canonical path must also agree with the general decoder on
every text, canonical or not.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsejl import SparseJLError, build_matrix, deserialize, deserialize_json, serialize_json
from sparsejl.cli import read_vectors, run
from sparsejl.transform import _HEADER, _decode_document

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

sizes = st.one_of(st.integers(0, 5), st.integers(0, 2**64 - 1))
binary_matrices = st.one_of(
    st.binary(max_size=120),
    st.builds(lambda n, m, s, seed, body: _HEADER.pack(1, n, m, s, seed) + body,
              sizes, sizes, sizes, sizes, st.binary(max_size=60)),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=3),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=16,
)
small_ints = st.one_of(st.integers(-1, 6), json_scalars)
entries = st.one_of(st.lists(small_ints, min_size=2, max_size=2), json_values)
json_documents = st.fixed_dictionaries({
    "format_version": st.one_of(st.just(1), json_scalars),
    "n": small_ints, "m": small_ints, "s": small_ints, "seed": small_ints,
    "columns": st.one_of(st.lists(st.lists(entries, max_size=3), max_size=3), json_values),
})


@st.composite
def mutated_documents(draw):
    """A valid document with one character replaced or removed."""
    text = serialize_json(build_matrix(3, 5, 2, seed=draw(st.integers(0, 50))))
    i = draw(st.integers(0, len(text) - 1))
    patch = draw(st.sampled_from(["", "0", "-", "9", "[", "]", ",", ".5", "true", "1e9"]))
    return text[:i] + patch + text[i + 1:]


def _valid_or_error(decode, data):
    try:
        result = decode(data)
    except SparseJLError:
        return None
    return result


@FUZZ
@given(binary_matrices)
def test_binary_decoder(data):
    matrix = _valid_or_error(deserialize, data)
    if matrix is not None:
        matrix.validate()


@FUZZ
@given(st.one_of(st.text(max_size=80), json_documents.map(json.dumps), mutated_documents()))
def test_json_decoder(text):
    matrix = _valid_or_error(deserialize_json, text)
    if matrix is not None:
        matrix.validate()
        assert deserialize_json(serialize_json(matrix)) == matrix


@st.composite
def edited_canonical_texts(draw):
    """The canonical text of a small random matrix with 0-3 byte edits."""
    m = draw(st.sampled_from([1, 2, 3, 7, 12, 100, 2**32]))
    s = draw(st.one_of(st.just(min(m, 5)), st.integers(1, min(m, 5))))
    n = draw(st.integers(1, 3))
    text = serialize_json(build_matrix(n, m, s, seed=draw(st.integers(0, 2**64 - 1))))
    rnd = draw(st.randoms(use_true_random=False))  # uniform positions, unlike st.integers
    for _ in range(draw(st.integers(0, 3))):
        i = rnd.randrange(len(text) + 1)
        char = rnd.choice("0123456789-[], ")
        edit = rnd.choice(["replace", "delete", "insert"])
        if edit == "insert":
            text = text[:i] + char + text[i:]
        elif i < len(text):
            text = text[:i] + (char if edit == "replace" else "") + text[i + 1:]
    return text


def _outcome(decode, text):
    try:
        return decode(text)
    except Exception as exc:
        return type(exc), str(exc)


def _general(text):
    matrix = _decode_document(text)
    matrix.validate()
    return matrix


@FUZZ
@given(edited_canonical_texts())
def test_json_decode_paths_agree(text):
    """The canonical path returns exactly what the general decoder returns, or raises the same error."""
    assert _outcome(deserialize_json, text) == _outcome(_general, text)


@pytest.mark.parametrize("edit", [
    ("[[", "[[ "), ("[[", "[[0"), ("[[[10", "[[[40"), ("], [", "]  ["), (", -1]", ", -01]"),
    (", 1]", ", +1]"), (", 1]", ", 11]"),
    ('], "format_version"', '] ], "format_version"'), ('], "format_version"', ']], "format_version"'),
    ('"format_version": 1', '"format_version": 2'), ('"m": 40', '"m": 040'), ('"seed": 2', '"seed": 2.0'),
    ("}", "} "), ("{", " {"),
], ids=lambda edit: edit[1])
def test_near_canonical_texts_match_general_decoder(edit):
    canonical = serialize_json(build_matrix(9, 40, 6, seed=2))
    text = canonical.replace(*edit, 1)
    assert text != canonical
    assert _outcome(deserialize_json, text) == _outcome(_general, text)


@FUZZ
@given(st.binary(max_size=120))
def test_vector_reader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        vectors = _valid_or_error(read_vectors, path)
    if vectors is not None:
        assert all(v.ndim == 1 and v.dtype == np.float64 for v in vectors)


@FUZZ
@given(
    st.one_of(binary_matrices, json_documents.map(lambda d: json.dumps(d).encode())),
    st.one_of(st.binary(max_size=40), st.sampled_from([b"1,0\n", b"0.5,nan\n1,2\n", b"1\n"])),
)
def test_cli_transform_never_raises(matrix_bytes, vector_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "A").write_bytes(matrix_bytes)
        (tmp / "in.csv").write_bytes(vector_bytes)
        code = run(["transform", "--matrix", str(tmp / "A"), "--in", str(tmp / "in.csv"),
                    "--out", str(tmp / "out.csv")])
    assert code in (0, 1, 2)
