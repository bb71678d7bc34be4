"""Property tests: decoders and the CLI turn arbitrary input into a result or a SparseJLError.

The JSON decoder's canonical path must also agree with the general decoder on
every text, canonical or not, and on every file, UTF-8 or not.  Every integer argument accepts an ``int`` or a
numpy integer in range and rejects anything else with a SparseJLError, every
real argument accepts a finite real scalar in range and rejects anything else
with a SparseJLError, and every oracle or projection vector is a flat sequence
of real numbers or a DomainError.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsejl import (
    DomainError,
    MajorizationSpec,
    MatrixInvariantError,
    MomentSpec,
    PlanRequest,
    SparseJLError,
    SparseJLMatrix,
    TailEnvelope,
    apply,
    apply_batch,
    bennet_h,
    bounds_table,
    build_matrix,
    check_majorization,
    check_multinomial_inequality,
    check_psi_envelope,
    chernoff_optimum_check,
    clopper_pearson,
    deserialize,
    deserialize_json,
    estimate_failure_prob,
    exact_moment_Z,
    mgf_envelope_bound,
    min_dimension,
    moment_bound_rhs,
    poisson_tail_bound,
    psi,
    serialize,
    serialize_json,
    squared_norm_samples,
    sub_poisson_tail,
)
from sparsejl.cli import read_vectors, run
from sparsejl.errors import check_int, check_real
from sparsejl.transform import _ENTRY_DTYPE, _HEADER, _check_header, _decode_document, read_matrix

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


@st.composite
def binary_entries(draw):
    """A small header and its entries: rows in [0, 8), sign bytes mostly 0x00/0x01."""
    m = draw(st.integers(1, 6))
    s = draw(st.integers(1, m))
    n = draw(st.integers(0, 3))
    rows = draw(st.lists(st.integers(0, 7), min_size=n * s, max_size=n * s))
    sign_bytes = draw(st.lists(st.sampled_from([0, 1, 0, 1, 2, 0xFF]), min_size=n * s, max_size=n * s))
    return n, m, s, rows, sign_bytes


@FUZZ
@given(binary_entries())
def test_binary_decoder_checks_as_validate(case):
    """``deserialize`` raises what the sign-byte check and then ``validate()`` raise, or returns the matrix."""
    n, m, s, rows, sign_bytes = case
    entries = np.empty(n * s, dtype=_ENTRY_DTYPE)
    entries["row"], entries["sign"] = rows, sign_bytes
    data = _HEADER.pack(1, n, m, s, 5) + entries.tobytes()

    def reference(data):
        bad = [byte for byte in sign_bytes if byte not in (0, 1)]
        if bad:
            raise MatrixInvariantError(f"sign domain violated: byte {bad[0]:#x} is not 0x00/0x01")
        matrix = SparseJLMatrix(n=n, m=m, s=s, seed=5, rows=np.array(rows, dtype=np.uint32).reshape(n, s),
                                signs=np.array([2 * b - 1 for b in sign_bytes], dtype=np.int8).reshape(n, s))
        matrix.validate()
        return matrix

    assert _outcome(deserialize, data) == _outcome(reference, data)


header_fields = st.one_of(st.integers(-1, 9), st.integers(0, 9).map(np.int64), st.integers(0, 9).map(np.uint8),
                          sizes, st.integers(2**64, 2**65), st.booleans(), st.floats(0, 9), st.none())
small_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def constructor_arguments(draw):
    """The fields of a small valid matrix, up to two of them replaced: a header field by any
    small value, an array by one of any values, dtype or shape, or by a list or None."""
    m = draw(st.integers(1, 8))
    s = draw(st.integers(1, m))
    n = draw(st.integers(0, 3))
    rows = np.array([draw(st.permutations(range(m)))[:s] for _ in range(n)], dtype=np.uint32).reshape(n, s)
    signs = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n * s, max_size=n * s)), dtype=np.int8)
    fields = dict(n=n, m=m, s=s, seed=draw(sizes), rows=rows, signs=signs.reshape(n, s))
    near = {"rows": st.integers(0, 9), "signs": st.integers(-3, 3)}
    edits = draw(st.sampled_from([0, 1, 1, 2]))
    for name in draw(st.lists(st.sampled_from(sorted(fields)), min_size=edits, max_size=edits, unique=True)):
        if name in ("rows", "signs"):
            fields[name] = draw(st.one_of(
                hnp.arrays(fields[name].dtype, (n, s), elements=near[name]),
                hnp.arrays(fields[name].dtype, (n, s)),
                hnp.arrays(hnp.scalar_dtypes(), st.one_of(st.just((n, s)), small_shapes)),
                st.lists(st.lists(st.integers(-2, 8), max_size=3), max_size=3),
                st.none(),
            ))
        else:
            fields[name] = draw(header_fields)
    return fields


@FUZZ
@given(constructor_arguments())
def test_constructor_gives_valid_matrix_or_error(fields):
    """Arbitrary header fields and arrays give a valid matrix, which both codecs round-trip, or a SparseJLError."""
    matrix = _valid_or_error(lambda parts: SparseJLMatrix(**parts), fields)
    if matrix is not None:
        assert [type(v) for v in (matrix.n, matrix.m, matrix.s, matrix.seed)] == [int] * 4
        for rows, signs in zip(matrix.rows.tolist(), matrix.signs.tolist()):
            assert len(set(rows)) == matrix.s and max(rows) < matrix.m and set(signs) <= {-1, 1}
        assert deserialize(serialize(matrix)) == matrix
        assert deserialize_json(serialize_json(matrix)) == matrix


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


@st.composite
def edited_canonical_files(draw):
    """The canonical file of a small random matrix with one byte inserted, deleted or replaced."""
    m = draw(st.sampled_from([1, 3, 12, 100, 2**32]))
    s = draw(st.integers(1, min(m, 4)))
    matrix = build_matrix(draw(st.integers(1, 3)), m, s, seed=draw(st.integers(0, 2**64 - 1)))
    data = serialize_json(matrix).encode()
    i = draw(st.randoms(use_true_random=False)).randrange(len(data))  # uniform, unlike st.integers
    byte = bytes([draw(st.one_of(st.sampled_from(b"0123456789-[], "), st.integers(0, 255)))])
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    return data[:i] + (b"" if edit == "delete" else byte) + data[i + (edit != "insert"):]


def _read_as_text(path):
    """``read_matrix`` as the text decoder ran it: UTF-8 text, then the general decoder."""
    data = path.read_bytes()
    if not data.removeprefix(b"\xef\xbb\xbf").lstrip(b" \t\r\n").startswith(b"{"):
        return deserialize(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixInvariantError(f"malformed matrix document: {exc}") from None
    return _general(text)


@FUZZ
@given(edited_canonical_files())
def test_read_matrix_of_edited_file_matches_text_decoder(data):
    """The byte decoder accepts only canonical files and leaves every other file's outcome as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "A.json"
        path.write_bytes(data)
        assert _outcome(read_matrix, path) == _outcome(_read_as_text, path)


@pytest.mark.parametrize("lead", [b"", b" \r\n"], ids=["bom", "bom-whitespace"])
def test_byte_order_mark_reaches_the_json_decoder(tmp_path, capsys, lead):
    """A JSON matrix file after a UTF-8 byte-order mark goes to the JSON decoder, which rejects
    the mark (not JSON whitespace), rather than to the binary decoder; the CLI exits 1."""
    path = tmp_path / "A.json"
    path.write_bytes(b"\xef\xbb\xbf" + lead + serialize_json(build_matrix(9, 40, 6, seed=2)).encode())
    with pytest.raises(MatrixInvariantError, match=r"Unexpected UTF-8 BOM"):
        read_matrix(path)
    assert _outcome(read_matrix, path) == _outcome(_read_as_text, path)
    (tmp_path / "x.csv").write_text(",".join(["0.5"] * 9) + "\n")
    code = run(["transform", "--matrix", str(path), "--in", str(tmp_path / "x.csv"),
                "--out", str(tmp_path / "y.csv")])
    assert code == 1
    assert "Unexpected UTF-8 BOM" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("edit", [
    ("[[", "[[ "), ("[[", "[[0"), ("[[[10", "[[[40"), ("], [", "]  ["), (", -1]", ", -01]"),
    (", 1]", ", +1]"), (", 1]", ", 11]"),
    ('], "format_version"', '] ], "format_version"'), ('], "format_version"', ']], "format_version"'),
    ('"format_version": 1', '"format_version": 2'), ('"m": 40', '"m": 040'), ('"seed": 2', '"seed": 2.0'),
    ('"n": 9', '"n": 1099511627776'),
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


@pytest.mark.parametrize("line", ["\u0661.5,2", "1.0,\xa02.0", "\u3000"],
                         ids=["arabic_indic_digit", "no_break_space", "ideographic_space_line"])
def test_vector_reader_rejects_non_ascii(tmp_path, line):
    """float() reads Unicode digits and spaces: "\u0661.5,2" read as [1.5, 2.0], "1.0,\xa02.0"
    as [1.0, 2.0], and a line of Unicode spaces was skipped as blank."""
    path = tmp_path / "in.csv"
    path.write_text(f"1.0,2.0\n{line}\n", encoding="utf-8")
    with pytest.raises(DomainError, match=r"in\.csv:2: not a comma-separated list of numbers"):
        read_vectors(path)


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


X2 = (0.6, 0.8)

# One call per integer parameter, with the other arguments fixed, and an
# in-range value for it.  In-range values stay at most 8, so no call
# allocates much memory.
INT_PARAMS = {
    "build_matrix.n": (lambda v: build_matrix(v, 4, 2, 0), 3),
    "build_matrix.m": (lambda v: build_matrix(2, v, 1, 0), 5),
    "build_matrix.s": (lambda v: build_matrix(2, 8, v, 0), 3),
    "build_matrix.seed": (lambda v: build_matrix(2, 4, 2, v), 7),
    "check_header.n": (lambda v: _check_header(v, 4, 2, 0), 3),
    "check_header.m": (lambda v: _check_header(2, v, 1, 0), 5),
    "check_header.s": (lambda v: _check_header(2, 8, v, 0), 3),
    "check_header.seed": (lambda v: _check_header(2, 4, 2, v), 7),
    "squared_norm_samples.trials": (lambda v: squared_norm_samples(2, 4, 2, X2, v, 0), 4),
    "estimate_failure_prob.trials": (lambda v: estimate_failure_prob(2, 4, 2, X2, 0.5, v, 0), 4),
    "MomentSpec.q": (lambda v: exact_moment_Z(MomentSpec(X2, 0.1, v)), 3),
    "moment_bound_rhs.q": (lambda v: moment_bound_rhs(0.1, v), 4),
    "check_multinomial_inequality.q_max": (check_multinomial_inequality, 5),
    "MajorizationSpec.n": (lambda v: MajorizationSpec(v, 2, 1, 2, (1.0,)), 1),
    "MajorizationSpec.m": (lambda v: check_majorization(MajorizationSpec(1, v, 1, 2, (1.0,))), 3),
    "MajorizationSpec.s": (lambda v: check_majorization(MajorizationSpec(1, 4, v, 2, (1.0,))), 2),
    "MajorizationSpec.q": (lambda v: check_majorization(MajorizationSpec(1, 2, 1, v, (1.0,))), 4),
    "check_psi_envelope.grid_points": (lambda v: check_psi_envelope(1 / 30, grid_points=v), 3),
    "clopper_pearson.failures": (lambda v: clopper_pearson(v, 5), 2),
    "clopper_pearson.trials": (lambda v: clopper_pearson(1, v), 6),
}

int_like_values = st.one_of(
    st.integers(-3, 8),
    st.integers(-3, 8).map(np.int64),
    st.integers(0, 8).map(np.uint8),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(),
    st.sampled_from([2.0, math.nan, math.inf, np.float64(3.0)]),
    st.none(),
    st.text(max_size=2),
)


@pytest.mark.parametrize("param", sorted(INT_PARAMS))
@settings(max_examples=40, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=int_like_values)
def test_integer_parameter_returns_or_raises(param, value):
    """Each call returns or raises a SparseJLError; a value that is not an integer never returns."""
    try:
        INT_PARAMS[param][0](value)
    except SparseJLError:
        return
    assert isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a.view(np.int64), b.view(np.int64))
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32])
@pytest.mark.parametrize("param", sorted(INT_PARAMS))
def test_numpy_integer_acts_as_the_equal_int(param, kind):
    call, value = INT_PARAMS[param]
    assert _same(call(kind(value)), call(value))


@pytest.mark.parametrize("call", [
    lambda: build_matrix(2.5, 10, 2, 0),
    lambda: build_matrix(2, 10.0, 2, 0),
    lambda: build_matrix(True, 10, 2, 0),
    lambda: MomentSpec(X2, 0.1, True),
    lambda: MomentSpec(X2, 0.1, 2.0),
    lambda: clopper_pearson(1.5, 3),
    lambda: clopper_pearson(1, math.inf),
    lambda: MajorizationSpec(1, 2.5, 1, 2, (1.0,)),
    lambda: squared_norm_samples(2, 4, 2, X2, True, 0),
    lambda: squared_norm_samples(2, 4, 2, X2, 2.5, 0),
    lambda: estimate_failure_prob(2, 4, 2, X2, 0.5, True, 0),
    lambda: estimate_failure_prob(2, 4, 2, X2, 0.5, 2.5, 0),
    lambda: check_multinomial_inequality(True),
    lambda: check_int("n", 10**5000, 1, 10),
], ids=[
    "build_matrix-n=2.5", "build_matrix-m=10.0", "build_matrix-n=True", "MomentSpec-q=True",
    "MomentSpec-q=2.0", "clopper_pearson-failures=1.5", "clopper_pearson-trials=inf",
    "MajorizationSpec-m=2.5", "squared_norm_samples-trials=True", "squared_norm_samples-trials=2.5",
    "estimate_failure_prob-trials=True", "estimate_failure_prob-trials=2.5",
    "check_multinomial_inequality-q_max=True", "check_int-n=10**5000",
])
def test_non_integer_argument_is_domain_error(call):
    """Each of these was coerced, accepted or ended in a bare TypeError or AttributeError."""
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: MomentSpec(((0.6, 0.8),), 0.1, 2),
    lambda: MomentSpec(("a", "b"), 0.1, 2),
    lambda: MomentSpec((0.6 + 0j, 0.8), 0.1, 2),
    lambda: MomentSpec(None, 0.1, 2),
    lambda: MomentSpec(((0.6,), 0.8), 0.1, 2),
    lambda: MomentSpec((True, False), 0.1, 2),
    lambda: MajorizationSpec(1, 2, 1, 2, ((1.0,),)),
    lambda: squared_norm_samples(2, 4, 2, ["a", "b"], 3, 0),
    lambda: estimate_failure_prob(4, 8, 2, ["a"] * 4, 0.1, 4, 1),
    lambda: apply(build_matrix(3, 10, 2, 1), ["1", "2", "3"]),
    lambda: apply(build_matrix(3, 10, 2, 1), [True, False, True]),
    lambda: apply(build_matrix(3, 10, 2, 1), [1.0 + 0j, 2.0, 3.0]),
    lambda: apply(build_matrix(3, 10, 2, 1), [[1.0], 2.0, 3.0]),
    lambda: apply_batch(build_matrix(3, 10, 2, 1), [[1.0, 2.0, 3.0], ["1", "2", "3"]]),
], ids=[
    "MomentSpec-nested", "MomentSpec-strings", "MomentSpec-complex", "MomentSpec-None",
    "MomentSpec-ragged", "MomentSpec-bools", "MajorizationSpec-nested", "squared_norm_samples-strings",
    "estimate_failure_prob-strings", "apply-strings", "apply-bools", "apply-complex", "apply-ragged",
    "apply_batch-strings",
])
def test_non_real_vector_is_domain_error(call):
    """Each of these ended in a bare ValueError or TypeError, or was accepted."""
    with pytest.raises(DomainError, match="1-D sequence of real numbers"):
        call()



@pytest.mark.parametrize("call", [
    lambda: MajorizationSpec(3, 2, 1, 2, X2),
    lambda: squared_norm_samples(3, 4, 2, X2, 3, 0),
    lambda: estimate_failure_prob(3, 4, 2, X2, 0.1, 3, 0),
], ids=["MajorizationSpec", "squared_norm_samples", "estimate_failure_prob"])
def test_wrong_length_vector_is_domain_error(call):
    """One message for an oracle vector whose length differs from the n its caller fixes."""
    with pytest.raises(DomainError, match=r"^x must have length n = 3, got 2$"):
        call()


# One call per real parameter, with the other arguments fixed, and an
# in-range value for it.
REAL_PARAMS = {
    "bennet_h.u": (bennet_h, 0.5),
    "poisson_tail_bound.lam": (lambda v: poisson_tail_bound(v, 2.0), 1.0),
    "poisson_tail_bound.eps": (lambda v: poisson_tail_bound(1.0, v), 2.0),
    "psi.p": (lambda v: psi(0.5, v), 0.01),
    "psi.t": (lambda v: psi(v, 0.01), 0.5),
    "mgf_envelope_bound.p": (lambda v: mgf_envelope_bound(0.5, v), 0.01),
    "mgf_envelope_bound.t": (lambda v: mgf_envelope_bound(v, 0.01), 0.5),
    "TailEnvelope.v": (lambda v: TailEnvelope(v, 1.0), 2.0),
    "TailEnvelope.k": (lambda v: TailEnvelope(1.0, v), 2.0),
    "sub_poisson_tail.u": (lambda v: sub_poisson_tail(TailEnvelope(1.0, 1.0), v), 1.0),
    "chernoff_optimum_check.u": (lambda v: chernoff_optimum_check(TailEnvelope(1.0, 1.0), v), 1.0),
    "PlanRequest.eps": (lambda v: min_dimension(PlanRequest(v, 0.1, 0.01)), 0.02),
    "PlanRequest.delta": (lambda v: min_dimension(PlanRequest(0.02, v, 0.01)), 0.1),
    "PlanRequest.p": (lambda v: min_dimension(PlanRequest(0.02, 0.1, v)), 0.01),
    "bounds_table.eps": (lambda v: bounds_table(v, 0.1, 0.01, 4.0), 0.02),
    "bounds_table.delta": (lambda v: bounds_table(0.02, v, 0.01, 4.0), 0.1),
    "bounds_table.p": (lambda v: bounds_table(0.02, 0.1, v, 4.0), 0.01),
    "bounds_table.B": (lambda v: bounds_table(0.02, 0.1, 0.01, v), 4.0),
    "bounds_table.constant": (lambda v: bounds_table(0.02, 0.1, 0.01, 4.0, constant=v), 2.0),
    "MomentSpec.p": (lambda v: exact_moment_Z(MomentSpec(X2, v, 2)), 0.1),
    "moment_bound_rhs.p": (lambda v: moment_bound_rhs(v, 4), 0.1),
    "check_psi_envelope.p": (lambda v: check_psi_envelope(v, grid_points=3), 0.01),
    "check_psi_envelope.scale": (lambda v: check_psi_envelope(0.01, scale=v, grid_points=3), 50.0),
    "estimate_failure_prob.eps": (lambda v: estimate_failure_prob(2, 4, 2, X2, v, 4, 0), 0.5),
}

real_like_values = st.one_of(
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-3, 8),
    st.integers(-3, 8).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=2),
    st.floats().map(lambda v: np.array([v])),
    st.floats().map(np.array),
)


@pytest.mark.parametrize("param", sorted(REAL_PARAMS))
@settings(max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=real_like_values)
def test_real_parameter_returns_or_raises(param, value):
    """Each call returns or raises a SparseJLError; a value that is not a finite real scalar never returns."""
    try:
        REAL_PARAMS[param][0](value)
    except SparseJLError:
        return
    assert isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    assert math.isfinite(value)


@pytest.mark.parametrize("kind", [np.float64, np.float32, np.float16])
@pytest.mark.parametrize("param", sorted(REAL_PARAMS))
def test_numpy_float_acts_as_the_equal_float(param, kind):
    call, value = REAL_PARAMS[param]
    value = kind(value)
    assert _same(call(value), call(float(value)))


def test_plan_from_numpy_float_holds_python_floats():
    """A np.float32 eps was kept, and min_dimension returned a np.float32 h_value."""
    request = PlanRequest(np.float32(0.001), 0.1, 0.01)
    assert type(request.eps) is float and request == PlanRequest(float(np.float32(0.001)), 0.1, 0.01)
    assert type(min_dimension(request).h_value) is float


@pytest.mark.parametrize("call", [
    lambda: MomentSpec(X2, "0.1", 2),
    lambda: bennet_h("1"),
    lambda: TailEnvelope("1", 1.0),
    lambda: moment_bound_rhs("0.1", 2),
    lambda: check_psi_envelope(0.01, scale="2"),
    lambda: psi(np.array([0.1, 0.2]), 0.01),
    lambda: MomentSpec(X2, np.array([0.1]), 2),
    lambda: PlanRequest(np.array([0.001]), 0.1, 0.01),
    lambda: bennet_h(True),
    lambda: estimate_failure_prob(2, 4, 2, X2, True, 4, 1),
    lambda: bounds_table(0.1, 0.1, 0.01, math.nan),
    lambda: bounds_table(0.1, 0.1, 0.01, math.inf),
    lambda: check_real("p", 10**5000, 0.0, 1.0),
], ids=[
    "MomentSpec-p=str", "bennet_h-u=str", "TailEnvelope-v=str", "moment_bound_rhs-p=str",
    "check_psi_envelope-scale=str", "psi-t=array", "MomentSpec-p=array", "PlanRequest-eps=array",
    "bennet_h-u=True", "estimate_failure_prob-eps=True", "bounds_table-B=nan", "bounds_table-B=inf",
    "check_real-p=10**5000",
])
def test_non_real_argument_is_domain_error(call):
    """Each of these ended in a bare TypeError or ValueError, or was accepted."""
    with pytest.raises(DomainError):
        call()
