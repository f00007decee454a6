"""The .alg format and the structure-constant container behind it.

The pinned hashes were taken from the outputs of the code before the Lie,
GLA and Filippov algebras shared one `BracketTensor`; they hold the
generated and corrupted files byte for byte.
"""

import contextlib
import copy
import hashlib
import io
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dense_reference as dense
from naryalg import algfile, catalog, cli
from naryalg.algfile import AlgebraFile, ParseError
from naryalg.filippov import FilippovAlgebra
from naryalg.gla import GLAlgebra
from naryalg.lie import LieAlgebra, killing_form
from naryalg.poisson import bracket_multivector, lie_poisson_bivector, linear_gps_from_cocycle
from naryalg.poly import Poly
from naryalg.scalars import GaussianRational

GENERATED = {
    ("simple-fa", "--n", "3"):
        "f7b3bb04ddaa0496c7662bbb9a7031f9476d2930a743bc4bb6830c7f5cfc1e82",
    ("simple-fa", "--n", "4"):
        "17f4e523f8dbee4d673d756733d5d0b239e91ce9823807d091131f7f2d1cfff6",
    ("simple-fa", "--n", "5"):
        "2f2357da409a4c3f7d677cdc31617bef38649ca452605d503cfeeccd98eb4115",
    ("simple-fa", "--n", "3", "--signs=-+++"):
        "f1a10b181f4b0f8f0f5adc87faab5aafd3e4967ccf433f30e115aff7e42a4224",
    ("gla-from-su",):
        "6e3994d551a44f38211a2fe6ba38577e3090b0ac7c30d1755d50c434e59ebe56",
    ("heisenberg",):
        "d9639364896ec662795cfa48e71bfced0ed8bcf1f50a336ce308d8fb1afd0305",
    ("nhw", "--N", "1"):
        "612865f5c12bb3141e4f4b1d70f6d88b4cd90e0a6535ec709a934d9fa8d19534",
    ("nhw", "--N", "2"):
        "c93ab13dddcc826fb57190114c538191e1920b38992c8b9eb480db5bf2b5cbac",
    ("clifford", "--n", "3"):
        "f07aece862363413aa27c0b58775907746ee13005f4fc3be863565a61512e155",
    ("clifford", "--n", "4"):
        "aa29a5cf6c82dd44f0b1b0f8ef5e9d69f7364903def5a995589c7374f4a5efdd",
    ("clifford", "--n", "5"):
        "469a3146369d9499982d9588cce34244996db1776e0e0f8a9accbd6881a1dc78",
}

CORRUPTED = {
    "su3": (lambda: catalog.su(3),
            "76101d9166e0149bcdafea549b18aefd05dc6da8b28542d499903d28fb870d5c"),
    "a4": (catalog.a4,
           "bafd2e4a9bdfa387b3c2dc34e959c1518bbd91be6f9a1a953201dfc0eb24f1e3"),
    "a5": (catalog.a5,
           "5404b8f034c678ccbf4b5280f2019bc16d1299659f09e8f42f0de80c3269d657"),
    "su3-gla4": (catalog.su3_gla4,
                 "22f59c7b6fbea82c348857fffdd2229168fadc0afca8cea1e39862bfa83e0860"),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def generate(argv):
    """The file `naryalg generate <argv>` writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["generate", *argv]) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", sorted(GENERATED), ids=" ".join)
def test_generate_output_is_pinned(argv):
    assert sha256(generate(argv)) == GENERATED[argv]


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_corrupted_file_is_pinned(name):
    build, digest = CORRUPTED[name]
    assert sha256(AlgebraFile.from_object(catalog.corrupted(build())).emit()) == digest


# ---------------------------------------------------------------------------
# emit -> parse -> build -> from_object -> emit
# ---------------------------------------------------------------------------

SHAPES = [(LieAlgebra, 2, 2), (LieAlgebra, 2, 4), (GLAlgebra, 2, 3), (GLAlgebra, 4, 5),
          (FilippovAlgebra, 3, 4), (FilippovAlgebra, 4, 5), (FilippovAlgebra, 2, 3)]
values = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def make(cls, arity, dim, c, metric):
    obj = LieAlgebra(dim, c) if cls is LieAlgebra else cls(arity, dim, c)
    obj.metric = metric
    return obj


@st.composite
def bracket_tensors(draw):
    cls, arity, dim = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    c = {}
    for key in combinations(range(1, dim + 1), arity):
        if draw(st.booleans()):
            row = {j: draw(values) for j in range(1, dim + 1) if draw(st.booleans())}
            # any index order is accepted; the sign of the permutation applies
            shuffled = list(key)
            rng.shuffle(shuffled)
            sign = 1
            for a, b in combinations(shuffled, 2):
                sign = -sign if a > b else sign
            c[tuple(shuffled)] = {j: sign * v for j, v in row.items()}
    metric = None
    if draw(st.booleans()):
        metric = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                metric[i][j] = metric[j][i] = draw(values)
    return make(cls, arity, dim, c, metric)


@settings(max_examples=150, deadline=None)
@given(bracket_tensors())
def test_round_trip_is_byte_stable(obj):
    text = AlgebraFile.from_object(obj).emit()
    back = AlgebraFile.parse(text).build()
    assert type(back) is type(obj) and back == obj
    assert AlgebraFile.from_object(back).emit() == text


def test_gaussian_metric_writes_a_gaussian_file():
    # A4 with metric i * delta once got a `rational` header, and its own
    # output failed with "gaussian literal in a rational file"
    obj = catalog.a4()
    obj.metric = [[GaussianRational(0, int(i == j)) for j in range(4)] for i in range(4)]
    af = AlgebraFile.from_object(obj)
    assert af.scalar_kind == "gaussian"
    text = af.emit()
    assert text.startswith("filippov 3 4 gaussian\n")
    back = AlgebraFile.parse(text).build()
    assert back == obj and back.metric == obj.metric
    assert AlgebraFile.from_object(back).emit() == text
    obj.metric = [[GaussianRational(int(i == j)) for j in range(4)] for i in range(4)]
    assert AlgebraFile.from_object(obj).scalar_kind == "rational"


@pytest.mark.parametrize("metric,message", [
    ([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]], "symmetric"),
    ([[Fraction(1)]], "2 x 2"),
    ([[Fraction(1), Fraction(0)], [Fraction(0)]], "2 x 2"),
])
def test_emit_refuses_a_metric_it_cannot_write_back(metric, message):
    # an asymmetric metric was written as its upper triangle, a 1 x 1 one as
    # a 1 x 1 block: both read back as a different metric
    af = AlgebraFile("lie", 2, 2, entries=[((1, 2), 1, Fraction(1))], metric=metric)
    with pytest.raises(ValueError, match=message):
        af.emit()


# ---------------------------------------------------------------------------
# the one container: canonical keys, rejected tables
# ---------------------------------------------------------------------------

KINDS = [(LieAlgebra, 2, 3), (GLAlgebra, 2, 3), (GLAlgebra, 4, 5), (FilippovAlgebra, 3, 4)]


@pytest.mark.parametrize("cls,arity,dim", KINDS, ids=lambda x: getattr(x, "kind", x))
def test_unsorted_key_gets_its_sign(cls, arity, dim):
    key = tuple(range(1, arity + 1))
    swapped = (key[1], key[0]) + key[2:]
    obj = make(cls, arity, dim, {swapped: {dim: Fraction(3)}}, None)
    assert obj.c == {key: {dim: Fraction(-3)}}
    assert obj.row(swapped) == {dim: 3} and obj.row(key) == {dim: -3}
    assert obj.get(swapped, dim) == 3 and obj.get(key, 1) == 0
    assert list(obj.entries()) == [(key, dim, Fraction(-3))]


@pytest.mark.parametrize("cls,arity,dim", KINDS, ids=lambda x: getattr(x, "kind", x))
def test_nonzero_row_on_repeated_index_raises(cls, arity, dim):
    repeated = (1,) * arity
    assert make(cls, arity, dim, {repeated: {1: Fraction(0)}}, None).c == {}
    with pytest.raises(ValueError, match="repeated lower indices"):
        make(cls, arity, dim, {repeated: {1: Fraction(1)}}, None)


@pytest.mark.parametrize("cls,arity,dim", KINDS, ids=lambda x: getattr(x, "kind", x))
def test_inconsistent_duplicates_raise(cls, arity, dim):
    key = tuple(range(1, arity + 1))
    swapped = (key[1], key[0]) + key[2:]
    consistent = make(cls, arity, dim, {key: {1: Fraction(2)}, swapped: {1: Fraction(-2)}},
                      None)
    assert consistent.c == {key: {1: Fraction(2)}}
    with pytest.raises(ValueError, match="inconsistent antisymmetry"):
        make(cls, arity, dim, {key: {1: Fraction(2)}, swapped: {1: Fraction(2)}}, None)


def test_lie_pair_reads_agree_with_the_shared_read():
    alg = catalog.su(3)
    for i in range(1, 9):
        for j in range(1, 9):
            assert alg.c_row(i, j) == alg.row((i, j))
            assert all(alg.c_get(i, j, k) == alg.get((i, j), k) for k in range(1, 9))


@pytest.mark.parametrize("build", [lambda: catalog.su(2), catalog.su3_gla4, catalog.a4],
                         ids=["lie", "gla", "filippov"])
def test_linear_multivector_carries_the_structure_constants(build):
    obj = build()
    lam = bracket_multivector(obj)
    assert lam.rank == obj.arity and lam.dim == obj.dim
    assert set(lam.entries) == set(obj.c)
    for idx, k, v in obj.entries():
        assert lam.entries[idx].diff(k) == Poly.const(obj.dim, v)


def test_only_poly_valued_tensors_are_multivector_files():
    lam = bracket_multivector(catalog.su(3))
    back = AlgebraFile.parse(AlgebraFile.from_object(lam).emit()).build()
    assert back == lam and back.zero == Poly.zero(8)
    with pytest.raises(TypeError):
        AlgebraFile.from_object(catalog.su3_three_cocycle())


# ---------------------------------------------------------------------------
# the one-pass reader against the reader with a regex match per token
# ---------------------------------------------------------------------------

def with_metric(obj, metric):
    """A copy of obj with the metric; the catalog shares su(n) objects."""
    obj = copy.copy(obj)
    obj.metric = metric
    return obj


def checks_files():
    """The text of every file the benchmark's checks workload reads: the
    catalog algebras, their corrupted copies, two metric files, two
    multivector fields and the two generated Filippov algebras."""
    su3, a13 = catalog.su(3), catalog.a13()
    objs = {"su3": su3, "heisenberg": catalog.heisenberg(), "a4": catalog.a4(), "a13": a13,
            "a5": catalog.a5(), "nhw2": catalog.nhw(2), "su3-gla4": catalog.su3_gla4(),
            "nilpotent-leibniz": catalog.nilpotent_leibniz()}
    texts = {name: AlgebraFile.from_object(obj).emit() for name, obj in objs.items()}
    for name in ("su3", "a4", "a5", "su3-gla4"):
        texts[f"corrupted-{name}"] = AlgebraFile.from_object(catalog.corrupted(objs[name])).emit()
    af = AlgebraFile.from_object(su3)
    af.metric = killing_form(su3)
    texts["su3-killing"] = af.emit()
    af = AlgebraFile.from_object(a13)
    af.metric = [[Fraction(s if i == j else 0) for j in range(4)]
                 for i, s in enumerate((-1, 1, 1, 1))]
    texts["a13-signature"] = af.emit()
    texts["lie-su3"] = AlgebraFile.from_object(lie_poisson_bivector(su3)).emit()
    texts["lin4-su3"] = AlgebraFile.from_object(
        linear_gps_from_cocycle(su3, catalog.su3_five_cocycle())).emit()
    for argv in (("clifford", "--n", "5"), ("simple-fa", "--n", "5")):
        texts[" ".join(argv)] = generate(argv)
    return texts


def test_clean_files_take_the_fast_path(monkeypatch):
    # no column is worked out and each distinct scalar text is parsed once
    # per file, on every file the checks workload reads and every catalog
    # file; equal to the reference reader on each
    texts = {**checks_files(), **{" ".join(argv): generate(argv) for argv in GENERATED}}
    columns, scalars = [], []
    right_column, right_scalar = algfile._column, algfile.parse_scalar
    monkeypatch.setattr(algfile, "_column", lambda *a: columns.append(a) or right_column(*a))
    monkeypatch.setattr(algfile, "parse_scalar", lambda s: scalars.append(s) or right_scalar(s))
    for name, text in texts.items():
        scalars.clear()
        af = AlgebraFile.parse(text)
        assert repr(af) == repr(dense.parse_alg(text)), name
        assert len(scalars) == len(set(scalars)) == len({ln.rpartition(":")[2]
                                                         for ln in text.splitlines()[1:]
                                                         if ":" in ln}), name
    assert columns == []
    assert len(texts) == 18 + 11 - 3  # heisenberg and the two n = 5 files are in both


FUZZ_SOURCES = [
    AlgebraFile.from_object(obj).emit()
    for obj in (catalog.su(2), catalog.heisenberg(), catalog.a4(), catalog.nhw(1),
                catalog.nilpotent_leibniz(), lie_poisson_bivector(catalog.su(2)),
                bracket_multivector(catalog.a4()),
                with_metric(catalog.su(2), killing_form(catalog.su(2))),
                with_metric(catalog.a13(), [[GaussianRational(int(i == j), int(i + j == 3))
                                             for j in range(4)] for i in range(4)]))
] + [AlgebraFile.from_object(catalog.corrupted(catalog.a4())).emit()]
INSERTS = [" ", "  ", "\t", ":", "->", "#", "-", "/", "i", "0", "9", "x", "metric", "1/0",
           "\u00a0", "\u2003"]


@st.composite
def mutated_files(draw):
    """A catalog file with a few of its tokens swapped, deleted, duplicated
    or changed, separators, spaces and comment marks put in, lines dropped
    or repeated, and metric lines added."""
    lines = draw(st.sampled_from(FUZZ_SOURCES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        no = draw(st.integers(0, len(lines) - 1))
        line = lines[no]
        spans = [m.span() for m in re.finditer(r"\S+", line)]
        op = draw(st.sampled_from(["swap", "delete", "duplicate", "digit", "insert",
                                   "metric", "drop", "repeat"]))
        if op in ("swap", "delete", "duplicate") and spans:
            a, b = sorted(draw(st.lists(st.sampled_from(spans), min_size=2, max_size=2)))
            tok_a, tok_b = line[a[0]:a[1]], line[b[0]:b[1]]
            if op == "swap" and a != b:
                line = line[:a[0]] + tok_b + line[a[1]:b[0]] + tok_a + line[b[1]:]
            elif op == "delete":
                line = line[:a[0]] + line[a[1]:]
            else:
                line = line[:a[1]] + " " + tok_a + line[a[1]:]
        elif op == "digit":
            digits = [k for k, c in enumerate(line) if c.isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                line = line[:k] + draw(st.sampled_from([*"0123456789-+/xi", "-1"])) + line[k + 1:]
        elif op == "insert":
            k = draw(st.integers(0, len(line)))
            line = line[:k] + draw(st.sampled_from(INSERTS)) + line[k:]
        elif op == "metric":
            lines.insert(no + 1, draw(st.sampled_from(
                ["metric", "1 1 : 1", "  2 1 : -1/2", "1 2 : 1+1i", "3 3 3 : 1", "1 : 2"])))
        elif op == "drop" and no:
            del lines[no]
            continue
        elif op == "repeat":
            lines.insert(no, line)
        lines[no] = line
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    try:
        return repr(parse(text))
    except ParseError as exc:
        return exc.line_no, exc.col, str(exc)


@settings(max_examples=400, deadline=None)
@given(mutated_files())
def test_the_reader_agrees_with_the_reference_on_mutated_files(text):
    assert outcome(AlgebraFile.parse, text) == outcome(dense.parse_alg, text)


# ---------------------------------------------------------------------------
# the CLI on mutated files: an exit code, never a traceback
# ---------------------------------------------------------------------------

def run_cli(argv):
    """(exit code, stderr) of one `cli.main` call, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_files(), st.sampled_from(["ce", "trivial", "module", "deformation"]))
def test_the_cli_ends_every_mutated_file_in_an_exit_code(tmp_path, text, complex_kind):
    path = tmp_path / "mutated.alg"
    path.write_text(text, encoding="utf-8")
    parsed = outcome(dense.parse_alg, text)
    for argv in (["check", str(path), "--suite", "all"],
                 ["cohomology", str(path), "--pmax", "1", "--complex", complex_kind]):
        code, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        if isinstance(parsed, tuple):  # a parse error: exit 2 at its line and column,
            line_no, col, _ = parsed   # unless the header's dim is above the cap
            assert code == 2, argv
            assert f"line {line_no}, column {col}" in err or "above the cap" in err, argv


# ---------------------------------------------------------------------------
# integer tokens are ASCII digits with an optional '-', scalars are ASCII
# ---------------------------------------------------------------------------

REFUSED_TOKENS = {
    "separator": ("lie 2 3 rational\n1 0_2 -> 3 : 1\n",
                  "line 2, column 3: indices must be integers, got '0_2'"),
    "arabic-indic": ("lie 2 3 rational\n1 ٢ -> 3 : 1\n",
                     "line 2, column 3: indices must be integers, got '٢'"),
    "plus": ("lie 2 3 rational\n1 +2 -> 3 : 1\n",
             "line 2, column 3: indices must be integers, got '+2'"),
    "fullwidth-target": ("lie 2 3 rational\n1 2 -> ３ : 1\n",
                         "line 2, column 8: indices must be integers, got '３'"),
    "exponent": ("multivector 2 3 rational\n1 2 -> 0 ０ 1 : 1\n",
                 "line 2, column 10: indices must be integers, got '０'"),
    "metric-index": ("lie 2 3 rational\nmetric\n1 ١ : 1\n",
                     "line 3, column 3: metric indices must be integers, got '١'"),
    "arity": ("lie ２ 3 rational\n", "line 1, column 5: arity and dim must be integers, got '２'"),
    "dim": ("lie 2 1_0 rational\n", "line 1, column 7: arity and dim must be integers, got '1_0'"),
    "scalar": ("lie 2 3 rational\n1 2 -> 3 : ١\n", "line 2, column 11: bad scalar '١'"),
    "fullwidth-scalar": ("lie 2 3 rational\n1 2 -> 3 : １/2\n",
                         "line 2, column 11: bad scalar '１/2'"),
    "gaussian-scalar": ("lie 2 3 gaussian\n1 2 -> 3 : 1+١i\n",
                        "line 2, column 11: bad scalar '1+١i'"),
}


def assert_refused(name, text, message, tmp_path):
    """The reader, its reference and `naryalg check` refuse text with message."""
    with pytest.raises(ParseError) as exc:
        AlgebraFile.parse(text)
    assert str(exc.value) == message
    assert outcome(dense.parse_alg, text) == outcome(AlgebraFile.parse, text)
    path = tmp_path / f"{name}.alg"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["check", str(path)]) == 2
    assert err.getvalue() == f"input error: {message}\n"


@pytest.mark.parametrize("name", list(REFUSED_TOKENS))
def test_a_token_outside_ascii_digits_is_refused_at_its_column(name, tmp_path):
    # int() and Fraction() read every one of these tokens as a number
    assert_refused(name, *REFUSED_TOKENS[name], tmp_path)


REFUSED_SEPARATORS = {
    "nbsp": ("lie 2 3 rational\n1 2\u00a0-> 3 : 1\n",
             "line 2, column 4: separators must be ASCII, got U+00A0"),
    "em-space": ("lie 2 3 rational\n1\u20032 -> 3 : 1\n",
                 "line 2, column 2: separators must be ASCII, got U+2003"),
    "header": ("lie\u00a02 3 rational\n", "line 1, column 4: separators must be ASCII, got U+00A0"),
    "indent": ("lie 2 3 rational\nmetric\n\u20031 1 : 1\n",
               "line 3, column 1: separators must be ASCII, got U+2003"),
    "around-the-value": ("lie 2 3 rational\n1 2 -> 3 :\u00a01\n",
                         "line 2, column 11: separators must be ASCII, got U+00A0"),
    "after-a-bad-token": ("lie 2 3 rational\n1 x -> 3 : 1\u00a0\n",
                          "line 2, column 13: separators must be ASCII, got U+00A0"),
}


@pytest.mark.parametrize("name", list(REFUSED_SEPARATORS))
def test_a_non_ascii_separator_is_refused_at_its_column(name, tmp_path):
    # str.split() reads these as separators: such a file once loaded as if
    # it were written with ASCII spaces
    assert_refused(name, *REFUSED_SEPARATORS[name], tmp_path)


def test_comment_and_blank_lines_keep_any_character():
    text = "lie 2 3 rational\n# a comment\u00a0with\u2003spaces\n\u00a0\n1 2 -> 3 : 1\n"
    assert AlgebraFile.parse(text) == dense.parse_alg(text) == AlgebraFile.parse(
        "lie 2 3 rational\n1 2 -> 3 : 1\n")
