"""The .alg text format: one header line `kind arity dim scalar`, then one
entry per line `i1 i2 ... in -> k : value`, with an optional `metric` block
of `i j : value` lines.  Indices are 1-based; antisymmetric kinds accept only
strictly increasing index tuples, so files are canonical and diffable.
Multivector files reuse the same line shape with exponent vectors, which
hold no negative exponent, in place of the target index.

The header is checked against the kind: arity and dim are positive, `lie`
and `leibniz` have arity 2, `filippov` an arity of at least 2, `gla` an even
arity, and an antisymmetric kind has arity <= dim (otherwise no strictly
increasing index tuple exists).  A `gaussian` file may write metric values
over Q(i); its entry values must still be real.  A file holds at most one
`metric` block, and the block names each pair i <= j at most once; `emit`
writes only symmetric dim x dim metrics, so every metric reads back as
written.
A malformed line is a `ParseError` at its line and at the column of the
offending token (the first surplus token, or where a missing one belongs).

Integer tokens -- arity, dim, indices and exponents -- are ASCII digits
with an optional leading '-' (`INTEGER`), and scalar literals are ASCII
(`scalars.parse_scalar`): a digit separator (`0_1`), a '+' sign or a
non-ASCII digit (`١`, the fullwidth `１`), all of which `int` would read,
is refused at its column, and so is a non-ASCII space outside a comment
line (U+00A0, U+2003: `str.split` separators; `_ascii_spaces`).

`parse` reads a file in one pass: it splits each line once at its ':' and
'->' and reads the indices with `str.split` and `int`; columns are worked
out (`_column`) only for an error.  Each distinct scalar text is parsed once
per file and shared, as `Fraction`s are immutable.  A caller's cap on the
dimension (`check_dim`) runs on the header, before the body allocates a
metric block.  The structure-constant kinds build their `BracketTensor`
subclass through one path, chosen by the class's `kind`, and a multivector
component is one `Poly` of all its terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import lt

from .filippov import FilippovAlgebra
from .gla import GLAlgebra
from .lie import LieAlgebra
from .nary_cohomology import LeibnizAlgebra
from .poly import Poly
from .scalars import GaussianRational, format_scalar, parse_scalar
from .tensors import AntisymTensor, BracketTensor, FieldEq

# an integer token: arity, dim, an index or an exponent, in ASCII digits
INTEGER = re.compile(r"-?[0-9]+")
# the structure-constant kinds, each stored as a BracketTensor subclass
BRACKETS = {cls.kind: cls for cls in (LieAlgebra, GLAlgebra, FilippovAlgebra)}
KINDS = (*BRACKETS, "leibniz", "multivector")


class ParseError(ValueError):
    def __init__(self, line_no, col, message):
        super().__init__(f"line {line_no}, column {col}: {message}")
        self.line_no = line_no
        self.col = col


def _column(line, start, text="", k=0):
    """The column, in `line`, of the k-th whitespace-separated token of
    `text`, the piece of the stripped line at offset `start`; the column
    just past `text` when it has no k-th token.  Only errors ask for one."""
    tokens = [m.start() for m in re.finditer(r"\S+", text)]
    indent = len(line) - len(line.lstrip())
    return indent + start + (tokens[k] if k < len(tokens) else len(text)) + 1


def _ascii_spaces(line, no):
    """Refuse the first non-ASCII whitespace character of a non-ASCII line."""
    for col, ch in enumerate(line, 1):
        if ch.isspace() and not ch.isascii():
            raise ParseError(no, col, f"separators must be ASCII, got U+{ord(ch):04X}")


def _ints(text, what, error, start=0):
    """The integers of the tokens of `text`, the piece of the stripped line
    at offset `start`; a token outside `INTEGER` is an `error` at its
    column.  On ASCII text free of '_' and '+', `int` takes exactly the
    tokens of that form."""
    tokens = text.split()
    if text.isascii() and "_" not in text and "+" not in text:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    for k, tok in enumerate(tokens):
        if not INTEGER.fullmatch(tok):
            raise error(f"{what} must be integers, got {tok!r}", start, text, k)
    return list(map(int, tokens))


def _header(line):
    """(kind, arity, dim, scalar kind) of the header line, checked against
    each other."""
    if not line.isascii():
        _ascii_spaces(line, 1)
    head = line.split()
    if len(head) != 4:
        raise ParseError(1, 1, "header must be: kind arity dim scalar")

    def error(message, k):  # at the k-th token
        return ParseError(1, _column(line, 0, line.strip(), k), message)

    if head[0] not in KINDS:
        raise error(f"unknown kind {head[0]!r}", 0)
    for k in (1, 2):
        if not INTEGER.fullmatch(head[k]):
            raise error(f"arity and dim must be integers, got {head[k]!r}", k)
        head[k] = int(head[k])
    kind, arity, dim, scalar_kind = head
    if arity < 1:
        raise error(f"arity must be positive, got {arity}", 1)
    if dim < 1:
        raise error(f"dim must be positive, got {dim}", 2)
    if kind == "filippov" and arity < 2:
        raise error(f"filippov files need arity >= 2, got {arity}", 1)
    if kind in ("lie", "leibniz") and arity != 2:
        raise error(f"{kind} files have arity 2, got {arity}", 1)
    if kind == "gla" and arity % 2:
        raise error(f"gla files need an even arity, got {arity}", 1)
    if kind != "leibniz" and arity > dim:
        raise error(f"arity {arity} exceeds dim {dim}:"
                    " no strictly increasing index tuple exists", 1)
    if scalar_kind not in ("rational", "gaussian"):
        raise error(f"unknown scalar kind {scalar_kind!r}", 3)
    return kind, arity, dim, scalar_kind


class AlgebraFile(FieldEq):
    _fields = ("kind", "arity", "dim", "scalar_kind", "entries", "metric")

    def __init__(self, kind, arity, dim, scalar_kind="rational", entries=None, metric=None):
        self.kind, self.arity, self.dim, self.scalar_kind = kind, arity, dim, scalar_kind
        self.entries = [] if entries is None else entries  # (tuple, target, value)
        self.metric = metric

    # -- text round trip -----------------------------------------------------
    def emit(self) -> str:
        g, d = self.metric, self.dim
        if g is not None and (len(g) != d or any(len(row) != d for row in g)):
            raise ValueError(f"the metric must be {d} x {d}")
        if g is not None and any(g[i][j] != g[j][i] for i in range(d) for j in range(i)):
            raise ValueError("the metric must be symmetric")
        lines = [f"{self.kind} {self.arity} {d} {self.scalar_kind}"]
        for idx, target, value in sorted(self.entries):
            tgt = " ".join(map(str, target)) if isinstance(target, tuple) else target
            lines.append(f"{' '.join(map(str, idx))} -> {tgt} : {format_scalar(value)}")
        if g is not None:
            lines.append("metric")
            lines += [f"{i + 1} {j + 1} : {format_scalar(g[i][j])}"
                      for i in range(d) for j in range(i, d) if g[i][j] != 0]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str, check_dim=None) -> "AlgebraFile":
        """The file `text`; `check_dim(dim)`, when given, runs on the header
        before any line of the body is read."""
        lines = text.splitlines()
        if not lines:
            raise ParseError(1, 1, "empty file")
        kind, arity, dim, scalar_kind = _header(lines[0])
        if check_dim is not None:
            check_dim(dim)
        entries, metric = [], None
        seen, metric_pairs, values = set(), set(), {}

        def error(message, start=0, text="", k=0):  # at the current line
            return ParseError(no, _column(line, start, text, k), message)

        for no, line in enumerate(lines[1:], start=2):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            if not line.isascii():
                _ascii_spaces(line, no)
            if stripped == "metric":
                if metric is not None:
                    raise error("a second metric block")
                metric = [[Fraction(0)] * dim for _ in range(dim)]
                continue
            lhs, colon, val_s = stripped.rpartition(":")
            if not colon:
                raise error("missing ':' separator")
            value = values.get(val_s)
            if value is None:
                try:
                    value = parse_scalar(val_s)
                except (ValueError, ZeroDivisionError):
                    raise error(f"bad scalar {val_s.strip()!r}", len(lhs) + 1)
                if scalar_kind == "rational" and isinstance(value, GaussianRational):
                    raise error("gaussian literal in a rational file", len(lhs) + 1)
                values[val_s] = value
            if metric is not None:
                ij = _ints(lhs, "metric indices", error)
                if len(ij) != 2:
                    raise error("metric lines are `i j : value`", 0, lhs, 2)
                for k, i in enumerate(ij):
                    if not 1 <= i <= dim:
                        raise error(f"metric index {i} out of range", 0, lhs, k)
                i, j = ij
                pair = (min(i, j), max(i, j))
                if pair in metric_pairs:
                    raise error(f"duplicate metric entry for {pair}")
                metric_pairs.add(pair)
                metric[i - 1][j - 1] = metric[j - 1][i - 1] = value
                continue
            if isinstance(value, GaussianRational):
                if value.im:
                    raise error(f"entry values must be real, got {val_s.strip()!r}", len(lhs) + 1)
                value = value.re
            idx_s, arrow, tgt_s = lhs.partition("->")
            if not arrow:
                raise error("missing '->'")
            idx = _ints(idx_s, "indices", error)
            at = len(idx_s) + 2  # the offset of tgt_s
            target = _ints(tgt_s, "indices", error, at)
            if kind == "multivector":
                if len(target) != dim:
                    raise error(f"exponent vector must have {dim} entries", at, tgt_s, dim)
                if min(target) < 0:
                    k = next(k for k, t in enumerate(target) if t < 0)
                    raise error(f"negative exponent {target[k]}", at, tgt_s, k)
                target = tuple(target)
            else:
                if len(target) != 1:
                    raise error("exactly one target index", at, tgt_s, 1)
                (target,) = target
                if not 1 <= target <= dim:
                    raise error(f"target index {target} out of range", at, tgt_s)
            if len(idx) != arity:
                raise error(f"expected {arity} lower indices", 0, idx_s, arity)
            if min(idx) < 1 or max(idx) > dim:
                k = next(k for k, i in enumerate(idx) if not 1 <= i <= dim)
                raise error(f"lower index {idx[k]} out of range", 0, idx_s, k)
            idx = tuple(idx)
            if kind != "leibniz" and not all(map(lt, idx, idx[1:])):
                k = next(k for k in range(1, arity) if idx[k - 1] >= idx[k])
                raise error(f"indices must be strictly increasing, got {idx}", 0, idx_s, k)
            if (idx, target) in seen:
                raise error(f"duplicate entry for {idx} -> {target}")
            seen.add((idx, target))
            entries.append((idx, target, value))
        return cls(kind, arity, dim, scalar_kind, entries, metric)

    # -- object round trip ----------------------------------------------------
    def build(self):
        rows = {}  # index tuple -> {target or exponent vector: value}
        for idx, t, v in self.entries:
            rows.setdefault(idx, {})[t] = v
        cls = BRACKETS.get(self.kind)
        if cls is not None:
            obj = cls.from_table(self.arity, self.dim, rows)
            obj.metric = self.metric
            return obj
        if self.kind == "leibniz":
            return LeibnizAlgebra(self.dim, rows)
        if self.kind == "multivector":
            comps = {idx: Poly(self.dim, terms) for idx, terms in rows.items()}
            return AntisymTensor(self.arity, self.dim, comps, Poly.zero(self.dim))
        raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def from_object(cls, obj) -> "AlgebraFile":
        if isinstance(obj, BracketTensor):
            gaussian = obj.metric is not None and any(
                isinstance(v, GaussianRational) and v.im for row in obj.metric for v in row)
            return cls(obj.kind, obj.arity, obj.dim, "gaussian" if gaussian else "rational",
                       list(obj.entries()), obj.metric)
        if isinstance(obj, LeibnizAlgebra):
            return cls("leibniz", 2, obj.dim, entries=[
                (ij, k, v) for ij, row in obj.b.items() for k, v in row.items()])
        if isinstance(obj, AntisymTensor) and isinstance(obj.zero, Poly):
            return cls("multivector", obj.rank, obj.dim, entries=[
                (idx, exps, c) for idx, p in obj.entries.items()
                for exps, c in sorted(p.terms.items())])
        raise TypeError(f"cannot serialize {type(obj).__name__}")
