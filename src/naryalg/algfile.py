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
The structure-constant kinds build their `BracketTensor` subclass through
one path, chosen by the class's `kind`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .filippov import FilippovAlgebra
from .gla import GLAlgebra
from .lie import LieAlgebra
from .nary_cohomology import LeibnizAlgebra
from .poly import Poly
from .scalars import GaussianRational, format_scalar, parse_scalar
from .tensors import AntisymTensor, BracketTensor

# the structure-constant kinds, each stored as a BracketTensor subclass
BRACKETS = {cls.kind: cls for cls in (LieAlgebra, GLAlgebra, FilippovAlgebra)}
KINDS = (*BRACKETS, "leibniz", "multivector")


class ParseError(ValueError):
    def __init__(self, line_no, col, message):
        super().__init__(f"line {line_no}, column {col}: {message}")
        self.line_no = line_no
        self.col = col


def _int_tokens(text, line_no, col0, what):
    """(column, integer) for each whitespace-separated token of `text`, which
    starts at column col0 of line line_no; a token that is not an integer is
    a ParseError at its own column."""
    out = []
    for m in re.finditer(r"\S+", text):
        try:
            out.append((col0 + m.start(), int(m.group())))
        except ValueError:
            raise ParseError(line_no, col0 + m.start(),
                             f"{what} must be integers, got {m.group()!r}") from None
    return out


def _count_error(line_no, tokens, want, end_col, message):
    """A ParseError for a token list whose length is not `want`: at the first
    surplus token, or at `end_col` (where the list ends) when one is missing."""
    col = tokens[want][0] if len(tokens) > want else end_col
    return ParseError(line_no, col, message)


@dataclass
class AlgebraFile:
    kind: str
    arity: int
    dim: int
    scalar_kind: str = "rational"
    entries: list = field(default_factory=list)  # (tuple, target, value)
    metric: list | None = None

    # -- text round trip -----------------------------------------------------
    def emit(self) -> str:
        if self.metric is not None:
            d = self.dim
            if len(self.metric) != d or any(len(row) != d for row in self.metric):
                raise ValueError(f"the metric must be {d} x {d}")
            if any(self.metric[i][j] != self.metric[j][i] for i in range(d) for j in range(i)):
                raise ValueError("the metric must be symmetric")
        lines = [f"{self.kind} {self.arity} {self.dim} {self.scalar_kind}"]
        for idx, target, value in sorted(self.entries):
            head = " ".join(str(i) for i in idx)
            tgt = " ".join(str(t) for t in target) if isinstance(target, tuple) \
                else str(target)
            lines.append(f"{head} -> {tgt} : {format_scalar(value)}")
        if self.metric is not None:
            lines.append("metric")
            d = len(self.metric)
            for i in range(d):
                for j in range(i, d):
                    if self.metric[i][j] != 0:
                        lines.append(f"{i + 1} {j + 1} : {format_scalar(self.metric[i][j])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "AlgebraFile":
        lines = text.splitlines()
        if not lines:
            raise ParseError(1, 1, "empty file")
        head = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", lines[0])]
        if len(head) != 4:
            raise ParseError(1, 1, "header must be: kind arity dim scalar")
        (kind_col, kind), (arity_col, arity_s), (dim_col, dim_s), (scalar_col, scalar_kind) = head
        if kind not in KINDS:
            raise ParseError(1, kind_col, f"unknown kind {kind!r}")
        ((_, arity),) = _int_tokens(arity_s, 1, arity_col, "arity and dim")
        ((_, dim),) = _int_tokens(dim_s, 1, dim_col, "arity and dim")
        if arity < 1:
            raise ParseError(1, arity_col, f"arity must be positive, got {arity}")
        if dim < 1:
            raise ParseError(1, dim_col, f"dim must be positive, got {dim}")
        if kind == "filippov" and arity < 2:
            raise ParseError(1, arity_col, f"filippov files need arity >= 2, got {arity}")
        if kind in ("lie", "leibniz") and arity != 2:
            raise ParseError(1, arity_col, f"{kind} files have arity 2, got {arity}")
        if kind == "gla" and arity % 2:
            raise ParseError(1, arity_col, f"gla files need an even arity, got {arity}")
        if kind != "leibniz" and arity > dim:
            raise ParseError(1, arity_col, f"arity {arity} exceeds dim {dim}:"
                             " no strictly increasing index tuple exists")
        if scalar_kind not in ("rational", "gaussian"):
            raise ParseError(1, scalar_col, f"unknown scalar kind {scalar_kind!r}")
        out = cls(kind, arity, dim, scalar_kind)
        in_metric = False
        metric = None
        seen = set()
        metric_pairs = set()
        for no, line in enumerate(lines[1:], start=2):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            col0 = len(line) - len(line.lstrip()) + 1  # column of stripped[0]
            if stripped == "metric":
                if in_metric:
                    raise ParseError(no, col0, "a second metric block")
                in_metric = True
                metric = [[Fraction(0)] * dim for _ in range(dim)]
                continue
            if ":" not in stripped:
                raise ParseError(no, col0, "missing ':' separator")
            lhs, _, val_s = stripped.rpartition(":")
            colon_col = col0 + len(lhs)
            try:
                value = parse_scalar(val_s)
            except (ValueError, ZeroDivisionError):
                raise ParseError(no, colon_col + 1, f"bad scalar {val_s.strip()!r}")
            if scalar_kind == "rational" and isinstance(value, GaussianRational):
                raise ParseError(no, colon_col + 1, "gaussian literal in a rational file")
            if in_metric:
                parts = _int_tokens(lhs, no, col0, "metric indices")
                if len(parts) != 2:
                    raise _count_error(no, parts, 2, colon_col,
                                       "metric lines are `i j : value`")
                for col, i in parts:
                    if not 1 <= i <= dim:
                        raise ParseError(no, col, f"metric index {i} out of range")
                (_, i), (_, j) = parts
                pair = (min(i, j), max(i, j))
                if pair in metric_pairs:
                    raise ParseError(no, col0, f"duplicate metric entry for {pair}")
                metric_pairs.add(pair)
                metric[i - 1][j - 1] = value
                metric[j - 1][i - 1] = value
                continue
            if isinstance(value, GaussianRational):
                if value.im:
                    raise ParseError(no, colon_col + 1,
                                     f"entry values must be real, got {val_s.strip()!r}")
                value = value.re
            if "->" not in lhs:
                raise ParseError(no, col0, "missing '->'")
            idx_s, _, tgt_s = lhs.partition("->")
            arrow_col = col0 + len(idx_s)
            idx_tokens = _int_tokens(idx_s, no, col0, "indices")
            tgt_tokens = _int_tokens(tgt_s, no, arrow_col + 2, "indices")
            if kind == "multivector":
                if len(tgt_tokens) != dim:
                    raise _count_error(no, tgt_tokens, dim, colon_col,
                                       f"exponent vector must have {dim} entries")
                if neg := next(((col, t) for col, t in tgt_tokens if t < 0), None):
                    raise ParseError(no, neg[0], f"negative exponent {neg[1]}")
                target = tuple(t for _, t in tgt_tokens)
            else:
                if len(tgt_tokens) != 1:
                    raise _count_error(no, tgt_tokens, 1, colon_col,
                                       "exactly one target index")
                ((tgt_col, target),) = tgt_tokens
                if not 1 <= target <= dim:
                    raise ParseError(no, tgt_col, f"target index {target} out of range")
            if len(idx_tokens) != arity:
                raise _count_error(no, idx_tokens, arity, arrow_col,
                                   f"expected {arity} lower indices")
            for col, i in idx_tokens:
                if not 1 <= i <= dim:
                    raise ParseError(no, col, f"lower index {i} out of range")
            idx = tuple(i for _, i in idx_tokens)
            if kind != "leibniz":
                for (_, a), (col, b) in zip(idx_tokens, idx_tokens[1:]):
                    if a >= b:
                        raise ParseError(no, col,
                                         f"indices must be strictly increasing, got {idx}")
            key = (idx, target)
            if key in seen:
                raise ParseError(no, col0, f"duplicate entry for {idx} -> {target}")
            seen.add(key)
            out.entries.append((idx, target, value))
        out.metric = metric
        return out

    # -- object round trip ----------------------------------------------------
    def build(self):
        cls = BRACKETS.get(self.kind)
        if cls is not None:
            c = {}
            for idx, t, v in self.entries:
                c.setdefault(idx, {})[t] = v
            obj = cls.from_table(self.arity, self.dim, c)
            obj.metric = self.metric
            return obj
        if self.kind == "leibniz":
            b = {}
            for idx, t, v in self.entries:
                b.setdefault(idx, {})[t] = v
            return LeibnizAlgebra(self.dim, b)
        if self.kind == "multivector":
            comps = {}
            for idx, exps, v in self.entries:
                p = comps.get(idx, Poly.zero(self.dim))
                comps[idx] = p + Poly(self.dim, {tuple(exps): v})
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
            out = cls("leibniz", 2, obj.dim)
            for (i, j), row in obj.b.items():
                for k, v in row.items():
                    out.entries.append(((i, j), k, v))
            return out
        if isinstance(obj, AntisymTensor) and isinstance(obj.zero, Poly):
            out = cls("multivector", obj.rank, obj.dim)
            for idx, p in obj.entries.items():
                for exps, c in sorted(p.terms.items()):
                    out.entries.append((idx, exps, c))
            return out
        raise TypeError(f"cannot serialize {type(obj).__name__}")
