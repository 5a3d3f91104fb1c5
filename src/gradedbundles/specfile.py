"""Line-oriented declarative spec files for the command-line front end.

A document is a sequence of sections; each section holds ``key = value``
entries.  Polynomial expressions use declared variable names, rational
literals and the operators + - * ^ with parentheses.  The full grammar:

    file        = { line } ;
    line        = blank | comment | header | entry ;
    comment     = "#" , text ;
    header      = "[" , word , { word } , "]" ;
    entry       = key , "=" , value ;
    key         = word , { word } ;
    value       = weightspec | expression        (* by section kind *)
    weightspec  = "weight" , (integer | tuple) , [ "odd" | "even" ] ;
    tuple       = "(" , integer , { "," , integer } , ")" ;
    expression  = term , { ("+" | "-") , term } ;
    term        = factor , { "*" , factor } ;
    factor      = atom , [ "^" , natural ] ;
    atom        = rational | identifier | "(" , expression , ")"
                | "-" , factor ;
    rational    = integer , [ "/" , natural ] ;

An exponent may not exceed ``MAX_EXPONENT``, parentheses and unary minus
signs may not nest deeper than ``MAX_NESTING``, and no product or power may
be able to produce more than ``MAX_TERMS`` terms.  The limits sit far above
anything a hand-written spec needs; the first bounds the degree a single
``^`` can build, the second keeps a deeply nested expression from
exhausting the interpreter's stack, and the third bounds the size of every
intermediate polynomial, so the time to parse grows with the length of an
expression rather than with the polynomials it describes.  A ``[structure]``
section's ``dim`` and ``k`` may not exceed ``MAX_DIM`` and ``MAX_K``, which
bound the size of the charts a construction builds from it.

Each section's entry keys take one of the shapes below (``_SECTION_KEYS``
and ``_STRUCTURE_KEYS``): a first word, then one word per placeholder;
NAME is any one word.  A key appears at most once in a section, and a
document has at most one ``[bundle]`` and one ``[structure]`` section, one
chart of a name and one map of a pair of charts.  ``parse`` rejects any
other header or key, and any repeat, with a ``SpecSyntaxError`` at its line.

    [bundle]                        arity, degree
    [chart NAME]                    NAME = weightspec, per coordinate
    [map SRC -> DST]                NAME = expression, per DST coordinate
    [section NAME]                  Y a, Z a r
    [structure lie-tower]           k, dim, c i j k
    [structure cotangent-linear]    k, dim, c i j k
    [structure tk]                  k, dim, forward i, inverse i
    [structure prolong]             k, base, fiber, anchor f x, bracket a b c
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .superalg import EVEN, ODD, SuperPolynomial, Variable
from .bundle import CoordinateSystem, GradedBundle, single_chart_bundle, two_chart_bundle


class SpecError(ValueError):
    """Parse-level failure with a location."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = f" at line {line}" if line is not None else ""
        where += f", column {col}" if col is not None else ""
        super().__init__(message + where)


class SpecSyntaxError(SpecError):
    pass


class UnknownVariableError(SpecError):
    pass


class WeightArityMismatchError(SpecError):
    pass


class Entry:
    def __init__(self, key: tuple[str, ...], value: str, line: int, col: int):
        self.key = key
        self.value = value
        self.line = line
        self.col = col


class Section:
    def __init__(self, kind: str, args: tuple[str, ...], entries: list[Entry] | None = None,
                 line: int = 0):
        self.kind = kind
        self.args = args
        self.entries = [] if entries is None else entries
        self.line = line


class SpecDocument:
    def __init__(self, sections: list[Section]):
        self.sections = sections

    def first(self, kind: str) -> Section | None:
        for s in self.sections:
            if s.kind == kind:
                return s
        return None

    def all(self, kind: str) -> list[Section]:
        return [s for s in self.sections if s.kind == kind]

    def render(self) -> str:
        lines = []
        for s in self.sections:
            head = " ".join((s.kind,) + s.args)
            lines.append(f"[{head}]")
            for e in s.entries:
                lines.append(f"{' '.join(e.key)} = {e.value.strip()}")
            lines.append("")
        return "\n".join(lines)


_HEADER_RE = re.compile(r"^\[(?P<body>[^]]*)\]\s*$")


def parse(text: str) -> SpecDocument:
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _HEADER_RE.match(line.strip())
        if m:
            words = m.group("body").split()
            if not words:
                raise SpecSyntaxError("empty section header", lineno, 1)
            current = Section(words[0], tuple(words[1:]), line=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise SpecSyntaxError("expected 'key = value'", lineno, 1)
        if current is None:
            raise SpecSyntaxError("entry outside any section", lineno, 1)
        key_text, value = line.split("=", 1)
        key = tuple(key_text.split())
        if not key:
            raise SpecSyntaxError("empty key", lineno, 1)
        col = raw.index("=") + 2
        current.entries.append(Entry(key, value.strip(), lineno, col))
    _check_known(sections)
    return SpecDocument(sections)


# Section kind -> the shapes of its entry keys: a first word, then a
# placeholder for each word that follows it; NAME stands for any one word.
# [structure KIND] sections take the shapes of their kind.
_SECTION_KEYS = {
    "bundle": ("arity", "degree"),
    "chart": ("NAME",),
    "map": ("NAME",),
    "section": ("Y a", "Z a r"),
}
_STRUCTURE_KEYS = {
    "lie-tower": ("k", "dim", "c i j k"),
    "cotangent-linear": ("k", "dim", "c i j k"),
    "tk": ("k", "dim", "forward i", "inverse i"),
    "prolong": ("k", "base", "fiber", "anchor f x", "bracket a b c"),
}
_STRUCTURE_KINDS = set(_STRUCTURE_KEYS)
# Section kind -> how many of its header's words name one section, which a
# document may hold once.
_ONCE = {"bundle": 0, "structure": 0, "chart": 1, "map": 3}


def _check_known(sections):
    """Check each section's header, and each entry's key against its shapes;
    reject a repeated key in a section and a repeated section."""
    seen_sections = set()
    for s in sections:
        if s.kind not in _SECTION_KEYS and s.kind != "structure":
            raise SpecSyntaxError(f"unknown section kind {s.kind!r}", s.line, 1)
        if s.kind == "bundle" and s.args:
            raise SpecSyntaxError("[bundle] headers take no name", s.line, 1)
        if s.kind in ("chart", "section") and len(s.args) != 1:
            raise SpecSyntaxError(f"[{s.kind} NAME] headers need exactly one name", s.line, 1)
        if s.kind == "map" and (len(s.args) != 3 or s.args[1] != "->"):
            raise SpecSyntaxError("map sections are '[map SRC -> DST]'", s.line, 1)
        if s.kind == "structure" and (len(s.args) != 1 or s.args[0] not in _STRUCTURE_KINDS):
            raise SpecSyntaxError(
                f"structure kind must be one of {sorted(_STRUCTURE_KINDS)}", s.line, 1)
        if s.kind in _ONCE:
            name = " ".join((s.kind, *s.args[:_ONCE[s.kind]]))
            if name in seen_sections:
                raise SpecSyntaxError(f"duplicate {name} section", s.line, 1)
            seen_sections.add(name)
        kind, table = ((s.args[0], _STRUCTURE_KEYS) if s.kind == "structure"
                       else (s.kind, _SECTION_KEYS))
        shapes = {p.split()[0]: p for p in table[kind]}
        header = " ".join((s.kind, *s.args))
        seen = set()
        for e in s.entries:
            key = " ".join(e.key)
            shape = shapes.get(e.key[0], shapes.get("NAME"))
            if shape is None:
                raise SpecSyntaxError(
                    f"unknown {kind} entry {key!r}, not one of {sorted(shapes)}", e.line, 1)
            if len(e.key) != len(shape.split()):
                raise SpecSyntaxError(f"entry {key!r} in {header} should read {shape!r}",
                                      e.line, 1)
            if e.key in seen:
                raise SpecSyntaxError(f"duplicate entry {key!r} in {header}", e.line, 1)
            seen.add(e.key)


# ------------------------------------------------------------- expressions
# Largest exponent accepted after ``^``; shipped specs use at most 3.
MAX_EXPONENT = 16
# Deepest nesting of parentheses and unary minus signs in one expression.
MAX_NESTING = 100
# Most terms a product or power may be able to produce: t1*t2 for a product
# of t1 and t2 terms, C(t+n-1, n) for the n-th power of t terms.  No product
# or power in the shipped or benchmark-generated specs exceeds 2.
MAX_TERMS = 1_000
# Largest ``dim`` and ``k`` a [structure] section may declare; shipped and
# benchmark specs use dim <= 4 and k <= 3.  The costliest spec measured at
# both bounds, a tk structure of 32 coordinates paired as x + y^16 at k = 6,
# takes about 0.2 s and 22 MB to construct, process start included, on a
# 2-core x86-64 machine; past the bounds the same spec at k = 8 takes 0.3 s
# and 30 MB, and 4 such coordinates at k = 16 take 0.2 s and 25 MB.
MAX_DIM = 32
MAX_K = 6

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str, line: int, col0: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise SpecSyntaxError(
                f"cannot read expression near {text[pos:pos + 10]!r}",
                line, col0 + pos,
            )
        pos = m.end()
        kind = m.lastgroup
        if kind == "num":
            try:
                int(m.group(kind))
            except ValueError:  # more digits than int() accepts
                raise SpecSyntaxError("numeral is too long", line,
                                      col0 + m.start(kind)) from None
        tokens.append((kind, m.group(kind), col0 + m.start(kind)))
    tokens.append(("end", "", col0 + len(text)))
    return tokens


class _ExprParser:
    def __init__(self, tokens, names, line):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.line = line
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.take()
        if kind != "op" or val != op:
            raise SpecSyntaxError(f"expected {op!r}", self.line, col)

    def parse(self) -> SuperPolynomial:
        value = self.expression()
        kind, val, col = self.peek()
        if kind != "end":
            raise SpecSyntaxError(f"unexpected {val!r}", self.line, col)
        return value

    def expression(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            value = self.term()
            if val == "-":
                value = -value
        else:
            value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def bounded(self, bound, col):
        """Reject an operation that may produce more than ``MAX_TERMS`` terms."""
        if bound > MAX_TERMS:
            raise SpecSyntaxError(
                f"expression may grow to more than {MAX_TERMS} terms", self.line, col
            )

    def term(self):
        value = self.factor()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.factor()
                self.bounded(value.term_count() * rhs.term_count(), col)
                value = value * rhs
            else:
                return value

    def factor(self):
        value = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, num, col = self.take()
            if kind != "num":
                raise SpecSyntaxError("exponent must be a natural number",
                                      self.line, col)
            if int(num) > MAX_EXPONENT:
                raise SpecSyntaxError(
                    f"exponent {num} exceeds the limit of {MAX_EXPONENT}",
                    self.line, col,
                )
            n = int(num)
            self.bounded(math.comb(max(value.term_count(), 1) + n - 1, n), col)
            value = value ** n
        return value

    def nested(self, parse, col):
        """Run ``parse`` one nesting level deeper, within ``MAX_NESTING``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SpecSyntaxError(
                f"expression nests deeper than {MAX_NESTING} levels",
                self.line, col,
            )
        value = parse()
        self.depth -= 1
        return value

    def atom(self):
        kind, val, col = self.take()
        if kind == "num":
            numer = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                kind3, val3, col3 = self.take()
                if kind3 != "num" or int(val3) == 0:
                    raise SpecSyntaxError("bad rational literal", self.line, col3)
                return SuperPolynomial.constant(Fraction(numer, int(val3)))
            return SuperPolynomial.constant(numer)
        if kind == "name":
            if val not in self.names:
                raise UnknownVariableError(
                    f"undeclared variable {val!r}", self.line, col
                )
            return SuperPolynomial.from_var(self.names[val])
        if kind == "op" and val == "(":
            value = self.nested(self.expression, col)
            self.expect_op(")")
            return value
        if kind == "op" and val == "-":
            return -self.nested(self.factor, col)
        raise SpecSyntaxError(f"unexpected {val!r}", self.line, col)


def parse_expression(text: str, names: CoordinateSystem | dict[str, Variable],
                     line: int = 0, col: int = 1) -> SuperPolynomial:
    """``text`` as a polynomial in the variables that ``names`` holds by name."""
    return _ExprParser(_tokenize(text, line, col), names, line).parse()


# --------------------------------------------------------------- weights
# numerals are ASCII digits, read by plain_int
_WEIGHT_RE = re.compile(
    r"^weight\s+(?:(?P<int>[0-9]+)|\((?P<tuple>[0-9\s,]+)\))\s*(?P<parity>odd|even)?$"
)


def parse_weight_entry(e: Entry, arity: int):
    m = _WEIGHT_RE.match(e.value)
    if not m:
        raise SpecSyntaxError(
            f"chart entries read 'name = weight W [odd|even]', got {e.value!r}",
            e.line, e.col,
        )
    if m.group("int") is not None:
        parts = [m.group("int")]
    else:
        parts = [p.strip() for p in m.group("tuple").split(",") if p.strip()]
    weight = tuple(plain_int(p, f"weight {p!r} must be", e.line, e.col) for p in parts)
    if len(weight) != arity:
        raise WeightArityMismatchError(
            f"weight {weight} has arity {len(weight)}, document declares {arity}",
            e.line, e.col,
        )
    parity = ODD if m.group("parity") == "odd" else EVEN
    return weight, parity


# ------------------------------------------------------------ realisation
class BundleSpec:
    def __init__(self, bundle: GradedBundle, declared_degree: int | None):
        self.bundle = bundle
        self.declared_degree = declared_degree


def build_bundle(doc: SpecDocument) -> BundleSpec:
    """Realise the [bundle]/[chart]/[map] sections as a graded bundle."""
    meta = doc.first("bundle")
    arity = int_entry(meta, "arity", 1, required=False) or 1
    declared_degree = int_entry(meta, "degree", 0, required=False)
    if not doc.all("chart"):
        raise SpecSyntaxError("documents with bundle commands need charts", 1, 1)
    charts = {
        s.args[0]: CoordinateSystem(
            [(e.key[0], *parse_weight_entry(e, arity)) for e in s.entries],
            name=s.args[0], arity=arity)
        for s in doc.all("chart")
    }

    maps = {}
    for s in doc.all("map"):
        src, _, dst = s.args
        for nm in (src, dst):
            if nm not in charts:
                raise UnknownVariableError(f"unknown chart {nm!r}", s.line, 1)
        if src == dst:
            raise SpecSyntaxError(f"map {src} -> {dst} maps a chart to itself", s.line, 1)
        comp = {}
        for e in s.entries:
            if e.key[0] not in charts[dst]:
                raise UnknownVariableError(
                    f"{e.key[0]!r} is not a coordinate of chart {dst!r}",
                    e.line, 1,
                )
            comp[e.key[0]] = parse_expression(e.value, charts[src], e.line, e.col)
        missing = [v.name for v in charts[dst].variables if v.name not in comp]
        if missing:
            raise SpecSyntaxError(
                f"map {src} -> {dst} misses components for {', '.join(missing)}",
                s.line, 1,
            )
        maps[(src, dst)] = comp

    if len(charts) == 1:
        return BundleSpec(single_chart_bundle(*charts.values()), declared_degree)
    if len(charts) != 2:
        raise SpecSyntaxError("desk-scale documents carry one or two charts", 1, 1)
    a, b = charts
    if (a, b) not in maps or (b, a) not in maps:
        raise SpecSyntaxError(
            f"two-chart documents need maps {a} -> {b} and {b} -> {a}", 1, 1
        )
    bundle = two_chart_bundle(charts[a], charts[b], maps[(a, b)], maps[(b, a)])
    return BundleSpec(bundle, declared_degree)


def int_entry(section: Section | None, key: str, minimum: int, maximum=math.inf,
              required: bool = True) -> int | None:
    """The integer value of the section's ``key`` entry, in minimum..maximum;
    an absent entry is an error when ``required`` and None otherwise."""
    entries = structure_entries(section).get(key) if section else None
    if not entries:
        if required:
            raise SpecSyntaxError(f"missing {key!r} entry", section.line, 1)
        return None
    e = entries[0]
    value = plain_int(e.value, f"{key!r} must be", e.line, e.col)
    if value < minimum:
        raise SpecSyntaxError(f"{key!r} must be at least {minimum}", e.line, e.col)
    if value > maximum:
        raise SpecSyntaxError(f"{key!r} {value} exceeds the limit of {maximum}", e.line, e.col)
    return value


def plain_int(text: str, claim: str, line: int, col: int) -> int:
    """The integer ``text`` spells in plain decimal, as ``str`` writes it; an
    error reads ``claim`` then "an integer" or "written in plain decimal"."""
    try:
        value = int(text)
    except ValueError:
        raise SpecSyntaxError(f"{claim} an integer", line, col) from None
    if text != str(value):
        raise SpecSyntaxError(f"{claim} written in plain decimal", line, col)
    return value


def structure_entries(section: Section) -> dict:
    """Group structure entries by their first key word."""
    grouped: dict[str, list[Entry]] = {}
    for e in section.entries:
        grouped.setdefault(e.key[0], []).append(e)
    return grouped
