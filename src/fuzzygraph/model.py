"""Exact-arithmetic data model for fuzzy graphs and the .fzg text format.

Grades live on a fixed micro-unit grid (one unit is 1e-6), so comparing a
grade against a path strength is decidable exact equality, never a float
tolerance.  Aggregate quantities (index values, path lengths) are
``fractions.Fraction``.  Graphs are immutable values: every transforming
operation returns a new graph and leaves its input untouched.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import le, lshift, lt, or_
from typing import Callable, Generic, Iterable, Iterator, Mapping, TypeVar

from .errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    GraphConstructionError,
    MuExceedsSigmaError,
    NoSuchEdgeError,
    ParseError,
    SelfLoopError,
    UnknownEndpointError,
    ZeroMuError,
)

MICRO = 10**6

VertexId = str

# Vertex names: printable ASCII without spaces, so every report stays ASCII.
_NAME_RE = re.compile(r"[!-~]+")
# Whitespace that str.split() splits on besides space, tab and newline:
# its ASCII members as bytes, and all of it as a pattern.
_ODD_ASCII_SPACE = b"\x0b\x0c\r\x1c\x1d\x1e\x1f"
_ODD_SPACE_RE = re.compile(r"[^\S \t]")
# The bytes of canonical text: printable ASCII, tab and newline.  The bulk
# reader tokenizes about _CHUNK characters at a time, marking each line's
# end with a token of _MARK, which canonical text cannot hold.
_CANONICAL = bytes(range(0x20, 0x7F)) + b"\t\n"
_CHUNK = 1 << 16
_MARK = "\0"

_T = TypeVar("_T")


def key_bits(n: int) -> int:
    """The bits per endpoint of an edge key on n vertices: edge du dv is
    keyed ``du << key_bits(n) | dv``.  15 bits up to 2**15 vertices, so
    every key is below 2**30, one CPython digit, which ``sorted`` and
    ``divmod`` take on their fast paths; 32 bits above that, so a graph
    holds fewer than 2**32 vertices."""
    return 15 if n <= 1 << 15 else 32


@dataclass(frozen=True, order=True)
class Membership:
    """A grade in [0, 1], stored as an exact count of 1e-6 units."""

    micro: int

    def __post_init__(self) -> None:
        if not isinstance(self.micro, int) or isinstance(self.micro, bool):
            raise TypeError(f"micro-unit count must be an int, got {self.micro!r}")
        if not 0 <= self.micro <= MICRO:
            raise ValueError(f"grade outside [0, 1]: {self.micro} micro-units")

    @classmethod
    def parse(cls, text: str) -> "Membership":
        """Parse a decimal literal: ASCII digits, optionally followed by
        ``.`` and one to six digits.  The whole part may have any length
        and leading zeros (``parse("000.5")`` is 0.5).

        Parsing is exact: ``parse("0.1")`` yields precisely 100000
        micro-units.  Raises ValueError for anything else, and for a
        value above 1.
        """
        return cls(_literal_micro(text))

    def as_fraction(self) -> Fraction:
        return Fraction(self.micro, MICRO)

    @property
    def is_zero(self) -> bool:
        return self.micro == 0

    def __str__(self) -> str:
        return micro_text(self.micro)


ONE = Membership(MICRO)


def _literal_micro(text: str) -> int:
    """The micro-unit count of a grade literal; see ``Membership.parse``."""
    whole, dot, frac = text.partition(".")
    # ASCII only: str.isdigit also holds for other scripts' digits and
    # for superscripts
    if text.isascii() and whole.isdigit() and (
        not dot or frac.isdigit() and len(frac) <= 6
    ):
        # two significant whole digits are above 1; checked before int(),
        # which refuses strings of more than 4,300 digits
        whole = whole.lstrip("0")
        if len(whole) < 2:
            micro = int(whole + frac.ljust(6, "0"))
            if micro <= MICRO:
                return micro
        raise ValueError(f"grade above 1: {ascii(text)}")
    raise ValueError(f"not a grade literal: {ascii(text)}")


def micro_text(micro: int) -> str:
    """A non-negative micro-unit count as the shortest exact decimal;
    equals ``format_fraction(Fraction(micro, MICRO))``."""
    return ("%d.%06d" % divmod(micro, MICRO)).rstrip("0").rstrip(".")


def format_fraction(value: Fraction) -> str:
    """Render an exact rational, never rounding.

    Terminating decimals (denominator of the form 2^a 5^b) print as the
    shortest exact decimal; anything else prints as ``p/q``.
    """
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    # den divides a power of ten only if it is 2^a 5^b, with a and b
    # below its bit length; den > 1, so the fraction part is not zero
    places = den.bit_length()
    if 10**places % den:
        return f"{num}/{den}"
    sign = "-" if num < 0 else ""
    whole, frac = divmod(abs(num) * 10**places // den, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}".rstrip("0")


def pair(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical unordered-pair key (lexicographically sorted)."""
    return (u, v) if u <= v else (v, u)


class PairTable(Generic[_T]):
    """Symmetric table over the unordered pairs of distinct vertices.

    Row i belongs to ``names[i]``, names sorted.  Entries are micro-unit
    ints, the rows the caller computed; ``read`` turns an entry into its
    public value only when it is read: ``Membership`` for CONN,
    ``Fraction(m, MICRO)`` for d_s.  Only entries above the diagonal are
    read, so the diagonal may hold anything.
    """

    __slots__ = ("_names", "_index", "_rows", "_read")

    def __init__(
        self,
        names: tuple[VertexId, ...],
        rows: list[list[int]],
        read: Callable[[int], _T],
    ):
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._rows = rows
        self._read = read

    def value(self, u: VertexId, v: VertexId) -> _T:
        """The entry of u and v, in either order; KeyError when u == v or
        a name is unknown."""
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None or i == j:
            raise KeyError(pair(u, v))
        return self._read(self._rows[i][j] if i < j else self._rows[j][i])

    def pairs(self) -> Iterator[tuple[tuple[VertexId, VertexId], _T]]:
        """((u, v), value) for every pair u < v, in lexicographic order."""
        names, read = self._names, self._read
        for i, (u, row) in enumerate(zip(names, self._rows)):
            for j in range(i + 1, len(names)):
                yield (u, names[j]), read(row[j])

    def __len__(self) -> int:
        n = len(self._names)
        return n * (n - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairTable):
            return NotImplemented
        same = (self._names, self._read) == (other._names, other._read)
        return same and all(
            mine[i + 1 :] == theirs[i + 1 :]
            for i, (mine, theirs) in enumerate(zip(self._rows, other._rows))
        )

    def __repr__(self) -> str:
        return f"PairTable({len(self)} pairs)"


class FuzzyGraph:
    """Immutable simple graph with vertex grades sigma and edge grades mu.

    Invariants enforced at construction: vertex names are nonempty tokens
    of printable ASCII without spaces, there are no self loops, every
    edge grade is strictly positive and does not exceed the minimum of
    its endpoint grades.  Vertices with sigma 0 are allowed; they can
    carry no edges.  Edge keys are pairs of names, in either order but
    not both orders at once.  Each route checks these once: the
    constructor and ``from_micro`` in ``_fill``, ``parse_graph`` as it
    reads the records.  The rest prove them instead: the generators
    ``random_fuzzy_tree`` and ``make_saturated_cycle`` by construction,
    ``remove_edge`` and ``edge_subgraph`` by keeping edges of a checked
    graph.  All of them lay the graph out with ``_layout``, one core
    over ints: vertices by declaration index, edges keyed ``du << bits
    | dv`` with the ``key_bits`` of the vertex count, 15 bits up to
    2**15 vertices and 32 above, so a graph holds fewer than 2**32
    vertices.

    The graph is stored once, in name order: vertex i is the i-th of the
    sorted ``vertices()``, with grade ``sigma_micro[i]``; edge e joins
    ``ends[e] = (i, j)``, i < j, with grade ``mu_micro[e]``, and ``ends``
    is sorted, so edges follow the lexicographic order of their names.
    The tuples are read-only and hold micro-unit ints; ``sigma()``,
    ``mu()`` and ``edges()`` build a ``Membership`` when read.
    """

    __slots__ = ("_names", "sigma_micro", "ends", "mu_micro")

    def __init__(
        self,
        sigma: Mapping[VertexId, Membership],
        mu: Mapping[tuple[VertexId, VertexId], Membership],
    ):
        grades: dict[VertexId, int] = {}
        for name, grade in sigma.items():
            if not isinstance(grade, Membership):
                raise TypeError(f"sigma for {name!r} must be a Membership")
            grades[name] = grade.micro
        edges: dict[tuple[VertexId, VertexId], int] = {}
        for key, grade in mu.items():
            if not isinstance(grade, Membership):
                raise TypeError(f"mu for {key!r} must be a Membership")
            edges[key] = grade.micro
        self._fill(grades, edges)

    @classmethod
    def from_micro(
        cls,
        sigma: Mapping[VertexId, int],
        mu: Mapping[tuple[VertexId, VertexId], int],
    ) -> "FuzzyGraph":
        """The graph of int micro-unit grades keyed as the constructor's
        arguments are, built with its checks and no ``Membership``."""
        return cls.__new__(cls)._fill(sigma, mu)

    def _fill(
        self,
        sigma: Mapping[VertexId, int],
        mu: Mapping[tuple[VertexId, VertexId], int],
    ) -> "FuzzyGraph":
        """Check int grades from a caller and lay them out, once per graph:
        the route of the constructor and ``from_micro``.
        Raises for the first edge key that is not a pair of names, else
        the first bad name or grade, else the first pair given in both
        orders, else the first bad edge in key order."""
        for key in mu:
            u, v = key if isinstance(key, tuple) and len(key) == 2 else (0, 0)
            if not isinstance(u, str) or not isinstance(v, str):
                raise TypeError(f"edge key {key!r} is not a pair of names")
        for name, grade in sigma.items():
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad vertex name: {name!r}")
            if type(grade) is not int or not 0 <= grade <= MICRO:
                raise ValueError(f"sigma for {name!r} is not a grade")
        if not {*map(type, mu.values())} <= {int}:
            raise TypeError("edge grades must be ints")
        for key, grade in mu.items():
            if not 0 <= grade <= MICRO:
                raise ValueError(f"mu for {key!r} is not a grade")
        # sigma's names, then those only an edge names, graded -1 below
        names = [*dict.fromkeys(chain(sigma, chain.from_iterable(mu)))]
        index = dict(zip(names, range(len(names))))
        bits = key_bits(len(names))
        keys = [
            index[u] << bits | index[v]
            if u < v
            else index[v] << bits | index[u]
            for u, v in mu
        ]
        keyed = dict(zip(keys, mu.values()))
        if len(keyed) < len(keys):
            a, b = min(pair(u, v) for u, v in mu if u != v and (v, u) in mu)
            raise DuplicateEdgeError(f"edge {a!r} {b!r} given in both orders")
        self._layout(names, [*map(sigma.get, names, repeat(-1))], keyed)
        names, sigma = self._names, self.sigma_micro
        for (a, b), w in zip(self.ends, self.mu_micro):
            if a == b or not 0 < w <= sigma[a] or w > sigma[b]:
                raise _edge_error(names[a], names[b], w, sigma[a], sigma[b])
        return self

    def _layout(
        self, names: list[VertexId], sigma: list[int], mu: dict[int, int]
    ) -> "FuzzyGraph":
        """Store a graph given by declaration index, checking nothing: the
        one core of every route.  Vertex k is ``names[k]``, graded
        ``sigma[k]``; ``mu`` maps ``du << bits | dv``, ``names[du] <
        names[dv]``, to the grade of edge du dv, with the ``key_bits``
        of ``len(names)``.  Names already in order (every serialized
        file) skip the remap to name order."""
        bits = key_bits(len(names))
        order = sorted(names)
        if order != names:
            by_name = sorted(range(len(names)), key=names.__getitem__)
            rank = dict(zip(by_name, range(len(names))))
            sigma = [*map(sigma.__getitem__, by_name)]
            low = (1 << bits) - 1
            mu = {
                rank[k >> bits] << bits | rank[k & low]: w
                for k, w in mu.items()
            }
        keys = sorted(mu)
        self._names = tuple(order)
        self.sigma_micro = tuple(sigma)
        self.ends = tuple(map(divmod, keys, repeat(1 << bits)))
        self.mu_micro = tuple(map(mu.__getitem__, keys))
        return self

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return len(self.mu_micro)

    def vertices(self) -> tuple[VertexId, ...]:
        return self._names

    def sigma(self, name: VertexId) -> Membership:
        i = bisect_left(self._names, name)
        if self._names[i : i + 1] != (name,):
            raise UnknownEndpointError(f"unknown vertex {name!r}")
        return Membership(self.sigma_micro[i])

    def edges(self) -> Iterator[tuple[VertexId, VertexId, Membership]]:
        """Edges in lexicographic order as (u, v, mu) with u < v."""
        for (u, v), grade in zip(self.edge_pairs(), self.mu_micro):
            yield u, v, Membership(grade)

    def edge_pairs(self) -> tuple[tuple[VertexId, VertexId], ...]:
        names = self._names
        return tuple((names[i], names[j]) for i, j in self.ends)

    def _edge(self, u: VertexId, v: VertexId) -> int:
        """The index of edge uv, by bisection; NoSuchEdgeError if none."""
        names, ends = self._names, self.ends
        i, j = sorted((bisect_left(names, u), bisect_left(names, v)))
        e = bisect_left(ends, (i, j))
        if ends[e : e + 1] != ((i, j),) or {names[i], names[j]} != {u, v}:
            raise NoSuchEdgeError(f"no edge between {u!r} and {v!r}")
        return e

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        try:
            return self._edge(u, v) >= 0
        except NoSuchEdgeError:
            return False

    def mu(self, u: VertexId, v: VertexId) -> Membership:
        return Membership(self.mu_micro[self._edge(u, v)])

    def remove_edge(self, u: VertexId, v: VertexId) -> "FuzzyGraph":
        """Return a copy without edge uv; this graph is unchanged."""
        e = self._edge(u, v)
        return self._keep(chain(range(e), range(e + 1, self.edge_count)))

    def edge_subgraph(
        self, pairs: Iterable[tuple[VertexId, VertexId]]
    ) -> "FuzzyGraph":
        """Keep all vertices but only the listed edges, each found by
        ``_edge``, which raises for a non-edge."""
        return self._keep([self._edge(u, v) for u, v in pairs])

    def _keep(self, kept: Iterable[int]) -> "FuzzyGraph":
        """All vertices and the edges of these indices, unchecked."""
        ends, mu = self.ends, self.mu_micro
        bits = key_bits(self.vertex_count)
        keyed = {ends[e][0] << bits | ends[e][1]: mu[e] for e in kept}
        graph = FuzzyGraph.__new__(FuzzyGraph)
        return graph._layout([*self._names], [*self.sigma_micro], keyed)

    def serialize(self, text: Mapping[int, str] | None = None) -> str:
        """Canonical .fzg text; parsing it back reproduces this graph.
        Each distinct grade is rendered once, and edge lines take their
        names straight from ``ends``.

        ``text`` maps a micro-unit count to its ``micro_text``, and must
        render the counts it lacks on lookup (a dict with ``__missing__``);
        a caller serializing many graphs passes one map to them all, so
        a grade they share is rendered once in all.  By default each
        call renders its own grades."""
        names, sigma, mu = self._names, self.sigma_micro, self.mu_micro
        if text is None:
            text = {grade: micro_text(grade) for grade in {*sigma, *mu}}
        lines = [f"v {name} {text[grade]}" for name, grade in zip(names, sigma)]
        lines += [
            f"e {names[i]} {names[j]} {text[w]}"
            for (i, j), w in zip(self.ends, mu)
        ]
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuzzyGraph):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, k) for k in self.__slots__))

    def __repr__(self) -> str:
        return f"FuzzyGraph({self.vertex_count} vertices, {self.edge_count} edges)"


def _edge_error(
    u: VertexId, v: VertexId, w: int, su: int, sv: int
) -> GraphConstructionError:
    """The error of edge uv, u <= v, of grade w that fails a check, its
    ends graded su and sv (-1 for a name no vertex has)."""
    if u == v:
        return SelfLoopError(f"self loop at {u!r}")
    if su < 0 or sv < 0:
        name = u if su < 0 else v
        return UnknownEndpointError(f"unknown vertex {name!r}")
    if w == 0:
        return ZeroMuError(f"edge {u!r} {v!r} has zero grade")
    return MuExceedsSigmaError(
        f"mu({u!r},{v!r}) = {micro_text(w)} exceeds min sigma "
        f"({micro_text(min(su, sv))})"
    )


def build_graph(
    vertex_list: Iterable[tuple[VertexId, Membership]],
    edge_list: Iterable[tuple[VertexId, VertexId, Membership]],
) -> FuzzyGraph:
    """Assemble and validate a graph from vertex and edge records.

    Raises DuplicateVertexError, DuplicateEdgeError, SelfLoopError,
    UnknownEndpointError, MuExceedsSigmaError or ZeroMuError.
    """
    sigma: dict[VertexId, Membership] = {}
    for name, grade in vertex_list:
        if name in sigma:
            raise DuplicateVertexError(f"vertex {name!r} declared twice")
        sigma[name] = grade
    mu: dict[tuple[VertexId, VertexId], Membership] = {}
    for u, v, grade in edge_list:
        key = pair(u, v)
        if key in mu:
            raise DuplicateEdgeError(f"edge {key[0]!r} {key[1]!r} declared twice")
        mu[key] = grade
    return FuzzyGraph(sigma, mu)


def parse_graph(text: str | bytes) -> FuzzyGraph:
    """Parse the line-oriented .fzg format.

    Lines end at ``\n``, and one trailing ``\r`` is dropped; tokens are
    separated by spaces and tabs, and any other whitespace (a form feed,
    a Unicode space or line separator) outside a comment is a
    ParseError.  Blank lines and lines whose first token starts with
    ``#`` are ignored.  ``v name grade`` declares a vertex, ``e name1
    name2 grade`` an edge between previously declared vertices.  Names
    are printable ASCII without spaces.  Every error names its line:
    syntax problems raise ParseError, structural ones the build_graph
    errors with a ``line N:`` prefix.  When a file has several errors,
    the one on the earliest line is raised.  The records are checked
    once, as they are read, and laid out with no second check.  Text laid
    out as ``FuzzyGraph.serialize`` writes it is read in bulk, with the
    same graph and the same errors as any other layout.
    """
    if isinstance(text, (bytes, bytearray)):
        raw = bytes(text)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the complete lines before the bad byte may hold an earlier error
            parse_graph(raw[: raw.rfind(b"\n", 0, exc.start) + 1])
            line = raw[: exc.start].count(b"\n") + 1
            raise ParseError("invalid UTF-8", line) from exc
    # _read_records checks everything _fill would check
    return FuzzyGraph.__new__(FuzzyGraph)._layout(*_read_records(text))


_Records = tuple[list[VertexId], list[int], dict[int, int]]


def _read_records(text: str) -> _Records:
    """The vertex names and grades of .fzg text in declaration order and
    its edge grades keyed by declaration index, as ``_layout`` takes
    them.  Text in the canonical layout is read by ``_bulk_records``;
    when it declines, ``_line_records`` reads the text from the start
    and raises for the earliest bad line.  The two return equal records
    for every text the bulk route reads."""
    return _bulk_records(text) or _line_records(text)


def _bulk_records(text: str) -> _Records | None:
    """The records of text laid out as ``serialize`` writes it, else None.

    The text is printable ASCII, spaces, tabs and newlines, ends in a
    newline, and holds ``v name grade`` lines and then ``e u v grade``
    lines with u < v: no comment or blank line.  Vertices and edges may
    come in any order within their blocks.  Any other text, and any
    record ``_line_records`` would refuse, returns None; no error is
    raised.  No line or record is built in Python: the text is tokenized
    by ``_marked_tokens`` and every check runs over strided slices of
    each chunk's tokens.
    """
    if not (text.isascii() and text.endswith("\n")):
        return None
    if text.encode("ascii").translate(None, _CANONICAL):
        return None
    # the edge block starts at the first line that starts "e "
    cut = text.find("\ne ") + 1 or len(text)
    names: list[VertexId] = []
    literals: list[str] = []
    grades: dict[str, int] = {}
    mu: dict[int, int] = {}
    count = 0
    try:
        for tokens in _marked_tokens(text, 0, cut, "v"):
            names += tokens[1::4]
            literals += tokens[2::4]
        index = dict(zip(names, range(len(names))))
        if len(index) < len(names):
            return None  # a vertex declared twice
        sigma = _micro_grades(literals, grades)
        bits = key_bits(len(names))
        for tokens in _marked_tokens(text, cut, len(text), "e"):
            us, vs = tokens[1::5], tokens[2::5]
            # u < v also rules out a self loop
            if not all(map(lt, us, vs)):
                return None
            du = [*map(index.__getitem__, us)]
            dv = [*map(index.__getitem__, vs)]
            w = _micro_grades(tokens[3::5], grades)
            if 0 in w or not all(map(le, w, map(sigma.__getitem__, du))):
                return None
            if not all(map(le, w, map(sigma.__getitem__, dv))):
                return None
            mu.update(zip(map(or_, map(lshift, du, repeat(bits)), dv), w))
            count += len(w)
    except (KeyError, ValueError):
        # an undeclared endpoint, a bad grade literal or a bad line
        return None
    if len(mu) < count:
        return None  # an edge declared twice
    return names, sigma, mu


def _marked_tokens(
    text: str, start: int, stop: int, kind: str
) -> Iterator[list[str]]:
    """The tokens of ``text[start:stop]``, which ends at a newline, in
    chunks of about ``_CHUNK`` characters that end at one, with a
    ``_MARK`` token for each newline.  ValueError unless every line is
    ``kind`` and two (``v``) or three (``e``) more tokens."""
    width = 4 if kind == "v" else 5
    while start < stop:
        end = text.find("\n", min(start + _CHUNK, stop) - 1) + 1
        chunk = text[start:end]
        tokens = chunk.replace("\n", f" {_MARK} ").split()
        lines = chunk.count("\n")
        # with each width-th token a mark, one per line, every line holds
        # width - 1 tokens
        if not (
            len(tokens) == width * lines
            and tokens[width - 1 :: width].count(_MARK) == lines
            and tokens[::width].count(kind) == lines
        ):
            raise ValueError(f"not {kind} lines")
        yield tokens
        start = end


def _micro_grades(literals: list[str], grades: dict[str, int]) -> list[int]:
    """The micro-units of grade literals, each distinct literal parsed
    once into ``grades``; ValueError for a bad one."""
    fresh = {*literals}.difference(grades)
    grades.update(zip(fresh, map(_literal_micro, fresh)))
    return [*map(grades.__getitem__, literals)]


def _line_records(text: str) -> _Records:
    """The records of any .fzg text, read line by line.  Each record is
    checked on its line: syntax, names, declaration before use,
    duplicates and the constructor's per-edge checks, so the first error
    is the earliest.  Each distinct grade literal is parsed once, to
    micro-units.

    Edges are keyed as they are read, at the ``key_bits`` width of the
    vertices declared so far: 15 bits, until the 32,769th vertex, which
    15 bits cannot number, re-keys the edges read so far once at 32.
    """
    index: dict[VertexId, int] = {}
    sigma: list[int] = []
    mu: dict[int, int] = {}
    grades: dict[str, int] = {}
    bits = key_bits(0)
    # the vertex count at which an index no longer fits in bits
    full = 1 << bits
    # str.split() splits on every whitespace character.  When the text
    # holds no whitespace besides spaces, tabs, newlines and a CR before
    # a newline, that is the format's split, trailing CRs included;
    # otherwise each line is checked for the others.
    plain = text.isascii() and len(
        text.encode("ascii").translate(None, _ODD_ASCII_SPACE)
    ) == len(text) - text.count("\r\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not plain:
            line = _checked_line(line, lineno)
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "v":
            if len(tokens) != 3:
                raise ParseError(
                    f"expected 'v <name> <grade>', got {ascii(line.strip())}",
                    lineno,
                )
            _, name, literal = tokens
            # a token holds no whitespace, so this is _NAME_RE
            if not (name.isascii() and name.isprintable()):
                raise ParseError(
                    f"bad vertex name {ascii(name)}: names are printable "
                    "ASCII without spaces",
                    lineno,
                )
        elif kind == "e":
            if len(tokens) != 4:
                raise ParseError(
                    "expected 'e <name1> <name2> <grade>', got "
                    f"{ascii(line.strip())}",
                    lineno,
                )
            _, u, v, literal = tokens
            du, dv = index.get(u), index.get(v)
            if du is None or dv is None:
                raise UnknownEndpointError(
                    f"line {lineno}: edge references undeclared vertex "
                    f"{ascii(u if du is None else v)}"
                )
        elif kind.startswith("#"):
            continue
        else:
            raise ParseError(f"unknown directive {ascii(kind)}", lineno)
        grade = grades.get(literal)
        if grade is None:
            try:
                grade = grades[literal] = _literal_micro(literal)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        if kind == "v":
            if name in index:
                raise DuplicateVertexError(
                    f"line {lineno}: vertex {name!r} declared twice"
                )
            count = len(sigma)
            if count == full:
                wider = key_bits(full + 1)
                mu = {
                    k >> bits << wider | k & full - 1: w for k, w in mu.items()
                }
                bits, full = wider, 1 << wider
            index[name] = count
            sigma.append(grade)
        else:
            if u > v:
                u, v, du, dv = v, u, dv, du
            key = du << bits | dv
            if key in mu:
                raise DuplicateEdgeError(
                    f"line {lineno}: edge {u!r} {v!r} declared twice"
                )
            if du == dv or not 0 < grade <= sigma[du] or grade > sigma[dv]:
                exc = _edge_error(u, v, grade, sigma[du], sigma[dv])
                raise type(exc)(f"line {lineno}: {exc}")
            mu[key] = grade
    return [*index], sigma, mu


def _checked_line(line: str, lineno: int) -> str:
    """The line without one trailing CR; ParseError when a line other
    than a comment holds whitespace besides spaces and tabs."""
    if line.endswith("\r"):
        line = line[:-1]
    odd = _ODD_SPACE_RE.search(line)
    if odd is not None and not line.lstrip(" \t").startswith("#"):
        raise ParseError(
            f"separator {ascii(odd.group())} is not a space or tab", lineno
        )
    return line
