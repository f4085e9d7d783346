"""Symbolic Leavitt path algebra elements over the rationals.

Elements are finite rational linear combinations of basic monomials
``s_alpha s_beta*`` where alpha and beta are finite paths with a common
range vertex.  A vertex projection ``p_v`` is the monomial with alpha =
beta = v.  Multiplication follows the path rules

    (s_a s_b*)(s_c s_d*) = s_(a c') s_d*   if c = b c',
                           s_a s_(d b')*   if b = c b',
                           0               otherwise,

addition and the star are coefficientwise, and the integer grading of a
monomial is |alpha| - |beta|.

Text form
---------

Elements render to, and parse from, the grammar

    element  :=  '0'  |  ['-'] term ( ('+'|'-') term )*
    term     :=  [ coefficient '*' ] monomial
    coefficient := integer [ '/' integer ]          (always positive here)
    monomial :=  'p_' vertex  |  pathpart '.' pathpart '*'
    pathpart :=  vertex  |  edgeatom+
    edgeatom :=  bundle [ '#' index ]

``#0`` is elided for multiplicity-1 bundles, terms are joined with
`` + `` / `` - `` and coefficients of magnitude one are dropped, e.g.
``3/2*ef.w* - p_u``.  Edge atoms are concatenated without separators;
parsing segments them against the graph's bundle names and rejects
ambiguous path strings.  A pathpart that names a vertex is always read
as that vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, GraphError, UnsupportedGraphError
from .graph import (
    EdgeRef,
    Graph,
    Path,
    _postorder,
    breaking_vertices,
    concat,
    count_paths_into,
    escaping_edges,
    has_cycle,
    is_omega,
    render_path,
    starts_with,
    strip_prefix,
    vertex_path,
)


@dataclass(frozen=True)
class Monomial:
    """``s_alpha s_beta*`` with range(alpha) = range(beta)."""

    alpha: Path
    beta: Path


def monomial(g: Graph, alpha: Path, beta: Path) -> Monomial:
    g.check_path(alpha)
    g.check_path(beta)
    if g.path_range(alpha) != g.path_range(beta):
        raise ContractError("monomial paths must share their range vertex")
    return Monomial(alpha, beta)


def _path_name_key(p: Path) -> tuple:
    if p.length == 0:
        return ((p.vertex, -1),)
    return tuple(e.key() for e in p.edges)


def monomial_key(m: Monomial) -> tuple:
    return (m.alpha.length, m.beta.length, _path_name_key(m.alpha), _path_name_key(m.beta))


@dataclass(frozen=True)
class AlgebraElement:
    """A rational combination of monomials, stored sorted with nonzero coefficients."""

    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    def coefficient(self, m: Monomial) -> Fraction:
        for mono, c in self.terms:
            if mono == m:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.terms


ZERO = AlgebraElement()


def element(pairs) -> AlgebraElement:
    """Normalize a {monomial: coefficient} mapping or pair iterable."""
    acc: dict[Monomial, Fraction] = {}
    items = pairs.items() if isinstance(pairs, dict) else pairs
    for m, c in items:
        c = Fraction(c)
        if c:
            acc[m] = acc.get(m, Fraction(0)) + c
    cleaned = [(m, c) for m, c in acc.items() if c]
    cleaned.sort(key=lambda mc: monomial_key(mc[0]))
    return AlgebraElement(tuple(cleaned))


def vertex_projection(g: Graph, v: str) -> AlgebraElement:
    p = g.vertex_path(v)
    return element([(Monomial(p, p), Fraction(1))])


def edge_element(g: Graph, ref: EdgeRef) -> AlgebraElement:
    """``s_e`` for a concrete edge."""
    g.check_edge(ref)
    alpha = Path(edges=(ref,))
    return element([(Monomial(alpha, vertex_path(g.range_of(ref))), Fraction(1))])


def edge_star_element(g: Graph, ref: EdgeRef) -> AlgebraElement:
    g.check_edge(ref)
    beta = Path(edges=(ref,))
    return element([(Monomial(vertex_path(g.range_of(ref)), beta), Fraction(1))])


def one(g: Graph) -> AlgebraElement:
    """The unit: the sum of all vertex projections."""
    return element(
        [(Monomial(vertex_path(v), vertex_path(v)), Fraction(1)) for v in g.vertices]
    )


def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    acc = dict(x.terms)
    for m, c in y.terms:
        acc[m] = acc.get(m, Fraction(0)) + c
    return element(acc)


def scale(q, x: AlgebraElement) -> AlgebraElement:
    q = Fraction(q)
    return element([(m, q * c) for m, c in x.terms])


def subtract(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return add(x, scale(-1, y))


def star(x: AlgebraElement) -> AlgebraElement:
    return element([(Monomial(m.beta, m.alpha), c) for m, c in x.terms])


def multiply_monomials(g: Graph, a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two basic monomials; None encodes zero."""
    if starts_with(g, b.alpha, a.beta):
        rest = strip_prefix(g, b.alpha, a.beta)
        return Monomial(concat(a.alpha, rest), b.beta)
    if starts_with(g, a.beta, b.alpha):
        rest = strip_prefix(g, a.beta, b.alpha)
        return Monomial(a.alpha, concat(b.beta, rest))
    return None


def multiply(g: Graph, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    acc: dict[Monomial, Fraction] = {}
    for ma, ca in x.terms:
        for mb, cb in y.terms:
            m = multiply_monomials(g, ma, mb)
            if m is not None:
                acc[m] = acc.get(m, Fraction(0)) + ca * cb
    return element(acc)


def degree_components(x: AlgebraElement) -> dict[int, AlgebraElement]:
    """Split into graded pieces by |alpha| - |beta|; zero degrees are omitted."""
    buckets: dict[int, list] = {}
    for m, c in x.terms:
        buckets.setdefault(m.alpha.length - m.beta.length, []).append((m, c))
    return {d: element(pairs) for d, pairs in sorted(buckets.items())}


def gap_projection(g: Graph, h, v: str) -> AlgebraElement:
    """``p_v`` minus the range projections of the edges escaping ``h``.

    Defined for breaking vertices of a saturated hereditary set; the
    escaping edge set is finite exactly then.
    """
    if v not in breaking_vertices(g, h):
        raise ContractError(f"{v!r} is not a breaking vertex of the given set")
    terms = {Monomial(g.vertex_path(v), g.vertex_path(v)): Fraction(1)}
    for ref in escaping_edges(g, h, v):
        p = Path(edges=(ref,))
        terms[Monomial(p, p)] = terms.get(Monomial(p, p), Fraction(0)) - 1
    return element(terms)


# -- normal form on acyclic graphs ----------------------------------------


def _require_acyclic_finite(g: Graph, what: str) -> None:
    if any(is_omega(b.multiplicity) for b in g.bundles):
        raise UnsupportedGraphError(f"{what} requires finite multiplicities")
    if has_cycle(g):
        raise UnsupportedGraphError(f"{what} requires an acyclic graph")


def _paths_to_sinks(g: Graph, v: str) -> list[Path]:
    """All paths from ``v`` to sinks, the length-0 path included when v is a sink."""
    ending = {}  # vertex -> its paths to sinks
    for u in _postorder(g._index.succ, v):
        out = g.out_bundles(u)
        if not out:
            ending[u] = [vertex_path(u)]
            continue
        ending[u] = [
            Path(edges=(EdgeRef(b.name, i),) + tail.edges)
            for b in out
            for tail in ending[b.range]
            for i in range(b.multiplicity)
        ]
    return ending[v]


def normal_form(g: Graph, x: AlgebraElement) -> AlgebraElement:
    """Rewrite onto the sink basis: monomials whose common range is a sink.

    Each monomial is expanded through the relation p_v = sum_e s_e s_e*
    at its range until every range is a sink; equal elements get equal
    normal forms.  Only acyclic graphs with finite multiplicities are
    supported (otherwise the rewriting does not terminate).
    """
    _require_acyclic_finite(g, "normal form")
    acc: dict[Monomial, Fraction] = {}
    cache: dict[str, list[Path]] = {}
    for m, c in x.terms:
        v = g.path_range(m.alpha)
        if v not in cache:
            cache[v] = _paths_to_sinks(g, v)
        for ext in cache[v]:
            mm = Monomial(concat(m.alpha, ext), concat(m.beta, ext))
            acc[mm] = acc.get(mm, Fraction(0)) + c
    return element(acc)


def equals(g: Graph, x: AlgebraElement, y: AlgebraElement) -> bool:
    """Algebra equality via normal forms (acyclic, finite multiplicities)."""
    return normal_form(g, x) == normal_form(g, y)


def dimension(g: Graph) -> int:
    """Vector-space dimension of the algebra of an acyclic finite-multiplicity graph.

    The sink basis consists of the monomials (alpha, beta) with a common
    sink range, so the dimension is the sum over sinks of the squared
    number of paths into the sink.
    """
    _require_acyclic_finite(g, "dimension")
    total = 0
    for v in g.vertices:
        if not g.out_bundles(v):
            n = count_paths_into(g, v)
            total += n * n
    return total


# -- text form -------------------------------------------------------------


def render_monomial(g: Graph, m: Monomial) -> str:
    if m.alpha.length == 0 and m.alpha == m.beta:
        return f"p_{m.alpha.vertex}"
    return f"{render_path(g, m.alpha)}.{render_path(g, m.beta)}*"


def render_element(g: Graph, x: AlgebraElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for i, (m, c) in enumerate(x.terms):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = render_monomial(g, m) if mag == 1 else f"{mag}*{render_monomial(g, m)}"
        if i == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


_COEF_RE = re.compile(r"(\d+)(?:/(\d+))?\*")
_MONO_RE = re.compile(r"(?:p_([A-Za-z_][A-Za-z0-9_]*)|([A-Za-z0-9_#]+)\.([A-Za-z0-9_#]+)\*)\Z")


_INDEX_RE = re.compile(r"#(\d+)")


def _segmentations(g: Graph, text: str) -> list[tuple[EdgeRef, ...]]:
    """All ways to read ``text`` as a concatenation of edge atoms.

    A forward pass finds the atoms starting at each position reachable
    from the start; a table filled from the right then holds every
    reading of the rest of the text at each of those positions.  Readings
    come longest bundle name first, and no recursion limits the length.
    """
    names = {b.name for b in g.bundles}
    lengths = sorted({len(name) for name in names}, reverse=True)
    end_of_text = len(text)
    atoms: dict[int, list[tuple[EdgeRef, int]]] = {}
    todo = [0]
    while todo:
        pos = todo.pop()
        if pos in atoms or pos == end_of_text:
            continue
        found = []
        for length in lengths:
            end = pos + length
            name = text[pos:end]
            if len(name) != length or name not in names:
                continue
            index = 0
            after = end
            if text[end : end + 1] == "#":
                m = _INDEX_RE.match(text, end)
                if not m:
                    continue
                index = int(m.group(1))
                after = m.end()
            elif g.bundle(name).multiplicity != 1:
                # multiplicity >= 2 always renders its index
                continue
            found.append((EdgeRef(name, index), after))
            todo.append(after)
        atoms[pos] = found
    table: dict[int, list[tuple[EdgeRef, ...]]] = {end_of_text: [()]}
    for pos in sorted(atoms, reverse=True):
        table[pos] = [(ref,) + tail for ref, after in atoms[pos] for tail in table[after]]
    return table[0]


def parse_path(g: Graph, text: str) -> Path:
    """Parse a pathpart: a vertex name, or concatenated edge atoms."""
    if g.has_vertex(text):
        return g.vertex_path(text)
    options = _segmentations(g, text)
    valid = []
    for refs in options:
        p = Path(edges=refs)
        try:
            g.check_path(p)
        except GraphError:
            continue
        valid.append(p)
    if not valid:
        raise ContractError(f"cannot parse path {text!r}")
    if len(valid) > 1:
        raise ContractError(f"ambiguous path {text!r}: {len(valid)} readings")
    return valid[0]


def parse_element(g: Graph, text: str) -> AlgebraElement:
    text = text.strip()
    if text == "0":
        return ZERO
    tokens = re.split(r"\s*([+-])\s*", text)
    if tokens and tokens[0] == "":
        tokens = tokens[1:]
    sign = Fraction(1)
    if tokens and tokens[0] == "-":
        sign = Fraction(-1)
        tokens = tokens[1:]
    elif tokens and tokens[0] == "+":
        tokens = tokens[1:]
    if len(tokens) % 2 == 0:
        raise ContractError(f"cannot parse element {text!r}")
    acc: dict[Monomial, Fraction] = {}
    pending = sign
    for i, tok in enumerate(tokens):
        if i % 2 == 1:
            pending = Fraction(1) if tok == "+" else Fraction(-1)
            continue
        coef = pending
        m = _COEF_RE.match(tok)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            coef *= Fraction(num, den)
            tok = tok[m.end() :]
        mm = _MONO_RE.match(tok)
        if not mm:
            raise ContractError(f"cannot parse monomial {tok!r}")
        if mm.group(1) is not None:
            p = g.vertex_path(mm.group(1))
            mono = Monomial(p, p)
        else:
            alpha = parse_path(g, mm.group(2))
            beta = parse_path(g, mm.group(3))
            mono = monomial(g, alpha, beta)
        acc[mono] = acc.get(mono, Fraction(0)) + coef
    return element(acc)
