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

Integers and indices are written in the ASCII digits 0-9, and a
denominator is nonzero.  ``#0`` is elided for multiplicity-1 bundles,
terms are joined with `` + `` / `` - `` and coefficients of magnitude
one are dropped, e.g. ``3/2*ef.w* - p_u``.  Edge atoms are concatenated
without separators; parsing segments them against the graph's bundle
names and rejects ambiguous path strings.  A pathpart that names a vertex is always read
as that vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ContractError, UnsupportedGraphError
from .graph import (
    EdgeRef,
    Graph,
    Path,
    _edge_head,
    _postorder,
    _singular,
    _tails,
    breaking_vertices,
    count_paths_into,
    escaping_edges,
    has_cycle,
    is_omega,
    path_key,
    render_path,
    singular_vertices,
    vertex_path,
)


class Monomial(NamedTuple):
    """``s_alpha s_beta*`` with range(alpha) = range(beta)."""

    alpha: Path
    beta: Path


def monomial(g: Graph, alpha: Path, beta: Path) -> Monomial:
    m = Monomial(alpha, beta)
    _check_monomial(g, m)
    return m


def _check_monomial(g: Graph, m: Monomial) -> str:
    """Check both paths of ``m`` as ``check_path`` does; return their shared range."""
    v = g._checked_range(m.alpha)
    if g._checked_range(m.beta) != v:
        raise ContractError("monomial paths must share their range vertex")
    return v


def monomial_key(m: Monomial) -> tuple:
    (la, alpha), (lb, beta) = path_key(m.alpha), path_key(m.beta)
    return (la, lb, alpha, beta)


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


def _normalized(pairs) -> AlgebraElement:
    """Sum the coefficients of equal monomials, drop the zeros and sort once by ``monomial_key``.

    Every operation builds its result here.  A coefficient that is not a
    ``Fraction`` is converted first; the others are only ever added to,
    never rebuilt.
    """
    acc: dict[Monomial, Fraction] = {}
    for m, c in pairs:
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if m in acc:
            acc[m] += c
        else:
            acc[m] = c
    terms = [(m, c) for m, c in acc.items() if c]
    terms.sort(key=lambda mc: monomial_key(mc[0]))
    return AlgebraElement(tuple(terms))


def element(pairs) -> AlgebraElement:
    """Normalize a {monomial: coefficient} mapping or pair iterable."""
    return _normalized(pairs.items() if isinstance(pairs, dict) else pairs)


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
    return _normalized((*dict(x.terms).items(), *y.terms))


def scale(q, x: AlgebraElement) -> AlgebraElement:
    q = Fraction(q)
    return _normalized((m, q * c) for m, c in x.terms)


def subtract(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return add(x, scale(-1, y))


def star(x: AlgebraElement) -> AlgebraElement:
    return _normalized((Monomial(m.beta, m.alpha), c) for m, c in x.terms)


def multiply_monomials(g: Graph, a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two basic monomials; None encodes zero.

    (s_alpha s_beta*)(s_gamma s_delta*) is nonzero iff one of beta and
    gamma is a prefix of the other; a vertex path is a prefix of the
    paths it sources.
    """
    alpha, beta = a
    gamma, delta = b
    be, ge = beta.edges, gamma.edges
    n, k = len(be), len(ge)
    if n <= k:
        # beta prefixes gamma = beta rest: s_(alpha rest) s_delta*
        if (ge[:n] != be) if n else (g.path_source(gamma) != beta.vertex):
            return None
        return Monomial(Path(edges=alpha.edges + ge[n:]) if k > n else alpha, delta)
    # gamma prefixes beta = gamma rest: s_alpha s_(delta rest)*
    if (be[:k] != ge) if k else (g.source_of(be[0]) != gamma.vertex):
        return None
    return Monomial(alpha, Path(edges=delta.edges + be[k:]))


def multiply(g: Graph, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    products = []
    for ma, ca in x.terms:
        for mb, cb in y.terms:
            m = multiply_monomials(g, ma, mb)
            if m is not None:
                products.append((m, ca * cb))
    return _normalized(products)


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
    p = g.vertex_path(v)
    terms = [(Monomial(p, p), 1)]
    for ref in escaping_edges(g, h, v):
        p = Path(edges=(ref,))
        terms.append((Monomial(p, p), -1))
    return element(terms)


# -- normal form on acyclic graphs ----------------------------------------


def _require_acyclic_finite(g: Graph, what: str) -> None:
    if any(is_omega(b.multiplicity) for b in g.bundles):
        raise UnsupportedGraphError(f"{what} requires finite multiplicities")
    if has_cycle(g):
        raise UnsupportedGraphError(f"{what} requires an acyclic graph")


def normal_form(g: Graph, x: AlgebraElement) -> AlgebraElement:
    """Rewrite onto the sink basis: monomials whose common range is a sink.

    Each monomial is expanded through the relation p_v = sum_e s_e s_e*
    at its range until every range is a sink; equal elements get equal
    normal forms.  Only acyclic graphs with finite multiplicities are
    supported (otherwise the rewriting does not terminate).
    """
    _require_acyclic_finite(g, "normal form")
    ranges = [g.vertex_index(_check_monomial(g, m)) for m, _ in x.terms]
    # children first over the descendants of the ranges: each after the ranges of its bundles
    tails = _tails(g, _postorder(g._out, ranges), _singular(g), {}, _edge_head, ())[0]
    return _normalized(
        (Monomial(Path(edges=m.alpha.edges + e), Path(edges=m.beta.edges + e)) if e else m, c)
        for (m, c), v in zip(x.terms, ranges)
        for rows in tails[v]
        for e in rows
    )


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
    return sum(count_paths_into(g, t) ** 2 for t in singular_vertices(g))


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


_COEF_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?\*")
_MONO_RE = re.compile(r"(?:p_([A-Za-z_][A-Za-z0-9_]*)|([A-Za-z0-9_#]+)\.([A-Za-z0-9_#]+)\*)\Z")
_INDEX_RE = re.compile(r"#([0-9]+)")


def parse_path(g: Graph, text: str) -> Path:
    """Parse a pathpart: a vertex name, or concatenated edge atoms.

    A table filled from the right counts, for each position and vertex,
    the readings of the rest of the text as a path from that vertex that
    ``check_path`` accepts.  Only a sole reading is read out, so an
    ambiguous text costs O(length x name lengths), not one check per reading.
    """
    if g.has_vertex(text):
        return g.vertex_path(text)
    named = {b.name: b for b in g.bundles}
    lengths = {len(name) for name in named}
    end = len(text)
    steps = {}  # position -> (edge, position after it, bundle) of each atom a reading uses
    count = {}  # position -> {vertex: readings of the rest of the text from it}
    for pos in reversed(range(end)):
        steps[pos], count[pos] = [], {}
        for length in lengths:
            after = pos + length
            b = named.get(text[pos:after]) if after <= end else None
            if b is None:
                continue
            m = _INDEX_RE.match(text, after)
            if m:
                ref, after = EdgeRef(b.name, int(m.group(1))), m.end()
            elif text[after : after + 1] == "#" or b.multiplicity != 1:
                continue  # multiplicity >= 2 always renders its index
            else:
                ref = EdgeRef(b.name, 0)
            n = 1 if after == end else count[after].get(b.range, 0)
            if n and (is_omega(b.multiplicity) or ref.index < b.multiplicity):
                steps[pos].append((ref, after, b))
                count[pos][b.source] = count[pos].get(b.source, 0) + n
    readings = sum(count.get(0, {}).values())
    if not readings:
        raise ContractError(f"cannot parse path {text!r}")
    if readings > 1:
        raise ContractError(f"ambiguous path {text!r}: {readings} readings")
    # one reading: at each position one atom continues it from the vertex reached
    refs, pos, at = [], 0, None
    while pos != end:
        ref, pos, b = next(s for s in steps[pos] if at is None or s[2].source == at)
        refs.append(ref)
        at = b.range
    return Path(edges=tuple(refs))


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
    terms = []
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
            if not den:
                raise ContractError(f"coefficient {tok[: m.end() - 1]!r} has a zero denominator")
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
        terms.append((mono, coef))
    return element(terms)
