"""Uniqueness decision, composition series and the spectrum trichotomy.

A graph algebra has exactly one irreducible representation up to
equivalence iff the graph is acyclic and all boundary paths form a
single shift-tail class; equivalently, iff some line point's reachability
tree saturates to the whole vertex set.  In the positive case the
algebra is the full matrix algebra over the matrix-unit index set of the
witnessing line point.

When the class census is finite, repeated line-point extraction from
the quotient by the ideal so far, kept implicit, builds a composition
series of admissible pairs whose factors are matrix algebras; its length
equals the class count.  With a cycle present the spectrum is uncountable.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress

from .algebra import dimension
from .boundary import BoundaryPath, ClassCensus, enumerate_classes
from .errors import InternalInvariantError, UnsupportedGraphError
from .graph import (
    Graph,
    VertexClass,
    _singular,
    has_cycle,
    line_points,
    saturate,
    saturation_stages,
    singular_vertices,
    tree_of,
)
from .ideals import AdmissiblePair
from .repn import lambda_size


def _condition4(g: Graph, census: ClassCensus) -> bool:
    return not has_cycle(g) and census.count == 1


def check_condition4(g: Graph) -> bool:
    """No cycles and a single shift-tail class of boundary paths."""
    # a cycle decides it before any census is taken
    return not has_cycle(g) and _condition4(g, enumerate_classes(g))


def check_condition5(g: Graph) -> str | None:
    """First line point whose tree saturates to every vertex, if any.

    A line point's tree is its line, which saturates as its end sink t
    does, and saturation adjoins only regular vertices.  So a witness
    exists iff t is the only singular vertex and saturates to every
    vertex; then every line point ends at t and is one: O(n + m).
    """
    singular = singular_vertices(g)
    if len(singular) == 1 and not g.out_bundles(singular[0]):
        if len(saturate(g, singular)) == len(g.vertices):
            return line_points(g)[0]
    return None


@dataclass(frozen=True)
class NaimarkReport:
    """Outcome of the uniqueness decision with its witnesses."""

    holds: bool
    condition4: bool
    census: ClassCensus
    witness: str | None
    saturation_chain: tuple[tuple[str, ...], ...] | None
    lam_size: int | None
    dimension: int | None


def naimark_decision(g: Graph) -> NaimarkReport:
    """Evaluate both equivalent conditions and cross-check them.

    When positive, also counts the matrix-unit index set of the witness
    and checks the dimension identity dim = |Lambda|^2.  A positive
    graph never has infinite emitters (an omega bundle forces either a
    second class or a cycle), so the index set is always finite here.
    """
    census = enumerate_classes(g)
    c4 = _condition4(g, census)
    witness = check_condition5(g)
    if c4 != (witness is not None):
        raise InternalInvariantError(
            "single-class condition and line-point condition disagree"
        )
    if witness is None:
        return NaimarkReport(False, c4, census, None, None, None, None)
    chain = tuple(saturation_stages(g, tree_of(g, witness)))
    lam_size = lambda_size(g, witness)
    dim = dimension(g)
    if lam_size is None or dim != lam_size ** 2:
        raise InternalInvariantError("dimension is not |Lambda|^2")
    return NaimarkReport(True, c4, census, witness, chain, lam_size, dim)


@dataclass(frozen=True)
class CompositionFactor:
    """One elementary factor: its matrix index-set size and the line point used.

    ``size`` is None when the factor is a matrix algebra over a countably
    infinite index set (the line point is fed through an omega bundle).
    """

    size: int | None
    line_point: str


@dataclass(frozen=True)
class CompositionSeries:
    """Admissible pairs from (empty, empty) to (all vertices, empty)."""

    pairs: tuple[AdmissiblePair, ...]
    factors: tuple[CompositionFactor, ...]

    @property
    def length(self) -> int:
        return len(self.factors)


def composition_series(g: Graph, reverse: bool = False) -> CompositionSeries:
    """Build a composition series by repeated line-point extraction.

    Each step takes the first (or, with ``reverse``, the last) vertex of
    g that is a line point w of the quotient by the pair so far, and
    passes to the ideal of the saturation of w's tree there.  Requires an
    acyclic graph; then the series length matches the census.  By the two
    facts below no quotient is built: a step touches the vertices joining
    H and their in-bundles, scans the out-bundles of each vertex left one
    bundle out of H, and lists its pair; one pass certifies every pair.

    - Path counts carry over: a survivor keeps its ancestors and the
      bundles into it, so a factor's size is g's path count of the sink
      t ending w's line.
    - A step's saturation has one source: w's tree is its line, so it
      saturates as {t} does.  An edge into a breaking vertex has a twin
      into the gap sink, so no line passes one and no saturation reaches
      a gap sink: S stays empty and the next H saturates H + {t} in g.
    """
    if has_cycle(g):
        raise UnsupportedGraphError("graph has a cycle")
    vs, out, into, singular = g.vertices, g._out, g._into, set(_singular(g))
    exits = [len(es) for es in out]  # out-bundles with range outside H
    step, member, line_next, heap, stack = {}, [False] * len(vs), {}, [], list(range(len(vs)))
    sign, pairs, factors = -1 if reverse else 1, [AdmissiblePair(())], []
    while len(step) < len(vs):
        while stack:  # new line points (they only accrue), and breaking ones now ending a line
            u = stack.pop()
            if u in step or exits[u] > 1 or u in line_next and (exits[u] or line_next[u] is None):
                continue
            if exits[u]:  # via a line point r, unless r is breaking: emits, and is singular
                ((m, r),) = ((b.multiplicity, w) for b, w in out[u] if w not in step)
                if m != 1 or r not in line_next or exits[r] and r in singular:
                    continue
            line_next[u] = r if exits[u] else None
            heappush(heap, sign * u)
            stack.extend(w for _, w in into[u])
        while sign * heap[0] in step:
            heappop(heap)
        w = t = sign * heap[0]
        while exits[t]:
            t = line_next[t]
        factors.append(CompositionFactor(g._path_counts[t], vs[w]))
        for x in (joined := [t]):
            step[x], member[x] = len(pairs), True
            for _, u in into[x]:
                exits[u] -= 1
                stack.append(u)
                if not exits[u] and u not in singular:
                    joined.append(u)
        pairs.append(AdmissiblePair(tuple(compress(vs, member))))
    _certify_chain(g, step)
    return CompositionSeries(tuple(pairs), tuple(factors))


def _certify_chain(g: Graph, step: dict[int, int]) -> None:
    """Check in O(n + m) what ``admissible_pair`` checks on each H_i = {v : step[v] <= i}.

    ``step`` maps each position to its step.  All H_i are hereditary iff no bundle runs to a
    later step, and saturated iff each regular vertex joins by its last successor's step;
    S = {} is always a set of breaking vertices.
    """
    out, classes, regular, vs = g._out, g._classes, VertexClass.REGULAR, g.vertices
    for v, k in step.items():
        last = max([0, *(step[w] for _, w in out[v])])
        if last > k or last < k and classes[v] is regular:
            raise InternalInvariantError(f"pair {min(k, last)} is not admissible at {vs[v]!r}")


@dataclass(frozen=True)
class SpectrumEntry:
    """One irreducible representation: its class representative and dimension."""

    representative: BoundaryPath
    dimension: int | None


@dataclass(frozen=True)
class TrichotomyReport:
    """Which spectrum regime a graph falls into.

    ``case`` is "I" for acyclic graphs, whose spectrum is a finite set
    of points, one per shift-tail class (listed in ``spectrum``), and
    "III" when a cycle is present, which forces an uncountable
    spectrum.  Case II, a countably infinite spectrum, needs infinitely
    many vertices and cannot occur for the graphs handled here.
    """

    case: str
    census: ClassCensus
    spectrum: tuple[SpectrumEntry, ...] | None


def trichotomy(g: Graph) -> TrichotomyReport:
    census = enumerate_classes(g)
    if has_cycle(g):
        return TrichotomyReport("III", census, None)
    spectrum = tuple(SpectrumEntry(c.representative, c.size) for c in census.classes)
    return TrichotomyReport("I", census, spectrum)
