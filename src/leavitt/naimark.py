"""Uniqueness decision, composition series and the spectrum trichotomy.

A graph algebra has exactly one irreducible representation up to
equivalence iff the graph is acyclic and all boundary paths form a
single shift-tail class; equivalently, iff some line point's reachability
tree saturates to the whole vertex set.  In the positive case the
algebra is the full matrix algebra over the matrix-unit index set of the
witnessing line point.

When the class census is finite, iterating the witness extraction inside
successive quotient graphs builds a composition series of admissible
pairs whose elementary factors are matrix algebras; its length equals
the class count.  With a cycle present the spectrum is uncountable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import BoundaryPath, ClassCensus, enumerate_classes
from .errors import InternalInvariantError, UnsupportedGraphError
from .graph import (
    Graph,
    has_cycle,
    line_points,
    saturate,
    saturation_stages,
    tree_of,
)
from .ideals import AdmissiblePair, admissible_pair, quotient_with_map
from .repn import lambda_size


def _condition4(g: Graph, census: ClassCensus) -> bool:
    return not has_cycle(g) and census.count == 1


def check_condition4(g: Graph) -> bool:
    """No cycles and a single shift-tail class of boundary paths."""
    # a cycle decides it before any census is taken
    return not has_cycle(g) and _condition4(g, enumerate_classes(g))


def check_condition5(g: Graph) -> str | None:
    """First line point whose tree saturates to every vertex, if any."""
    full = set(g.vertices)
    for v in line_points(g):
        if set(saturate(g, tree_of(g, v))) == full:
            return v
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
    from .algebra import dimension

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


def _lift_pair(g: Graph, pair: AdmissiblePair, origin, closed) -> AdmissiblePair:
    """Pull a saturated hereditary set of the quotient back to a pair of g.

    A surviving vertex with a gap twin splits its projection into the gap
    part (carried by the twin) and the escaping part (implied once the
    escaping ranges die), so it joins H only together with its twin.
    Plain survivors join H outright; absorbed gap sinks put their
    breaking vertex into S.  A vertex slated for S whose escaping edges
    all end up inside the enlarged H carries a projection that now lies
    in the ideal, so it migrates into H, and saturation is re-run until
    stable.
    """
    gap_of = {v: q for q, (kind, v) in origin.items() if kind == "gap"}
    closed_set = set(closed)
    h = set(pair.h)
    pending = set(pair.s)
    for q in closed:
        kind, v = origin[q]
        if kind == "gap":
            pending.add(v)
        elif v not in gap_of or gap_of[v] in closed_set:
            h.add(v)
    while True:
        h = set(saturate(g, h))
        moved = False
        for v in sorted(pending - h):
            if all(b.range in h for b in g.out_bundles(v)):
                h.add(v)
                moved = True
        if not moved:
            break
    return admissible_pair(g, h, pending - h)


def composition_series(g: Graph, reverse: bool = False) -> CompositionSeries:
    """Build a composition series by repeated line-point extraction.

    Each step picks the first (or, with ``reverse``, the last) line point
    of the current quotient graph that is a surviving original vertex,
    takes the saturation of its tree there, and lifts the resulting ideal
    to an admissible pair of the original graph.  Requires an acyclic
    graph; then the census is finite and the series length matches it.
    """
    if has_cycle(g):
        raise UnsupportedGraphError("graph has a cycle")
    pair = admissible_pair(g, (), ())
    pairs = [pair]
    factors = []
    while set(pair.h) != set(g.vertices):
        quotient, origin = quotient_with_map(g, pair)
        candidates = [
            w for w in line_points(quotient) if origin[w][0] == "real"
        ]
        if not candidates:
            raise InternalInvariantError("quotient graph has no surviving line point")
        w = candidates[-1] if reverse else candidates[0]
        closed = saturate(quotient, tree_of(quotient, w))
        new_pair = _lift_pair(g, pair, origin, closed)
        if set(new_pair.h) == set(pair.h) and set(new_pair.s) == set(pair.s):
            raise InternalInvariantError("composition step did not grow the ideal")
        factors.append(CompositionFactor(lambda_size(quotient, w), origin[w][1]))
        pair = new_pair
        pairs.append(pair)
    if pair.s:
        raise InternalInvariantError("terminal pair retains breaking vertices")
    return CompositionSeries(tuple(pairs), tuple(factors))


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
