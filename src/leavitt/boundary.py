"""Boundary paths, the shift map, and shift-tail equivalence classes.

A boundary path is either a finite path ending at a singular vertex or an
infinite path.  Infinite paths of a finite graph that we can present
finitely are the eventually periodic ones, stored as a finite prefix plus
a repeating cycle.  The stored form is canonical: the cycle is primitive
(not a proper power of a shorter cycle) and the prefix is minimal (its
last edge never equals the cycle's last edge, which could otherwise be
absorbed by rotating the cycle).  With that normalization, structural
equality of ``BoundaryPath`` values is equality of the paths they denote.

Two boundary paths are shift-tail equivalent when some shifts of them
coincide.  Equivalence never holds across the finite/infinite divide;
finite boundary paths are equivalent iff they end at the same singular
vertex, and eventually periodic paths are equivalent iff their primitive
cycles are rotations of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .graph import (
    EdgeRef,
    Graph,
    Path,
    _paths_ending,
    _singular,
    count_entry_paths,
    count_paths_into,
    is_singular,
    render_path,
    simple_cycles,
    singular_vertices,
    strip_prefix,
    vertex_path,
)


@dataclass(frozen=True)
class BoundaryPath:
    """A finite singular path (cycle None) or an eventually periodic path.

    Values are assumed canonical; build them with ``boundary_path``.
    """

    prefix: Path
    cycle: tuple[EdgeRef, ...] | None = None


def _primitive_root(cycle: tuple[EdgeRef, ...]) -> tuple[EdgeRef, ...]:
    n = len(cycle)
    for p in range(1, n):
        if n % p == 0 and cycle == cycle[p:] + cycle[:p]:
            return cycle[:p]
    return cycle


def boundary_path(g: Graph, prefix: Path, cycle=None) -> BoundaryPath:
    """Validate and normalize a boundary path.

    For a finite boundary path the prefix must end at a singular vertex.
    For an eventually periodic path the cycle must start where the prefix
    ends and close up; it is reduced to its primitive root and the prefix
    is shortened while its last edge coincides with the cycle's last edge
    (rotating the cycle to keep the denoted infinite path fixed).
    """
    end = g._checked_range(prefix)
    if cycle is None:
        if not is_singular(g, end):
            raise ContractError(
                f"finite boundary paths must end at a singular vertex, not {end!r}"
            )
        return BoundaryPath(prefix, None)
    cycle = tuple(cycle)
    if not cycle:
        raise ContractError("a cycle must contain at least one edge")
    as_path = Path(edges=cycle)
    if g._checked_range(as_path) != (start := g.path_source(as_path)):
        raise ContractError("cycle does not close up")
    if start != end:
        raise ContractError("cycle must start where the prefix ends")
    cycle = _primitive_root(cycle)
    edges = prefix.edges
    n = len(cycle)
    # absorbing k edges rotates the cycle right by k: count them, rotate once
    k = 0
    while k < len(edges) and edges[-1 - k] == cycle[-1 - k % n]:
        k += 1
    cut = n - k % n
    cycle = cycle[cut:] + cycle[:cut]
    if k < len(edges):
        prefix = Path(edges=edges[: len(edges) - k])
    else:
        prefix = vertex_path(g.source_of(cycle[0]))
    return BoundaryPath(prefix, cycle)


def shift(g: Graph, b: BoundaryPath) -> BoundaryPath:
    """Drop the first edge; length-0 finite boundary paths are fixed points."""
    if b.prefix.length:
        return BoundaryPath(strip_prefix(g, b.prefix, Path(edges=b.prefix.edges[:1])), b.cycle)
    if b.cycle is None:
        return b
    # Purely periodic: the cycle rotates by one.
    first = b.cycle[0]
    return BoundaryPath(vertex_path(g.range_of(first)), b.cycle[1:] + (first,))


def st_equivalent(g: Graph, a: BoundaryPath, b: BoundaryPath) -> bool:
    """Shift-tail equivalence of two canonical boundary paths."""
    if (a.cycle is None) != (b.cycle is None):
        return False
    if a.cycle is None:
        return g.path_range(a.prefix) == g.path_range(b.prefix)
    # b's cycle is a rotation of a's iff it occurs in a's read twice: a
    # linear string search over per-edge codes, each closed by a comma
    code = {}

    def text(cycle):
        return "".join(f"{code.setdefault(e, len(code))}," for e in cycle)

    return len(a.cycle) == len(b.cycle) and "," + text(b.cycle) in "," + text(a.cycle) * 2


@dataclass(frozen=True)
class TailClass:
    """One shift-tail class: a representative and the class size.

    ``size`` is None when the class contains countably many boundary
    paths.
    """

    representative: BoundaryPath
    size: int | None


@dataclass(frozen=True)
class ClassCensus:
    """The shift-tail classes of a graph.

    Either ``uncountable`` is set (and ``classes`` is empty), or
    ``classes`` lists every class: one finite class per singular vertex
    and one eventually periodic class per rotation class of simple cycle.
    """

    uncountable: bool
    classes: tuple[TailClass, ...]

    @property
    def count(self) -> int | None:
        return None if self.uncountable else len(self.classes)


def enumerate_classes(g: Graph) -> ClassCensus:
    """Census of shift-tail classes.

    The class set is uncountable iff some strongly connected component
    contains two distinct simple cycles; otherwise it is finite, with one
    class per singular vertex and one per rotation class of simple cycle.
    The census is taken once per ``Graph`` instance and kept in its
    ``__dict__``: a graph is immutable and the census frozen, so every
    later call returns the same object.
    """
    census = g.__dict__.get("_census")
    if census is None:
        census = g.__dict__["_census"] = _census(g)
    return census


def _census(g: Graph) -> ClassCensus:
    """``enumerate_classes``, taken afresh."""
    if g._doubled:
        return ClassCensus(True, ())
    classes = []
    for v in singular_vertices(g):
        rep = BoundaryPath(vertex_path(v), None)
        classes.append(TailClass(rep, count_paths_into(g, v)))
    # every component is a lone cycle or trivial, so every cycle bundle has
    # multiplicity 1: the simple cycles are the lone cycles, each listed once
    for cyc in simple_cycles(g):
        rep = boundary_path(g, vertex_path(g.source_of(cyc[0])), cyc)
        # a member is a minimal prefix and a rotation: the vertex path at
        # a cycle vertex, or a path entering the cycle (its SCC) there
        entries = count_entry_paths(g, [g.source_of(e) for e in cyc])
        classes.append(TailClass(rep, None if entries is None else len(cyc) + entries))
    return ClassCensus(False, tuple(classes))


def class_of(g: Graph, census: ClassCensus, b: BoundaryPath) -> int:
    """Index of the census class containing ``b``."""
    for i, cls in enumerate(census.classes):
        if st_equivalent(g, cls.representative, b):
            return i
    raise ContractError("boundary path belongs to no census class")


def render_boundary_path(g: Graph, b: BoundaryPath) -> str:
    if b.cycle is None:
        return render_path(g, b.prefix)
    head = "" if b.prefix.length == 0 else render_path(g, b.prefix)
    return f"{head}({render_path(g, Path(edges=b.cycle))})^oo"


def finite_boundary_paths(g: Graph) -> tuple[BoundaryPath, ...]:
    """All finite boundary paths, sorted; requires every singular class finite."""
    return tuple(BoundaryPath(p, None) for p in _paths_ending(g, _singular(g), {}))
