"""Exhaustive enumeration of small multigraphs for the property sweep.

A multigraph on n labelled vertices is a multiset of ordered
(source, range) pairs; every multiset of size <= 5 over <= 4 vertices is
generated once, with bundle names assigned in multiset order.  Promoting
a single bundle to omega gives the infinite-emitter variants.
"""

from itertools import combinations_with_replacement

from leavitt.graph import OMEGA, Bundle, Graph, has_cycle

VERTEX_NAMES = ("a", "b", "c", "d")


def base_graphs(max_vertices=4, max_bundles=5):
    for n in range(1, max_vertices + 1):
        vs = VERTEX_NAMES[:n]
        pairs = [(s, r) for s in vs for r in vs]
        for k in range(max_bundles + 1):
            for combo in combinations_with_replacement(pairs, k):
                bundles = tuple(
                    Bundle(f"e{i}", s, r) for i, (s, r) in enumerate(combo)
                )
                yield Graph(vs, bundles)


def omega_promotion(g, i):
    """``g`` with its i-th bundle promoted to omega."""
    b = g.bundles[i]
    promoted = Bundle(b.name, b.source, b.range, OMEGA)
    return Graph(g.vertices, g.bundles[:i] + (promoted,) + g.bundles[i + 1 :])


def omega_promotions(g):
    for i in range(len(g.bundles)):
        yield omega_promotion(g, i)


def sweep_graphs(max_vertices=4, max_bundles=5):
    """Base graphs interleaved with their single-omega promotions."""
    for g in base_graphs(max_vertices, max_bundles):
        yield g
        yield from omega_promotions(g)


def sampled_sweep_graphs(step, max_vertices=4, max_bundles=5):
    """Every ``step``-th graph of ``sweep_graphs``, building no promotion it skips."""
    i = 0
    for g in base_graphs(max_vertices, max_bundles):
        for j in range(-1, len(g.bundles)):
            if i % step == 0:
                yield g if j < 0 else omega_promotion(g, j)
            i += 1


def acyclic_sweep_graphs(max_vertices=4, max_bundles=5):
    """The acyclic sweep graphs, in sweep order; an omega promotion keeps its graph's cycles."""
    for g in base_graphs(max_vertices, max_bundles):
        if not has_cycle(g):
            yield g
            yield from omega_promotions(g)


def random_graph(rng, max_vertices=4, max_bundles=5, allow_omega=True):
    """One uniform-ish sample from the sweep family, for spot checks."""
    n = rng.randint(1, max_vertices)
    vs = VERTEX_NAMES[:n]
    k = rng.randint(0, max_bundles)
    bundles = []
    for i in range(k):
        mult = OMEGA if allow_omega and rng.random() < 0.15 else 1
        bundles.append(Bundle(f"e{i}", rng.choice(vs), rng.choice(vs), mult))
    return Graph(vs, tuple(bundles))
