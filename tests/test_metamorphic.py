"""Metamorphic sweeps: rewrites of a presentation that leave every count fixed.

Merging parallel bundles into one bundle of summed multiplicity (omega
absorbs) keeps the edges, and renaming nothing but the declared order of
vertices and bundles keeps the graph.  Neither may move the census count
or its multiset of class sizes, the number of admissible pairs or of line
points, acyclicity, or the Naimark decision with |Lambda| and the
dimension.  The sample is every 4th base graph of the sweep and every
32nd of its single-omega promotions.
"""

from leavitt import (
    OMEGA,
    Bundle,
    Graph,
    enumerate_admissible_pairs,
    enumerate_classes,
    has_cycle,
    is_omega,
    line_points,
    naimark_decision,
)

from sweeputil import base_graphs, omega_promotion


def sample():
    promoted = 0  # single-omega promotions passed so far
    for i, g in enumerate(base_graphs()):
        if i % 4 == 0:
            yield g
        for j in range(-promoted % 32, len(g.bundles), 32):
            yield omega_promotion(g, j)
        promoted += len(g.bundles)


def counts(g):
    census = enumerate_classes(g)
    sizes = sorted((c.size is None, c.size or 0) for c in census.classes)
    report = naimark_decision(g)
    return (
        census.count,
        sizes,
        len(enumerate_admissible_pairs(g)),
        len(line_points(g)),
        has_cycle(g),
        report.holds,
        report.lam_size,
        report.dimension,
    )


def merge_parallel(g):
    merged = {}  # (source, range) -> first bundle of that pair, its multiplicity summed
    for b in g.bundles:
        first = merged.get((b.source, b.range))
        if first is None:
            merged[b.source, b.range] = b
            continue
        m = OMEGA if is_omega(first.multiplicity) or is_omega(b.multiplicity) else (
            first.multiplicity + b.multiplicity
        )
        merged[b.source, b.range] = Bundle(first.name, b.source, b.range, m)
    return Graph(g.vertices, tuple(merged.values()))


def permute(g, rng):
    return Graph(
        tuple(rng.sample(g.vertices, len(g.vertices))),
        tuple(rng.sample(g.bundles, len(g.bundles))),
    )


def test_merging_and_permuting_keep_every_count(rng):
    failures = []
    merged = 0
    for g in sample():
        expected = counts(g)
        h = merge_parallel(g)
        if len(h.bundles) < len(g.bundles):
            merged += 1
            if counts(h) != expected:
                failures.append(("merged", g))
        if counts(permute(g, rng)) != expected:
            failures.append(("permuted", g))
    assert merged > 1000
    assert not failures, f"{len(failures)} rewrites change a count, first: {failures[0]}"
