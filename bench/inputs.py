"""Seeded inputs of each workload, built without leavitt.

``build`` is what a fresh benchmark process does before its first op,
besides importing leavitt, so ``setup_s`` times exactly this module's
work: drawing the sweep sample, writing the scaling documents, and
drawing the matrices graphs and random elements.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import families

# Graphs per sweep round, drawn in proportion from every (vertex count,
# bundle count) block of the family, so that two seeds differ only in
# which graphs of a block they draw.
SWEEP_ROUND = 6000

# (family, sizes, command); every graph runs in text mode and with --json.
SCALING_LADDER = (
    ("line", (40, 80, 120, 150), "naimark"),
    ("complete", (5, 6, 7, 8, 9), "classes"),
    ("comb", (4, 5, 6, 7, 8), "ideals"),
    ("comb", (10, 20, 40), "compseries"),
    ("binary_tree", (3, 4, 5), "compseries"),
    ("diamond_chain", (5, 7, 9, 11), "naimark"),
)

BROOM_LAMBDAS = (8, 12, 16, 20, 24)
REP_GRAPHS = (
    ("binary_tree", 3),
    ("binary_tree", 4),
    ("binary_tree", 5),
    ("binary_tree", 6),
    ("diamond_chain", 2),
    ("diamond_chain", 3),
    ("diamond_chain", 4),
)
# (family, size): two element ops on each graph.  One op handles
# ELEMENT_PAIRS pairs, so that the random shapes of single elements
# average out and the op's time hardly depends on the seed.
ELEMENT_GRAPHS = (("binary_tree", 3), ("diamond_chain", 3), ("comb", 5))
ELEMENT_OPS_PER_GRAPH = 2
ELEMENT_PAIRS = 24
ELEMENT_TERMS = 6


def sweep_positions(rng: random.Random, total: int = SWEEP_ROUND) -> list[int]:
    """Seeded positions in the family, stratified by (vertex count, bundle count)."""
    positions = []
    start = 0
    for _, k, count in families.sweep_blocks():
        block = count * (1 + k)
        take = max(1, round(total * block / families.SWEEP_SIZE))
        positions += rng.sample(range(start, start + block), min(take, block))
        start += block
    rng.shuffle(positions)
    return positions


def sweep(seed: int) -> list[tuple]:
    """[("sweep", position, description)] in seeded order."""
    positions = sweep_positions(random.Random(seed))
    return [("sweep", p, d) for p, d in zip(positions, families.sweep_sample(positions))]


def scaling(seed: int, workdir: str) -> list[tuple]:
    """[(command, family, size, description, document path, json flag)]; the seed names vertices."""
    rng = random.Random(seed)
    out = []
    for family, sizes, command in SCALING_LADDER:
        for size in sizes:
            desc = getattr(families, family)(size, rng)
            path = os.path.join(workdir, f"{family}-{size}-{command}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(families.document(desc), fh)
            for as_json in (False, True):
                out.append((command, family, size, desc, path, as_json))
    return out


def _random_path_into(rng, edges_into, t, max_len):
    """A random path ending at ``t``, as edge names, built backwards from ``t``."""
    path = []
    v = t
    for _ in range(rng.randint(0, max_len)):
        if not edges_into[v]:
            break
        name, s = rng.choice(edges_into[v])
        path.insert(0, name)
        v = s
    return tuple(path)


def random_element(rng, desc, terms=ELEMENT_TERMS):
    """Terms (coefficient, alpha, beta, range) with alpha, beta random paths into one vertex."""
    vertices, edges = desc
    edges_into = {v: [] for v in vertices}
    for name, s, r, _ in edges:
        edges_into[r].append((name, s))
    out = []
    for _ in range(terms):
        r = rng.choice(vertices)
        alpha = _random_path_into(rng, edges_into, r, 4)
        beta = _random_path_into(rng, edges_into, r, 4)
        coef = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        out.append((coef, alpha, beta, r))
    return out


def matrices(seed: int) -> list[tuple]:
    """("broom", lam, desc, witness) | ("rep", name, desc) | ("elements", name, desc, pairs)."""
    rng = random.Random(seed)
    out = []
    for lam in BROOM_LAMBDAS:
        # The split between handle and bristles moves the op's time by up
        # to 30 %, so it is fixed; the seed only names the vertices.
        handle = lam // 2
        desc = families.broom(handle, lam - handle, rng)
        out.append(("broom", lam, desc, desc[0][handle - 1]))
    for family, size in REP_GRAPHS:
        out.append(("rep", f"{family}({size})", getattr(families, family)(size, rng)))
    for family, size in ELEMENT_GRAPHS:
        desc = getattr(families, family)(size, rng)
        for i in range(ELEMENT_OPS_PER_GRAPH):
            pairs = [
                (random_element(rng, desc), random_element(rng, desc))
                for _ in range(ELEMENT_PAIRS)
            ]
            out.append(("elements", f"{family}({size}) #{i}", desc, pairs))
    return out


def build(workload: str, seed: int, workdir: str) -> list[tuple]:
    if workload == "sweep":
        return sweep(seed)
    if workload == "scaling":
        return scaling(seed, workdir)
    if workload == "matrices":
        return matrices(seed)
    raise ValueError(f"unknown workload {workload!r}")
