"""Graph descriptions for the benchmark workloads.

A description is a plain pair ``(vertices, edges)``: a tuple of vertex
names and a tuple of ``(name, source, range, multiplicity)`` edges, with
multiplicity a positive int or the string ``"omega"``.  Descriptions
carry no leavitt objects, so every op builds its ``Graph`` afresh from
one, and the oracles in ``oracles.py`` read them without leavitt.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb as binomial

SWEEP_VERTEX_NAMES = ("a", "b", "c", "d")
SWEEP_SIZE = 127771


def sweep_blocks(max_vertices=4, max_bundles=5):
    """(vertex count, bundle count, base graphs) in sweep order."""
    for n in range(1, max_vertices + 1):
        for k in range(max_bundles + 1):
            yield n, k, binomial(n * n + k - 1, k)


def sweep_sample(indices) -> list[tuple]:
    """The sweep graphs at the given positions of the exhaustive family.

    The family lists every multiset of at most 5 (source, range) pairs
    over at most 4 vertices, each base graph followed by its
    single-bundle omega promotions, in the order the tier-1 sweep uses.
    Whole blocks that hold no wanted position are skipped by counting.
    """
    wanted = sorted(set(indices))
    found = {}
    pos = 0
    w = 0
    for n, k, count in sweep_blocks():
        block = count * (1 + k)
        if w >= len(wanted):
            break
        if wanted[w] >= pos + block:
            pos += block
            continue
        vs = SWEEP_VERTEX_NAMES[:n]
        pairs = [(s, r) for s in vs for r in vs]
        for combo in combinations_with_replacement(pairs, k):
            if w < len(wanted) and wanted[w] < pos + 1 + k:
                base = tuple((f"e{i}", s, r, 1) for i, (s, r) in enumerate(combo))
                while w < len(wanted) and wanted[w] < pos + 1 + k:
                    j = wanted[w] - pos
                    edges = base
                    if j:
                        name, s, r, _ = base[j - 1]
                        edges = base[: j - 1] + ((name, s, r, "omega"),) + base[j:]
                    found[wanted[w]] = (vs, edges)
                    w += 1
            pos += 1 + k
    if w != len(wanted):
        raise ValueError(f"sweep positions out of range: {wanted[w:]}")
    return [found[i] for i in indices]


def is_promotion(desc) -> bool:
    return any(m == "omega" for *_, m in desc[1])


def _names(prefix: str, n: int, rng) -> list[str]:
    """``n`` distinct vertex names, assigned to positions by a seeded permutation."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return [f"{prefix}{p}" for p in perm]


def line(n: int, rng=None):
    """v0 -> v1 -> ... -> v(n-1): |Lambda| = n."""
    v = _names("v", n, rng)
    return tuple(v), tuple((f"e{i}", v[i], v[i + 1], 1) for i in range(n - 1))


def complete(n: int, rng=None):
    """The complete digraph K_n without loops: uncountable for n >= 3."""
    v = _names("v", n, rng)
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j:
                edges.append((f"e{i}_{j}", v[i], v[j], 1))
    return tuple(v), tuple(edges)


def comb(k: int, rng=None):
    """Spine s1 -> ... -> sk with a tooth sink t_i under each s_i.

    Its saturated hereditary sets are a spine tail {s_j..s_k, t_j..t_k}
    (possibly empty) plus any teeth t_i with i < j - 1 (t_(j-1) would
    saturate s_(j-1)): 1 + (2^(k-1) - 1) + 2^(k-1) = 2^k sets.  No vertex
    is an infinite emitter, so the admissible pairs number 2^k too.
    """
    s = _names("s", k, rng)
    t = _names("t", k, rng)
    edges = [(f"f{i}", s[i], s[i + 1], 1) for i in range(k - 1)]
    edges += [(f"g{i}", s[i], t[i], 1) for i in range(k)]
    return tuple(s) + tuple(t), tuple(edges)


def binary_tree(depth: int, rng=None):
    """Root with two children per internal vertex; 2^depth leaves."""
    n = 2 ** (depth + 1) - 1
    v = _names("n", n, rng)
    edges = []
    for i in range((n - 1) // 2):
        edges.append((f"l{i}", v[i], v[2 * i + 1], 1))
        edges.append((f"r{i}", v[i], v[2 * i + 2], 1))
    return tuple(v), tuple(edges)


def diamond_chain(k: int, rng=None):
    """c0 => c1 => ... => ck, each step through two middle vertices.

    The sink ck is fed by 2^(k-i) paths from each c_i and from each
    middle vertex above c_i, so |Lambda| = 2^(k+2) - 3.
    """
    c = _names("c", k + 1, rng)
    a = _names("a", k, rng)
    b = _names("b", k, rng)
    edges = []
    for i in range(k):
        edges.append((f"p{i}", c[i], a[i], 1))
        edges.append((f"q{i}", c[i], b[i], 1))
        edges.append((f"x{i}", a[i], c[i + 1], 1))
        edges.append((f"y{i}", b[i], c[i + 1], 1))
    return tuple(c) + tuple(a) + tuple(b), tuple(edges)


def broom(handle: int, bristles: int, rng=None):
    """A line w0 -> ... -> w(handle-1) fed at w0 by ``bristles`` sources.

    |Lambda| = handle + bristles at every line point.
    """
    w = _names("w", handle, rng)
    x = _names("x", bristles, rng)
    edges = [(f"e{i}", w[i], w[i + 1], 1) for i in range(handle - 1)]
    edges += [(f"h{j}", x[j], w[0], 1) for j in range(bristles)]
    return tuple(w) + tuple(x), tuple(edges)


def document(desc) -> dict:
    """The CLI's JSON graph document for a description."""
    vertices, edges = desc
    out = []
    for name, s, r, m in edges:
        entry = {"name": name, "source": s, "range": r}
        if m != 1:
            entry["multiplicity"] = m
        out.append(entry)
    return {"vertices": list(vertices), "edges": out}
