"""Seeded input generators for the threshknap benchmark.

This module imports nothing from ``threshknap``: the inputs must not change
when the package's own generators (``gen``, ``threshold_to_kp``) change.
Everything is a pure function of a ``random.Random`` stream, so one seed
gives byte-identical files.

Vertex sets are Python int bitmasks (bit v-1 stands for vertex v), the same
encoding the checkers use.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


def popcount(m):
    return bin(m).count("1")


def bits_of(m):
    """Vertices (1-based) of a mask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return out


@dataclass(frozen=True)
class Sequence:
    """Creation sequence: bits[i] is t_{i+1}, vmap[i] is v(i+1)."""

    bits: str
    vmap: tuple

    @property
    def n(self):
        return len(self.bits)

    def adjacency(self):
        """Per-vertex neighbour masks, index v-1.  v(i) sees every earlier
        vertex when t_i = 1 and every later 1-bit vertex."""
        n = self.n
        adj = [0] * n
        later_ones = 0
        for i in range(n - 1, -1, -1):
            v = self.vmap[i]
            adj[v - 1] |= later_ones
            if self.bits[i] == "1":
                later_ones |= 1 << (v - 1)
        earlier = 0
        for i in range(n):
            v = self.vmap[i]
            if self.bits[i] == "1":
                adj[v - 1] |= earlier
            earlier |= 1 << (v - 1)
        return adj

    def mis_masks(self):
        """Maximal independent sets: v(i) plus the 0-bit vertices after it,
        one per 1-bit position i."""
        out = []
        zeros_after = 0
        for i in range(self.n - 1, -1, -1):
            vb = 1 << (self.vmap[i] - 1)
            if self.bits[i] == "1":
                out.append(zeros_after | vb)
            else:
                zeros_after |= vb
        return out

    def complement(self):
        """Sequence of the complement graph (bits after the first flipped)."""
        flipped = "".join("1" if b == "0" else "0" for b in self.bits[1:])
        return Sequence("1" + flipped, self.vmap)

    def text(self):
        return self.bits + "\nv " + " ".join(map(str, self.vmap)) + "\n"

    def relabel(self, perm):
        """The same sequence with vertex v renamed perm[v-1]."""
        return Sequence(self.bits, tuple(perm[v - 1] for v in self.vmap))


def permutation(rng, n, fixed=0):
    """Random renaming of 1..n that keeps the top `fixed` labels."""
    perm = list(range(1, n - fixed + 1))
    rng.shuffle(perm)
    return tuple(perm) + tuple(range(n - fixed + 1, n + 1))


def relabel_adjacency(adj, perm):
    out = [0] * len(adj)
    for u, nbrs in enumerate(adj, start=1):
        out[perm[u - 1] - 1] = sum(1 << (perm[v - 1] - 1) for v in bits_of(nbrs))
    return out


def random_sequence(rng, n):
    """Uniform bits after the leading 1, uniformly shuffled labels."""
    bits = "1" + "".join(rng.choice("01") for _ in range(n - 1))
    vmap = list(range(1, n + 1))
    rng.shuffle(vmap)
    return Sequence(bits, tuple(vmap))


def superincreasing(seq):
    """Sizes per position and capacity of the knapsack row whose conflict
    graph is the sequence's graph: a 0-bit doubles every earlier size and
    the capacity (c -> 2c + 1) and takes size 1, a 1-bit takes the current
    capacity.  Computed left to right, then shifted by the later 0-bits."""
    base = []
    c = 1
    for i, b in enumerate(seq.bits):
        if i == 0:
            base.append(1)
        elif b == "0":
            c = 2 * c + 1
            base.append(1)
        else:
            base.append(c)
    sizes = [0] * seq.n
    zeros = 0
    for i in range(seq.n - 1, -1, -1):
        sizes[i] = base[i] << zeros
        if seq.bits[i] == "0":
            zeros += 1
    return sizes, c


# ---------------------------------------------------------------------------
# graph files


def graph_text(n, adj):
    lines = []
    for u in range(1, n + 1):
        higher = adj[u - 1] >> u
        v = u + 1
        while higher:
            if higher & 1:
                lines.append(f"e {u} {v}")
            higher >>= 1
            v += 1
    return f"p {n} {len(lines)}\n" + "\n".join(lines) + ("\n" if lines else "")


def add_edge(adj, u, v):
    adj[u - 1] |= 1 << (v - 1)
    adj[v - 1] |= 1 << (u - 1)


def is_threshold(adj):
    """Peel isolated or dominating vertices until none is left."""
    remaining = (1 << len(adj)) - 1
    while remaining:
        size = popcount(remaining)
        for v in bits_of(remaining):
            d = popcount(adj[v - 1] & remaining)
            if d == 0 or d == size - 1:
                remaining &= ~(1 << (v - 1))
                break
        else:
            return False
    return True


def is_split(adj):
    """Hammer-Simeone: with degrees d_1 >= ... >= d_n and m the largest i
    with d_i >= i - 1, split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i."""
    degs = sorted((popcount(a) for a in adj), reverse=True)
    m = max((i for i, d in enumerate(degs, start=1) if d >= i - 1), default=0)
    return sum(degs[:m]) == m * (m - 1) + sum(degs[m:])


def random_graph(rng, n, accept):
    """G(n, 1/2) redrawn until `accept(adj)` holds."""
    while True:
        adj = [0] * n
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    add_edge(adj, u, v)
        if accept(adj):
            return adj


def planted_cycle(rng, n, length):
    """A split graph on labels 1..n-length (a threshold graph when length is
    4) plus a cycle C_length on the top labels, joined to the clique side
    and to nothing else.  The cycle is then the only induced 2K2, P4, C4
    (length 4) or 2K2, C4, C5 (length 5), and it is the last subset a
    lexicographic scan reaches."""
    base = n - length
    adj = [0] * n
    if length == 4:
        seq = random_sequence(rng, base)
        adj[:base] = seq.adjacency()
        clique = [seq.vmap[i] for i in range(base) if seq.bits[i] == "1"]
    else:
        labels = list(range(1, base + 1))
        rng.shuffle(labels)
        cut = rng.randint(1, base - 1)
        clique, indep = labels[:cut], labels[cut:]
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                add_edge(adj, u, v)
            for s in indep:
                if rng.random() < 0.5:
                    add_edge(adj, u, s)
    ring = list(range(base + 1, n + 1))
    for i, u in enumerate(ring):
        add_edge(adj, u, ring[(i + 1) % length])
        for k in clique:
            add_edge(adj, u, k)
    return adj


# ---------------------------------------------------------------------------
# knapsack instances


@dataclass(frozen=True)
class Instance:
    """Items a1..an; sizes[d][v-1] is the size of item a_v in dimension d."""

    profits: tuple
    sizes: tuple
    capacities: tuple

    @property
    def n(self):
        return len(self.profits)

    def text(self):
        """Instance JSON: the singular one-dimensional form for one row."""
        ids = [f"a{v}" for v in range(1, self.n + 1)]
        rows = list(zip(*self.sizes))
        if len(self.capacities) == 1:
            obj = {
                "capacity": str(self.capacities[0]),
                "items": [
                    {"id": i, "profit": str(p), "size": str(s[0])}
                    for i, p, s in zip(ids, self.profits, rows)
                ],
            }
        else:
            obj = {
                "capacities": [str(c) for c in self.capacities],
                "items": [
                    {"id": i, "profit": str(p), "sizes": [str(x) for x in s]}
                    for i, p, s in zip(ids, self.profits, rows)
                ],
            }
        return json.dumps(obj, indent=1) + "\n"

    def relabel(self, perm):
        """The same instance with item a_v renamed a_perm[v-1]."""

        def move(values):
            out = [None] * len(values)
            for v, x in enumerate(values, start=1):
                out[perm[v - 1] - 1] = x
            return tuple(out)

        return Instance(move(self.profits), tuple(move(d) for d in self.sizes), self.capacities)

    def unit_view(self):
        """Every dimension divided by its capacity."""
        sizes = tuple(
            tuple(s / c for s in dim) for dim, c in zip(self.sizes, self.capacities)
        )
        return Instance(self.profits, sizes, tuple(Fraction(1) for _ in sizes))


def equivalent_instance(rng, seqs):
    """One superincreasing row per sequence, each scaled by its own random
    rational; item a_v takes the size of vertex v's position.  Every row is
    equivalent to its conflict graph, so the whole instance is too."""
    n = seqs[0].n
    profits = tuple(Fraction(rng.randint(0, 3 * n)) for _ in range(n))
    sizes, caps = [], []
    for seq in seqs:
        pos_sizes, c = superincreasing(seq)
        q = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        dim = [Fraction(0)] * n
        for i, v in enumerate(seq.vmap):
            dim[v - 1] = pos_sizes[i] * q
        sizes.append(tuple(dim))
        caps.append(c * q)
    return Instance(profits, tuple(sizes), tuple(caps))


def small_number_instance(rng, n, top=10**4):
    """Integer sizes in [1, top] and a capacity in [top, 1.1 top]: many
    small items fit pairwise but not together, so the row is typically not
    equivalent to its conflict graph, which has about n^2/4 edges."""
    profits = tuple(Fraction(rng.randint(0, 3 * n)) for _ in range(n))
    sizes = tuple(Fraction(rng.randint(1, top)) for _ in range(n))
    return Instance(profits, (sizes,), (Fraction(rng.randint(top, top + top // 10)),))


def cover_text(seqs):
    return f"k {len(seqs)}\n" + "".join(s.text() for s in seqs)


def size_bits(inst):
    """Bit length of the largest size numerator."""
    return max(
        (s.numerator.bit_length() for dim in inst.sizes for s in dim), default=0
    )

