"""Output certifiers for the threshknap benchmark.

Each `check_*` function takes the captured stdout of one CLI call plus what
the generator knows about the input, and raises `CheckFailure` when the
output is wrong.  Nothing here calls the package under test: references are
rebuilt from the generator's own sequences and sizes.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from operator import and_, or_

from gen import Sequence, bits_of, popcount


class CheckFailure(Exception):
    """An output that fails certification."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _ints(tokens, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise CheckFailure(f"non-integer {what}: {tokens[:5]}") from None


def _json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckFailure(f"output is not JSON: {e}") from None


def _fraction(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise CheckFailure(f"not a rational: {text!r}") from None


# ---------------------------------------------------------------------------
# graph outputs


def parse_graph_masks(text):
    """Adjacency masks of text in the `p n m` / `e u v` format."""
    lines = text.splitlines()
    require(lines and lines[0].startswith("p "), "graph text lacks its header")
    n, m = _ints(lines[0].split()[1:], "graph header")
    require(len(lines) == m + 1, f"header promises {m} edges, found {len(lines) - 1}")
    adj = [0] * n
    for line in lines[1:]:
        tag, *uv = line.split()
        u, v = _ints(uv, "edge")
        require(tag == "e" and 1 <= u < v <= n, f"bad edge line {line!r}")
        require(not adj[u - 1] >> (v - 1) & 1, f"duplicate edge {line!r}")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def check_sequence(text, adj):
    """A printed creation sequence must rebuild exactly the input graph."""
    lines = text.splitlines()
    require(len(lines) == 2 and lines[1].startswith("v "), "expected bits and a `v` line")
    bits = lines[0]
    vmap = tuple(_ints(lines[1].split()[1:], "vertex map"))
    n = len(adj)
    require(len(bits) == n and set(bits) <= {"0", "1"} and bits[0] == "1", "bad bit string")
    require(sorted(vmap) == list(range(1, n + 1)), "vertex map is not a permutation")
    require(Sequence(bits, vmap).adjacency() == adj, "sequence builds another graph")


def check_split(text, adj):
    """K must be a clique, S independent, and K, S a partition of V."""
    lines = text.splitlines()
    require(len(lines) == 2, "expected `K ...` and `S ...` lines")
    require(lines[0].split()[:1] == ["K"] and lines[1].split()[:1] == ["S"], "bad K/S lines")
    K = _ints(lines[0].split()[1:], "K")
    S = _ints(lines[1].split()[1:], "S")
    km, sm = mask_of(K), mask_of(S)
    full = (1 << len(adj)) - 1
    require(popcount(km) == len(K) and popcount(sm) == len(S), "repeated vertex")
    require(km & sm == 0 and km | sm == full, "K and S do not partition V")
    for v in K:
        require(adj[v - 1] & km == km & ~(1 << (v - 1)), f"K is not a clique at {v}")
    for v in S:
        require(adj[v - 1] & sm == 0, f"S is not independent at {v}")


SHAPES = {
    # tag: (vertices, edges, sorted degrees); these three facts fix the shape
    "2K2": (4, 2, [1, 1, 1, 1]),
    "P4": (4, 3, [1, 1, 2, 2]),
    "C4": (4, 4, [2, 2, 2, 2]),
    "C5": (5, 5, [2, 2, 2, 2, 2]),
}


def check_witness(text, adj, header, tags):
    """`header`, then `induced TAG: v1 v2 ...` naming an induced copy."""
    lines = text.splitlines()
    require(len(lines) == 2 and lines[0] == header, f"expected {header!r} and a witness")
    head, _, rest = lines[1].partition(": ")
    require(head.startswith("induced "), "bad witness line")
    tag = head[len("induced "):]
    require(tag in tags, f"witness tag {tag} not among {tags}")
    verts = _ints(rest.split(), "witness")
    count, edges, degs = SHAPES[tag]
    m = mask_of(verts)
    require(len(verts) == count and popcount(m) == count, "wrong witness size")
    require(all(1 <= v <= len(adj) for v in verts), "witness vertex out of range")
    got = sorted(popcount(adj[v - 1] & m) for v in verts)
    require(sum(got) == 2 * edges and got == degs, f"{verts} does not induce {tag}")


def parse_family(text):
    """Printed sets, one per line, as masks; the order must be canonical
    (size, then lexicographic) and free of repeats."""
    masks, keys = [], []
    for line in text.splitlines():
        vs = _ints(line.split(), "set member")
        keys.append((len(vs), vs))
        masks.append(mask_of(vs))
        require(vs == sorted(set(vs)) and vs, f"set not sorted or empty: {line!r}")
    require(all(a < b for a, b in zip(keys, keys[1:])), "family not in canonical order")
    return masks


def check_family(text, expected):
    got = parse_family(text)
    require(len(got) == len(expected), f"{len(got)} sets printed, {len(expected)} expected")
    require(set(got) == set(expected), "printed family differs from the reference")


def check_count(text, expected):
    require(text.strip() == str(expected), f"count {text.strip()!r}, expected {expected}")


# ---------------------------------------------------------------------------
# set-family references


def intersections(families):
    """Distinct nonempty intersections of one set from each family.  Every
    maximal independent set of a union of graphs is such an intersection
    of the members' maximal independent sets."""
    inters = set(families[0])
    for fam in families[1:]:
        inters = {a & b for a in inters for b in fam}
    inters.discard(0)
    return inters


def maximal_in(adj, sets):
    """The independent sets in `sets` that no vertex outside can join."""
    full = (1 << len(adj)) - 1
    out = []
    for m in sets:
        seen = m
        for v in bits_of(m):
            seen |= adj[v - 1]
        if seen == full:
            out.append(m)
    return out


def union_adjacency(seqs):
    return [reduce(or_, col) for col in zip(*(s.adjacency() for s in seqs))]


def intersection_adjacency(seqs):
    return [reduce(and_, col) for col in zip(*(s.adjacency() for s in seqs))]


def cover_mis(seqs):
    """Reference maximal independent sets of the union of the members."""
    inters = intersections([s.mis_masks() for s in seqs])
    return maximal_in(union_adjacency(seqs), inters)


def cover_mc(seqs):
    """Reference maximal cliques of the intersection: maximal independent
    sets of the union of the complements."""
    return cover_mis([s.complement() for s in seqs])


def omega_intersection(seqs):
    """Clique number of the intersection of the members."""
    fams = [s.complement().mis_masks() for s in seqs]
    return max(popcount(m) for m in intersections(fams))


def max_clique(adj):
    """Clique number: Bron-Kerbosch with pivoting on an explicit stack,
    cutting branches that cannot beat the best clique found so far."""
    best = 0
    stack = [(0, (1 << len(adj)) - 1)]
    while stack:
        size, cand = stack.pop()
        if size + popcount(cand) <= best:
            continue
        if not cand:
            best = size
            continue
        pivot = max(bits_of(cand), key=lambda u: popcount(adj[u - 1] & cand))
        for v in bits_of(cand & ~adj[pivot - 1]):
            stack.append((size + 1, cand & adj[v - 1]))
            cand &= ~(1 << (v - 1))
    return best


# ---------------------------------------------------------------------------
# knapsack outputs


def row_conflicts(sizes, cap):
    """Conflict masks of one row: j and k conflict when s_j + s_k > cap.
    In size order the conflicts of j form a suffix, found by bisection."""
    order = sorted(range(len(sizes)), key=lambda j: sizes[j])
    ordered = [sizes[j] for j in order]
    suffix = [0] * (len(order) + 1)
    for r in range(len(order) - 1, -1, -1):
        suffix[r] = suffix[r + 1] | 1 << order[r]
    adj = [0] * len(sizes)
    for j, s in enumerate(sizes):
        adj[j] = suffix[bisect_right(ordered, cap - s)] & ~(1 << j)
    return adj


def row_verdict(sizes, cap):
    """True when every pairwise-compatible set of items fits: for each item
    as the largest member, the largest compatible set around it is that item
    plus every smaller-ordered item it fits with."""
    order = sorted(sizes)
    prefix = [0]
    for s in order:
        prefix.append(prefix[-1] + s)
    for r, s in enumerate(order):
        fits = min(r, bisect_right(order, cap - s))
        if prefix[fits] + s > cap:
            return False
    return True


def _instance(text, n, d):
    """(ids, profits, sizes per dimension, capacities) of printed JSON."""
    obj = _json(text)
    if d == 1:
        require("capacity" in obj, "one-dimensional instance expected")
        caps = [_fraction(obj["capacity"])]
        sizes = [[_fraction(it["size"]) for it in obj["items"]]]
    else:
        caps = [_fraction(c) for c in obj["capacities"]]
        sizes = [[_fraction(it["sizes"][i]) for it in obj["items"]] for i in range(d)]
    ids = [it["id"] for it in obj["items"]]
    profits = [_fraction(it["profit"]) for it in obj["items"]]
    require(len(ids) == n, f"{len(ids)} items printed, {n} expected")
    return ids, profits, sizes, caps


def check_graph_to_kp(text, seq):
    """A graph-to-kp instance must have unit profits, the input graph as
    its conflict graph, and only feasible maximal independent sets."""
    n = seq.n
    ids, profits, (sizes,), (cap,) = _instance(text, n, 1)
    require(ids == [f"a{v}" for v in range(1, n + 1)], "item ids are not a1..an")
    require(all(p == 1 for p in profits), "profits are not all 1")
    require(row_conflicts(sizes, cap) == seq.adjacency(), "conflict graph differs from the input")
    for m in seq.mis_masks():
        require(sum(sizes[v - 1] for v in bits_of(m)) <= cap, "a maximal set overfills")


def check_report(text, inst, code):
    """`check` on a one-dimensional row: the verdict must match the row's
    own, the conflict graph must be the row's, and a witness must be
    oversized, pairwise compatible and minimal under single removals."""
    (sizes,), (cap,) = inst.sizes, inst.capacities
    obj = _json(text)
    equivalent = row_verdict(sizes, cap)
    require(obj.get("equivalent") is equivalent, f"verdict {obj.get('equivalent')}, expected {equivalent}")
    require(code == (0 if equivalent else 1), f"exit code {code}")
    adj = parse_graph_masks(obj["conflict_graph"])
    require(adj == row_conflicts(sizes, cap), "conflict graph differs from the row's")
    wit = obj["witness"]
    if equivalent:
        require(wit is None, "witness printed for an equivalent row")
        return
    index = {f"a{v}": v - 1 for v in range(1, inst.n + 1)}
    require(wit and len(set(wit)) == len(wit) and all(w in index for w in wit), "bad witness ids")
    ws = sorted(sizes[index[w]] for w in wit)
    require(sum(ws) > cap, "witness fits")
    require(len(ws) < 2 or ws[-1] + ws[-2] <= cap, "witness is not pairwise compatible")
    require(sum(ws) - ws[0] <= cap, "witness is not minimal")


def check_solution(text, inst, optimum, code):
    """Chosen items must fit in every dimension in exact arithmetic, the
    printed totals and profit must add up, and the profit must be optimal."""
    require(code == 0, f"exit code {code}")
    obj = _json(text)
    index = {f"a{v}": v - 1 for v in range(1, inst.n + 1)}
    chosen = obj["chosen"]
    require(len(set(chosen)) == len(chosen) and all(c in index for c in chosen), "bad chosen ids")
    totals = [sum((dim[index[c]] for c in chosen), Fraction(0)) for dim in inst.sizes]
    require(all(t <= c for t, c in zip(totals, inst.capacities)), "chosen set overfills")
    require([_fraction(t) for t in obj["dimension_totals"]] == totals, "wrong dimension totals")
    profit = _fraction(obj["profit"])
    require(profit == sum((inst.profits[index[c]] for c in chosen), Fraction(0)), "profit does not add up")
    require(profit == optimum, f"profit {profit}, optimum {optimum}")


def optimum(inst, seqs):
    """Best profit over the maximal independent sets of the union of the
    rows' conflict graphs (each row's graph is its sequence's graph), or 0."""
    profits = [int(p) for p in inst.profits]
    if len(seqs) == 1:
        best = 0
        zeros = 0
        seq = seqs[0]
        for i in range(seq.n - 1, -1, -1):
            p = profits[seq.vmap[i] - 1]
            if seq.bits[i] == "1":
                best = max(best, zeros + p)
            else:
                zeros += p
        return best
    inters = intersections([s.mis_masks() for s in seqs])
    return max([0] + [sum(profits[v - 1] for v in bits_of(m)) for m in inters])
