"""Brute-force reference implementations used by the test suite.

Everything here is written for obviousness over speed: subset tables indexed
by bitmask, permutation scans, submask partition dynamic programs.  Each entry
point guards its input size with CapacityError instead of silently taking
forever.  The reference paths at the end are the library's earlier
polynomial algorithms, replaced by faster ones and kept here unchanged.
Nothing in the library proper depends on this module.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from .graphs import (
    CapacityError,
    Graph,
    GraphFormatError,
    canonical_family,
    complement,
    content_lines,
    mask_of,
)
from .knapsack import (
    DkpInstance,
    DkpItem,
    EquivalenceReport,
    InstanceFormatError,
    KpInstance,
    KpItem,
    NotEquivalentError,
    Solution,
    rational,
)
from .kthreshold import ThresholdCover
from .threshold import (
    CreationSequence,
    RecognitionFailure,
    complement_sequence,
    creation_sequence_to_graph,
    enumerate_mis,
)


def _guard(n, limit, what):
    if n > limit:
        raise CapacityError(f"{what} guarded at n <= {limit}, got n = {n}")


def independence_table(g):
    """bytearray over all 2^n vertex masks; 1 where the mask is independent."""
    _guard(g.n, 24, "subset table")
    adjm = g.masks
    tab = bytearray(1 << g.n)
    tab[0] = 1
    for m in range(1, 1 << g.n):
        low = m & -m
        rest = m ^ low
        tab[m] = tab[rest] and not (adjm[low.bit_length() - 1] & rest)
    return tab


def brute_independent_sets(g):
    tab = independence_table(g)
    return canonical_family(
        reference_set_of_mask(m) for m in range(1, 1 << g.n) if tab[m]
    )


def _maximal_independent_masks(g):
    tab = independence_table(g)
    adjm = g.masks
    full = (1 << g.n) - 1
    out = []
    for m in range(1, 1 << g.n):
        if not tab[m]:
            continue
        rest = full & ~m
        ok = True
        while rest:
            low = rest & -rest
            if not (adjm[low.bit_length() - 1] & m):
                ok = False
                break
            rest ^= low
        if ok:
            out.append(m)
    return out


def brute_maximal_independent_sets(g):
    masks = _maximal_independent_masks(g)
    return canonical_family(reference_set_of_mask(m) for m in masks)


def brute_alpha(g):
    tab = independence_table(g)
    return max((bin(m).count("1") for m in range(1 << g.n) if tab[m]), default=0)


def brute_maximum_independent_sets(g):
    tab = independence_table(g)
    a = brute_alpha(g)
    if a == 0:
        return []
    return canonical_family(
        reference_set_of_mask(m)
        for m in range(1, 1 << g.n)
        if tab[m] and bin(m).count("1") == a
    )


def brute_omega(g):
    return brute_alpha(complement(g))


def brute_maximal_cliques(g):
    return brute_maximal_independent_sets(complement(g))


def brute_count_independent_sets(g):
    """Number of nonempty independent sets, by branching on a max-degree
    vertex with memoization on the remaining-vertex mask.  Handles larger n
    than the subset table when the graph is dense."""
    _guard(g.n, 30, "independent-set counting")
    adjm = g.masks
    memo = {0: 0}

    def count(rem):
        got = memo.get(rem)
        if got is not None:
            return got
        best_v = -1
        best_deg = -1
        m = rem
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = bin(adjm[v] & rem).count("1")
            if deg > best_deg:
                best_deg = deg
                best_v = v
            m ^= low
        without = count(rem & ~(1 << best_v))
        closed = rem & ~(adjm[best_v] | (1 << best_v))
        total = without + count(closed) + 1
        memo[rem] = total
        return total

    return count((1 << g.n) - 1)


def brute_is_isomorphic(g1, g2):
    _guard(max(g1.n, g2.n), 8, "isomorphism scan")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degree(v) for v in g1.vertices) != sorted(
        g2.degree(v) for v in g2.vertices
    ):
        return False
    e2 = g2.edges
    for perm in permutations(range(1, g1.n + 1)):
        mapped = set()
        for (u, v) in g1.edges:
            a, b = perm[u - 1], perm[v - 1]
            mapped.add((a, b) if a < b else (b, a))
        if mapped == e2:
            return True
    return False


# ---------------------------------------------------------------------------
# knapsack-side oracles.  Instances are consumed structurally (items with
# .id/.profit and .size or .sizes, capacity or capacities).


def _int_sizes(sizes, capacity):
    """Scale rationals by the lcm of denominators; exact, and keeps the mask
    DPs on machine ints."""
    fracs = [Fraction(s) for s in sizes]
    cf = Fraction(capacity)
    mult = lcm(cf.denominator, *(f.denominator for f in fracs)) if fracs else cf.denominator
    return [int(f * mult) for f in fracs], int(cf * mult)


def _pair_conflict_masks(sizes, capacity):
    """bad[j] = mask of j' with s_j + s_j' > capacity (strict)."""
    n = len(sizes)
    bad = [0] * n
    for j in range(n):
        for k in range(j + 1, n):
            if sizes[j] + sizes[k] > capacity:
                bad[j] |= 1 << k
                bad[k] |= 1 << j
    return bad


def brute_check_property_p(instance):
    """Does pairwise compatibility force feasibility for every subset?

    Returns (True, None) or (False, witness) where witness is a tuple of item
    ids whose members are pairwise compatible yet jointly oversized.  A
    single item larger than the capacity is already a witness.
    """
    items = instance.items
    n = len(items)
    _guard(n, 24, "property check")
    sizes, cap = _int_sizes((it.size for it in items), instance.capacity)
    bad = _pair_conflict_masks(sizes, cap)
    ok = bytearray(1 << n)
    total = [0] * (1 << n)
    ok[0] = 1
    for m in range(1, 1 << n):
        low = m & -m
        j = low.bit_length() - 1
        rest = m ^ low
        ok[m] = ok[rest] and not (bad[j] & rest)
        total[m] = total[rest] + sizes[j]
        if ok[m] and total[m] > cap:
            ids = tuple(items[i].id for i in range(n) if m >> i & 1)
            return False, ids
    return True, None


def brute_check_property_pd(instance):
    """Multi-dimensional analogue: pairwise compatibility in every dimension
    versus joint feasibility in every dimension."""
    items = instance.items
    n = len(items)
    _guard(n, 24, "property check")
    d = len(instance.capacities)
    dims = []
    for i in range(d):
        sizes, cap = _int_sizes((it.sizes[i] for it in items), instance.capacities[i])
        dims.append((sizes, cap))
    bad = [0] * n
    for sizes, cap in dims:
        for j, mask in enumerate(_pair_conflict_masks(sizes, cap)):
            bad[j] |= mask
    ok = bytearray(1 << n)
    ok[0] = 1
    totals = [[0] * (1 << n) for _ in range(d)]
    for m in range(1, 1 << n):
        low = m & -m
        j = low.bit_length() - 1
        rest = m ^ low
        ok[m] = ok[rest] and not (bad[j] & rest)
        for i in range(d):
            totals[i][m] = totals[i][rest] + dims[i][0][j]
        if ok[m] and any(totals[i][m] > dims[i][1] for i in range(d)):
            ids = tuple(items[i].id for i in range(n) if m >> i & 1)
            return False, ids
    return True, None


def _best_subset(items, feasible):
    """Max-profit subset among masks accepted by `feasible`, ties broken by
    fewer items then lexicographically smaller index tuple.  The empty set is
    always in the running."""
    n = len(items)
    best_mask = 0
    best_profit = Fraction(0)
    best_key = (0, ())
    for m in range(1, 1 << n):
        if not feasible(m):
            continue
        profit = sum((items[i].profit for i in range(n) if m >> i & 1), Fraction(0))
        idx = tuple(i for i in range(n) if m >> i & 1)
        key = (len(idx), idx)
        if profit > best_profit or (profit == best_profit and key < best_key):
            best_mask = m
            best_profit = profit
            best_key = key
    return best_profit, tuple(items[i].id for i in range(n) if best_mask >> i & 1)


def brute_solve_kp(instance):
    items = instance.items
    n = len(items)
    _guard(n, 20, "knapsack scan")
    sizes, cap = _int_sizes((it.size for it in items), instance.capacity)
    total = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        total[m] = total[m ^ low] + sizes[low.bit_length() - 1]
    return _best_subset(items, lambda m: total[m] <= cap)


def brute_solve_dkp(instance):
    items = instance.items
    n = len(items)
    _guard(n, 20, "knapsack scan")
    d = len(instance.capacities)
    dims = []
    for i in range(d):
        sizes, cap = _int_sizes((it.sizes[i] for it in items), instance.capacities[i])
        total = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            total[m] = total[m ^ low] + sizes[low.bit_length() - 1]
        dims.append((total, cap))
    return _best_subset(items, lambda m: all(t[m] <= c for t, c in dims))


# ---------------------------------------------------------------------------
# packing oracles


def _min_bins(n, group_feasible):
    """Partition-into-feasible-groups minimum via submask DP; the lowest
    remaining item is pinned into the group to kill symmetry."""
    INF = n + 1
    dp = [INF] * (1 << n)
    dp[0] = 0
    for m in range(1, 1 << n):
        low = m & -m
        sub = m
        best = INF
        while sub:
            if sub & low and group_feasible(sub):
                cand = dp[m ^ sub]
                if cand + 1 < best:
                    best = cand + 1
            sub = (sub - 1) & m
        dp[m] = best
    return dp[(1 << n) - 1]


def brute_bin_packing_opt(sizes, capacity):
    """Minimum number of capacity-bounded bins covering every item."""
    n = len(sizes)
    _guard(n, 10, "bin packing")
    isz, cap = _int_sizes(sizes, capacity)
    if any(s > cap for s in isz):
        raise ValueError("item larger than the bin capacity")
    total = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        total[m] = total[m ^ low] + isz[low.bit_length() - 1]
    return _min_bins(n, lambda m: total[m] <= cap)


def brute_vector_packing_opt(size_vectors, capacities):
    """Minimum bins when a group fits iff its sum fits in every dimension."""
    n = len(size_vectors)
    _guard(n, 10, "vector packing")
    d = len(capacities)
    dims = []
    for i in range(d):
        isz, cap = _int_sizes((sv[i] for sv in size_vectors), capacities[i])
        if any(s > cap for s in isz):
            raise ValueError("item larger than the bin capacity")
        total = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            total[m] = total[m ^ low] + isz[low.bit_length() - 1]
        dims.append((total, cap))
    return _min_bins(n, lambda m: all(t[m] <= c for t, c in dims))


def _boxes_fit(boxes, caps):
    """Exact axis-aligned packing feasibility for at most three boxes.

    Any placement of boxes induces, for each pair, an axis on which their
    projections are disjoint; conversely an assignment of pairs to axes is
    realizable iff on each axis the chains it forms fit within the capacity.
    With <= 3 boxes the chain shapes are trivial to enumerate.  Three boxes
    can need three distinct axes (a cyclic, non-guillotine packing), which
    this enumeration covers.
    """
    d = len(caps)
    for b in boxes:
        if any(b[i] > caps[i] for i in range(d)):
            return False
    k = len(boxes)
    if k <= 1:
        return True
    if k == 2:
        a, b = boxes
        return any(a[i] + b[i] <= caps[i] for i in range(d))
    if k != 3:
        raise CapacityError("box-packing feasibility is only decided for <= 3 boxes")
    pairs = ((0, 1), (0, 2), (1, 2))
    for j01 in range(d):
        for j02 in range(d):
            for j12 in range(d):
                assign = (j01, j02, j12)
                good = True
                for axis in set(assign):
                    here = [pairs[t] for t in range(3) if assign[t] == axis]
                    if len(here) == 1:
                        x, y = here[0]
                        if boxes[x][axis] + boxes[y][axis] > caps[axis]:
                            good = False
                    elif len(here) == 2:
                        # two pairs always share a box; it must clear the
                        # larger of the other two
                        shared = set(here[0]) & set(here[1])
                        (s,) = shared
                        others = [v for p in here for v in p if v != s]
                        if boxes[s][axis] + max(
                            boxes[o][axis] for o in others
                        ) > caps[axis]:
                            good = False
                    else:
                        if sum(b[axis] for b in boxes) > caps[axis]:
                            good = False
                    if not good:
                        break
                if good:
                    return True
    return False


def brute_dbp_opt(size_vectors):
    """Minimum unit-cube bins for geometric box packing; exact feasibility is
    only available for groups of <= 3 boxes, so the instance is guarded at
    n <= 3."""
    n = len(size_vectors)
    _guard(n, 3, "box packing")
    d = len(size_vectors[0]) if size_vectors else 1
    caps = tuple(Fraction(1) for _ in range(d))
    boxes = [tuple(Fraction(s) for s in sv) for sv in size_vectors]
    for box in boxes:
        if any(w > cap for w, cap in zip(box, caps)):
            raise ValueError(f"box {box} does not fit a unit bin")
    if n == 0:
        return 0
    groups = {
        m: _boxes_fit([boxes[i] for i in range(n) if m >> i & 1], caps)
        for m in range(1, 1 << n)
    }
    return _min_bins(n, lambda m: groups[m])


# ---------------------------------------------------------------------------
# reference paths: the library's earlier algorithms, kept unchanged so the
# tests can hold the fast paths that replaced them to identical results.
# They return the library's report and solution types.


def reference_set_of_mask(m):
    """The vertices of the mask, shifting it one bit at a time."""
    out = []
    v = 1
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return tuple(out)


def reference_pairs(masks):
    """The edges (u, v), u < v, of the graph with adjacency masks `masks`,
    in lexicographic order, clearing one low bit of a shifted row per edge."""
    for u, m in enumerate(masks, start=1):
        m >>= u  # bit k now stands for vertex u + 1 + k
        while m:
            low = m & -m
            yield u, u + low.bit_length()
            m ^= low


def reference_forbidden_witness(g):
    """Search 4-subsets for an induced 2K2, P4, or C4.  O(n^4)."""
    adj = g.masks
    for quad in combinations(range(1, g.n + 1), 4):
        qm = 0
        for v in quad:
            qm |= 1 << (v - 1)
        degs = sorted(bin(adj[v - 1] & qm).count("1") for v in quad)
        ecount = sum(degs) // 2
        if ecount == 2 and degs == [1, 1, 1, 1]:
            return quad, "2K2"
        if ecount == 3 and degs == [1, 1, 2, 2]:
            return quad, "P4"
        if ecount == 4 and degs == [2, 2, 2, 2]:
            return quad, "C4"
    return None, None


def reference_recognize_threshold(g, want_witness=False):
    """Reverse peeling that recounts every remaining degree at each step
    (O(n^2) mask operations); the first 4-subset scan gives the witness."""
    if g.n == 0:
        raise ValueError("the empty graph has no creation sequence")
    adj = list(g.masks)
    remaining = (1 << g.n) - 1
    order = []
    rec_bits = []
    for step in range(g.n):
        size = g.n - step
        pick = None
        bit = None
        if size == 1:
            pick = remaining.bit_length()  # the single remaining vertex
            bit = "1"
        else:
            m = remaining
            # smallest-index isolated vertex, else smallest-index dominating
            dominating = None
            while m:
                low = m & -m
                v = low.bit_length()
                deg = (adj[v - 1] & remaining).bit_count()
                if deg == 0:
                    pick = v
                    bit = "0"
                    break
                if deg == size - 1 and dominating is None:
                    dominating = v
                m ^= low
            if pick is None and dominating is not None:
                pick = dominating
                bit = "1"
        if pick is None:
            if want_witness:
                quad, tag = reference_forbidden_witness(g)
                return RecognitionFailure(quad, tag)
            return RecognitionFailure()
        order.append(pick)
        rec_bits.append(bit)
        remaining &= ~(1 << (pick - 1))
    bits = "".join(reversed(rec_bits))
    vmap = tuple(reversed(order))
    return CreationSequence(bits, vmap)


def reference_split_witness(g):
    """Induced 2K2 or C4 on a 4-subset, else C5 on a 5-subset.  O(n^5)."""
    adj = g.masks
    for quad in combinations(range(1, g.n + 1), 4):
        qm = 0
        for v in quad:
            qm |= 1 << (v - 1)
        degs = sorted(bin(adj[v - 1] & qm).count("1") for v in quad)
        ecount = sum(degs) // 2
        if ecount == 2 and degs == [1, 1, 1, 1]:
            return quad, "2K2"
        if ecount == 4 and degs == [2, 2, 2, 2]:
            return quad, "C4"
    for five in combinations(range(1, g.n + 1), 5):
        fm = 0
        for v in five:
            fm |= 1 << (v - 1)
        degs = [bin(adj[v - 1] & fm).count("1") for v in five]
        # five vertices, five edges, all degree 2: the only option is C5
        if sum(degs) == 10 and all(d == 2 for d in degs):
            return five, "C5"
    return None, None


def reference_conflict_graph_kp(inst):
    """Items as vertices; an edge whenever two items overfill the knapsack
    together (strict comparison).  O(n^2) Fraction additions."""
    n = inst.n
    edges = []
    for j in range(n):
        for jp in range(j + 1, n):
            if inst.items[j].size + inst.items[jp].size > inst.capacity:
                edges.append((j + 1, jp + 1))
    return Graph(n, frozenset(edges))


def _recognized(g):
    got = reference_recognize_threshold(g)
    if isinstance(got, RecognitionFailure):
        # conflict graphs of one knapsack constraint are threshold graphs
        raise AssertionError("conflict graph failed threshold recognition")
    return got


def _kp_mis_families(inst):
    """(conflict graph, maximal independent sets as 0-based index tuples)."""
    g = reference_conflict_graph_kp(inst)
    if inst.n == 0:
        return g, []
    fam = enumerate_mis(_recognized(g))
    return g, [tuple(v - 1 for v in s) for s in fam]


def _shrink_witness(members, sizes, violates):
    """Greedily drop small items while the remainder still violates."""
    members = sorted(members, key=lambda j: (sizes[j], j))
    kept = list(members)
    for j in list(members):
        trial = [x for x in kept if x != j]
        if trial and violates(trial):
            kept = trial
    return tuple(sorted(kept))


def reference_check_equivalence_kp(inst):
    """Every maximal independent set of the recognized conflict graph, in
    canonical order, summed from scratch; the first overfull one is shrunk
    to the witness."""
    g, fam = _kp_mis_families(inst)
    sizes = [it.size for it in inst.items]
    c = inst.capacity
    for s in fam:
        if sum(sizes[j] for j in s) > c:
            small = _shrink_witness(
                s, sizes, lambda t: sum(sizes[j] for j in t) > c
            )
            ids = tuple(inst.items[j].id for j in small)
            return EquivalenceReport(False, g, ids)
    return EquivalenceReport(True, g, None)


def _best_candidate(candidates, profits):
    """Max total profit; ties go to fewer items, then lexicographic indices."""
    best = ()
    best_profit = Fraction(0)
    best_key = (0, ())
    for cand in candidates:
        p = sum((profits[j] for j in cand), Fraction(0))
        key = (len(cand), cand)
        if p > best_profit or (p == best_profit and key < best_key):
            best, best_profit, best_key = cand, p, key
    return best, best_profit


def reference_solve_kp_equivalent(inst):
    rep = reference_check_equivalence_kp(inst)
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    _, fam = _kp_mis_families(inst)
    profits = [it.profit for it in inst.items]
    chosen, profit = _best_candidate(fam + [()], profits)
    total = sum((inst.items[j].size for j in chosen), Fraction(0))
    return Solution(tuple(inst.items[j].id for j in chosen), profit, (total,))


def reference_conflict_graph_dkp(inst):
    """Union over dimensions of the per-dimension conflict graphs, by
    O(n^2 d) Fraction additions."""
    n = inst.n
    edges = []
    for j in range(n):
        for jp in range(j + 1, n):
            a, b = inst.items[j], inst.items[jp]
            if any(
                a.sizes[i] + b.sizes[i] > inst.capacities[i]
                for i in range(inst.d)
            ):
                edges.append((j + 1, jp + 1))
    return Graph(n, frozenset(edges))


def per_dimension_instances(inst):
    """One KpInstance per dimension of a d-dimensional instance."""
    out = []
    for i in range(inst.d):
        items = tuple(
            KpItem(it.id, it.profit, it.sizes[i]) for it in inst.items
        )
        out.append(KpInstance(items, inst.capacities[i]))
    return out


def member_graphs(cover):
    """The graphs of a cover's creation sequences, one per member."""
    return tuple(creation_sequence_to_graph(cs) for cs in cover.members)


def reference_conflict_cover_dkp(inst):
    members = tuple(
        _recognized(reference_conflict_graph_kp(sub))
        for sub in per_dimension_instances(inst)
    )
    return ThresholdCover(members)


def _dkp_mis_families(inst):
    g = reference_conflict_graph_dkp(inst)
    if inst.n == 0:
        return g, []
    got = reference_recognize_threshold(g)
    if isinstance(got, CreationSequence):
        fam = enumerate_mis(got)
    else:
        fam = reference_enumerate_mis_k(reference_conflict_cover_dkp(inst))
    return g, [tuple(v - 1 for v in s) for s in fam]


def reference_check_equivalence_dkp(inst):
    g, fam = _dkp_mis_families(inst)
    caps = inst.capacities

    def violates(idxs):
        return any(
            sum(inst.items[j].sizes[i] for j in idxs) > caps[i]
            for i in range(inst.d)
        )

    weight = [sum(it.sizes) for it in inst.items]
    for s in fam:
        if violates(s):
            small = _shrink_witness(s, weight, violates)
            ids = tuple(inst.items[j].id for j in small)
            return EquivalenceReport(False, g, ids)
    return EquivalenceReport(True, g, None)


def reference_solve_dkp_equivalent(inst):
    rep = reference_check_equivalence_dkp(inst)
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    _, fam = _dkp_mis_families(inst)
    profits = [it.profit for it in inst.items]
    chosen, profit = _best_candidate(fam + [()], profits)
    totals = tuple(
        sum((inst.items[j].sizes[i] for j in chosen), Fraction(0))
        for i in range(inst.d)
    )
    return Solution(tuple(inst.items[j].id for j in chosen), profit, totals)


def reference_intersections(families):
    """The distinct nonzero intersections of one mask per family, by
    forming every tuple of the Cartesian product."""
    seen = set()
    for tup in product(*families):
        m = tup[0]
        for x in tup[1:]:
            m &= x
        seen.add(m)
    seen.discard(0)
    return seen


def _drop_subsets(masks):
    order = sorted(masks, key=lambda m: -m.bit_count())
    kept = []
    for m in order:
        if not any(m & ~big == 0 for big in kept):
            kept.append(m)
    return kept


def reference_enumerate_mis_k(cover):
    """Maximal independent sets of the union: intersect every tuple of
    per-member maximal sets, then discard subsets of other results.
    O(F^2) in the number F of distinct intersections."""
    fams = [[mask_of(s) for s in enumerate_mis(cs)] for cs in cover.members]
    inters = reference_intersections(fams)
    return canonical_family(reference_set_of_mask(m) for m in _drop_subsets(inters))


def reference_enumerate_mc_intersection(cover):
    """Maximal cliques of the intersection of the members, via maximal
    independent sets of the complements."""
    fams = [
        [mask_of(s) for s in enumerate_mis(complement_sequence(cs))]
        for cs in cover.members
    ]
    inters = reference_intersections(fams)
    return canonical_family(reference_set_of_mask(m) for m in _drop_subsets(inters))


def reference_threshold_to_kp(cs, profits=None):
    """Equivalent knapsack instance, doubling the whole size list at every
    0-bit (quadratic list work)."""
    sizes = [1]
    c = 1
    for i in range(2, cs.n + 1):
        if cs.bits[i - 1] == "0":
            sizes = [2 * s for s in sizes]
            c = 2 * c + 1
            sizes.append(1)
        else:
            sizes.append(c)
    if profits is None:
        profits = [1] * cs.n
    if len(profits) != cs.n:
        raise ValueError("profit vector length must match the sequence length")
    size_of = {cs.vertex(i): sizes[i - 1] for i in range(1, cs.n + 1)}
    items = tuple(
        KpItem(f"a{v}", Fraction(profits[v - 1]), Fraction(size_of[v]))
        for v in range(1, cs.n + 1)
    )
    return KpInstance(items, Fraction(c))


def reference_parse_graph(text):
    """Parse the text graph format: `p <n> <m>` then m lines `e <u> <v>`, u < v.

    Blank lines and lines starting with '#' are ignored.
    """
    n = None
    m = None
    edges = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("header must be `p <n> <m>`", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative header fields", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge must be `e <u> <v>`", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer edge endpoints", lineno) from None
            if not (1 <= u < v <= n):
                raise GraphFormatError(
                    f"edge endpoints must satisfy 1 <= u < v <= {n}, got {u} {v}", lineno
                )
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unknown record `{parts[0]}`", lineno)
    if n is None:
        raise GraphFormatError("missing `p <n> <m>` header")
    if m != len(edges):
        raise GraphFormatError(f"header promises {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edge lines")
    return Graph(n, frozenset(edges))


def reference_parse_instance(text):
    """KpInstance when the JSON uses singular capacity/size, DkpInstance for
    the plural forms (a one-element capacities list stays multi-dimensional).
    One Fraction per number and one validated item per entry, then its own
    checks of the capacity signs, the size counts and the ids, in that
    order, and only then the public constructor."""
    cls, items, capacities = reference_parse_values(text)
    try:
        if cls is KpInstance:
            if capacities[0] < 0:
                raise ValueError("capacity must be non-negative")
        else:
            if len(capacities) < 1:
                raise ValueError("at least one dimension required")
            if any(c < 0 for c in capacities):
                raise ValueError("capacities must be non-negative")
            d = len(capacities)
            for it in items:
                if len(it.sizes) != d:
                    raise ValueError(f"item {it.id}: expected {d} sizes, got {len(it.sizes)}")
        ids = [it.id for it in items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")
    except ValueError as e:
        raise InstanceFormatError(str(e)) from None
    return cls(items, capacities[0] if cls is KpInstance else capacities)


def reference_parse_values(text):
    """The instance class, the validated KpItem/DkpItem tuple and the tuple
    of capacity Fractions (one for the singular form) that
    `reference_parse_instance` checks further and hands to the public
    constructor."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise InstanceFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    if ("capacity" in obj) == ("capacities" in obj):
        raise InstanceFormatError("exactly one of capacity/capacities required")
    raw_items = obj.get("items")
    if not isinstance(raw_items, list):
        raise InstanceFormatError("items must be a list")

    def item_sizes(entry):
        if ("size" in entry) == ("sizes" in entry):
            raise InstanceFormatError(
                f"item {entry.get('id')!r}: exactly one of size/sizes required"
            )
        if "size" in entry:
            return [rational(entry["size"])]
        if not isinstance(entry["sizes"], list):
            raise InstanceFormatError(f"item {entry.get('id')!r}: sizes must be a list")
        return [rational(s) for s in entry["sizes"]]

    parsed = []
    for entry in raw_items:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise InstanceFormatError("each item needs a string id")
        if "profit" not in entry:
            raise InstanceFormatError(f"item {entry['id']!r}: missing profit")
        parsed.append((entry["id"], rational(entry["profit"]), item_sizes(entry)))
    try:
        if "capacity" in obj:
            cap = rational(obj["capacity"])
            items = []
            for iid, profit, sizes in parsed:
                if len(sizes) != 1:
                    raise InstanceFormatError(
                        f"item {iid!r}: one size expected for a one-dimensional instance"
                    )
                items.append(KpItem(iid, profit, sizes[0]))
            return KpInstance, tuple(items), (cap,)
        raw_caps = obj["capacities"]
        if not isinstance(raw_caps, list):
            raise InstanceFormatError("capacities must be a list")
        caps = tuple(rational(c) for c in raw_caps)
        items = tuple(DkpItem(iid, profit, tuple(sizes)) for iid, profit, sizes in parsed)
        return DkpInstance, items, caps
    except ValueError as e:
        if isinstance(e, InstanceFormatError):
            raise
        raise InstanceFormatError(str(e)) from None
