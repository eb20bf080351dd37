"""Threshold graphs: recognition by degree peeling, creation sequences, the
linear counting/enumeration algorithms, split partitions, and the export of an
equivalent knapsack instance.

A creation sequence is a bit string t_1..t_n with t_1 = 1 plus a position ->
vertex map v(i).  The graph it builds has an edge {v(i), v(j)} for i < j
exactly when t_j = 1: a 1-bit vertex arrives dominating everything before it,
a 0-bit vertex arrives isolated.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    CapacityError,
    bits,
    canonical_family,
    content_lines,
    graph_from_masks,
    mask_of,
    set_of_mask,
)


class SequenceFormatError(ValueError):
    """Malformed creation-sequence text or bit string."""


@dataclass(frozen=True)
class CreationSequence:
    bits: str
    vmap: tuple

    def __post_init__(self):
        if not self.bits:
            raise SequenceFormatError("empty bit string")
        if any(b not in "01" for b in self.bits):
            raise SequenceFormatError(f"bits must be 0/1, got {self.bits!r}")
        if self.bits[0] != "1":
            raise SequenceFormatError("t1 must be 1")
        n = len(self.bits)
        if sorted(self.vmap) != list(range(1, n + 1)):
            raise SequenceFormatError("vmap must be a permutation of 1..n")

    @property
    def n(self):
        return len(self.bits)

    def vertex(self, i):
        """v(i) for a 1-based position i."""
        return self.vmap[i - 1]


def sequence_from_bits(bits, vmap=None):
    """CreationSequence with an identity vertex map unless one is given."""
    if vmap is None:
        vmap = tuple(range(1, len(bits) + 1))
    return CreationSequence(bits, tuple(vmap))


@dataclass(frozen=True)
class RecognitionFailure:
    """Negative recognition result; witness is a forbidden induced subgraph."""

    witness: tuple = None
    tag: str = None  # '2K2' | 'P4' | 'C4'


@dataclass(frozen=True)
class SplitPartition:
    K: tuple
    S: tuple


def creation_sequence_to_graph(cs):
    return graph_from_masks(sequence_masks(cs))


def sequence_masks(cs):
    """Adjacency masks of the sequence's graph (bit v-1 for vertex v), the
    one conversion from a creation sequence to masks: a vertex sees every
    later 1-bit vertex and, when its own bit is 1, every earlier vertex."""
    masks = [0] * cs.n
    later_ones = 0
    for i in range(cs.n - 1, -1, -1):
        v = cs.vmap[i] - 1
        masks[v] = later_ones
        if cs.bits[i] == "1":
            later_ones |= 1 << v
    earlier = 0
    for i in range(cs.n):
        v = cs.vmap[i] - 1
        if cs.bits[i] == "1":
            masks[v] |= earlier
        earlier |= 1 << v
    return masks


def _forbidden_witness(adj, remaining):
    """Induced 2K2, P4 or C4 inside `remaining`, a vertex mask whose induced
    subgraph has no isolated and no dominating vertex (where peeling stuck).

    Take u of maximum degree there, w not adjacent to u, x a neighbor of w,
    and y a neighbor of u that is neither x nor adjacent to x.  y exists:
    otherwise N(u) - {x} would lie in N(x), which also holds w (and u when
    ux is an edge), so deg x > deg u.  With edges uy, wx and non-edges uw,
    xy, the set {u, w, x, y} is a 2K2, a P4 or a C4 as ux and wy are absent,
    one present or both present.  O(n) mask operations.
    """

    def lowest(mask):
        return (mask & -mask).bit_length()

    u = max(bits(remaining), key=lambda v: (adj[v - 1] & remaining).bit_count())
    w = lowest(remaining & ~adj[u - 1] & ~(1 << (u - 1)))
    x = lowest(adj[w - 1] & remaining)
    y = lowest(adj[u - 1] & remaining & ~adj[x - 1] & ~(1 << (x - 1)))
    chords = (adj[u - 1] >> (x - 1) & 1) + (adj[w - 1] >> (y - 1) & 1)
    return tuple(sorted((u, w, x, y))), ("2K2", "P4", "C4")[chords]


def recognize_threshold(g, want_witness=False):
    """Reverse peeling: repeatedly drop an isolated (bit 0) or dominating
    (bit 1) vertex, the smallest-index isolated one first; the reversed
    record is the creation sequence.

    A remaining vertex's degree is its degree in g minus the number of
    dominating vertices peeled so far, `ones` (an isolated one touches
    nobody that remains).  With vertices bucketed by degree in index order,
    each step takes the front of bucket `ones` (isolated) or of bucket
    size-1+ones (dominating): O(n + m) over the adjacency masks.

    Returns a CreationSequence whose graph equals g, or a RecognitionFailure
    whose witness, when asked for, is read off the vertices left unpeeled.
    """
    return _recognize(g.masks, want_witness)


def _recognize(adj, want_witness=False):
    """recognize_threshold on the graph with adjacency masks adj."""
    n = len(adj)
    if n == 0:
        raise ValueError("the empty graph has no creation sequence")
    buckets = [[] for _ in range(n)]
    for v, mask in enumerate(adj, start=1):
        buckets[mask.bit_count()].append(v)
    heads = [0] * n
    order = []
    rec_bits = []
    ones = 0
    for size in range(n, 0, -1):
        # the last vertex sits in bucket `ones` too; it takes the founding 1-bit
        if heads[ones] < len(buckets[ones]):
            deg, bit = ones, "0" if size > 1 else "1"
        elif heads[size - 1 + ones] < len(buckets[size - 1 + ones]):
            deg, bit = size - 1 + ones, "1"
            ones += 1
        else:
            if want_witness:
                remaining = ((1 << n) - 1) ^ mask_of(order)
                return RecognitionFailure(*_forbidden_witness(adj, remaining))
            return RecognitionFailure()
        order.append(buckets[deg][heads[deg]])
        heads[deg] += 1
        rec_bits.append(bit)
    bits = "".join(reversed(rec_bits))
    vmap = tuple(reversed(order))
    return CreationSequence(bits, vmap)


def complement_sequence(cs):
    """Sequence of the complement graph: flip every bit after the first.

    The first bit never affects the built graph, so it is pinned back to 1 to
    keep the t_1 = 1 convention.
    """
    flipped = "".join("1" if b == "0" else "0" for b in cs.bits[1:])
    return CreationSequence("1" + flipped, cs.vmap)


def split_partition(cs, mode="clique-max"):
    """(K,S) split partition: 0-positions to S, later 1-positions to K; the
    founding vertex v(1) goes to K (|K| = ω) or to S (|S| = α) by mode."""
    if mode not in ("clique-max", "independent-max"):
        raise ValueError(f"unknown mode {mode!r}")
    K = [cs.vertex(i) for i in range(2, cs.n + 1) if cs.bits[i - 1] == "1"]
    S = [cs.vertex(i) for i in range(2, cs.n + 1) if cs.bits[i - 1] == "0"]
    if mode == "clique-max":
        K.append(cs.vertex(1))
    else:
        S.append(cs.vertex(1))
    return SplitPartition(tuple(sorted(K)), tuple(sorted(S)))


def alpha_omega(cs):
    """(α, ω): 1 + zero-bit count, one-bit count."""
    ones = cs.bits.count("1")
    return (cs.n - ones + 1, ones)


def mis_masks(cs):
    """The maximal independent sets as masks, one per 1-bit: v(i) plus the
    0-bit vertices after position i, from one scan of positions n..1."""
    acc = 0
    out = []
    for b, v in zip(reversed(cs.bits), reversed(cs.vmap)):
        if b == "0":
            acc |= 1 << (v - 1)
        else:
            out.append(acc | 1 << (v - 1))
    return out


def enumerate_mis(cs):
    """All maximal independent sets, canonical order."""
    return canonical_family(set_of_mask(m) for m in mis_masks(cs))


def count_mis(cs):
    return cs.bits.count("1")


def _first_zero_position(cs):
    j = cs.bits.find("0")
    return cs.n + 1 if j < 0 else j + 1


def enumerate_im(cs):
    """All maximum independent sets: all 0-bit vertices plus one leading
    1-bit vertex each."""
    j = _first_zero_position(cs)
    zeros = [cs.vertex(i) for i in range(1, cs.n + 1) if cs.bits[i - 1] == "0"]
    fam = [tuple(sorted(zeros + [cs.vertex(i)])) for i in range(1, j)]
    return canonical_family(fam)


def count_im(cs):
    return _first_zero_position(cs) - 1


def count_is(cs):
    """Number of nonempty independent sets: +1 per 1-bit, double-plus-one per
    0-bit, scanning left to right from the single-vertex base."""
    total = 1
    for b in cs.bits[1:]:
        total = total + 1 if b == "1" else 2 * total + 1
    return total


def enumerate_is(cs):
    """All nonempty independent sets; guarded, the family is exponential."""
    if cs.n > 24:
        raise CapacityError(f"independent-set enumeration guarded at n <= 24, got {cs.n}")
    fam = [1 << (cs.vertex(1) - 1)]
    for i in range(2, cs.n + 1):
        vbit = 1 << (cs.vertex(i) - 1)
        if cs.bits[i - 1] == "1":
            fam.append(vbit)
        else:
            fam.extend([m | vbit for m in fam])
            fam.append(vbit)
    return canonical_family(set_of_mask(m) for m in fam)


def enumerate_max_cliques(cs):
    """Maximal cliques, via maximal independent sets of the complement."""
    return enumerate_mis(complement_sequence(cs))


def count_mc(cs):
    """Number of maximal cliques = α."""
    return alpha_omega(cs)[0]


def threshold_to_kp(cs, profits=None):
    """Equivalent knapsack instance: item i per position i; a 0-bit doubles
    all earlier sizes and the capacity (c -> 2c+1) then takes size 1, a 1-bit
    takes the current capacity.  Sizes are exact integers and grow as big
    integers.  Unit profits unless a vector is given.

    In closed form, with z_b and z_a the 0-bits before and after position i
    and z their total, a 1-bit takes (2^(z_b+1) - 1) << z_a, a 0-bit takes
    1 << z_a, and the capacity is 2^(z+1) - 1: one right-to-left pass."""
    from fractions import Fraction

    from .knapsack import KpInstance, KpItem

    total = cs.bits.count("0")
    c = (1 << (total + 1)) - 1
    sizes = [0] * cs.n
    after = 0
    for i in range(cs.n - 1, -1, -1):
        if cs.bits[i] == "0":
            sizes[i] = 1 << after
            after += 1
        else:
            sizes[i] = ((1 << (total - after + 1)) - 1) << after
    if profits is None:
        profits = [1] * cs.n
    if len(profits) != cs.n:
        raise ValueError("profit vector length must match the sequence length")
    # position i describes vertex v(i); emit items in vertex order, item a_v
    # matching vertex v of the built graph, profits[v-1] attached to a_v
    size_of = {cs.vertex(i): sizes[i - 1] for i in range(1, cs.n + 1)}
    items = tuple(
        KpItem(f"a{v}", Fraction(profits[v - 1]), Fraction(size_of[v]))
        for v in range(1, cs.n + 1)
    )
    return KpInstance(items, Fraction(c))


def serialize_sequence(cs):
    return cs.bits + "\n" + "v " + " ".join(str(v) for v in cs.vmap) + "\n"


def parse_sequence(text):
    """Parse `<bits>` plus an optional `v <v(1)> ...` map line."""
    bits = None
    vmap = None
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "v":
            if bits is None:
                raise SequenceFormatError(f"line {lineno}: map line before bits")
            if vmap is not None:
                raise SequenceFormatError(f"line {lineno}: duplicate map line")
            try:
                vmap = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise SequenceFormatError(f"line {lineno}: non-integer map entry") from None
        elif bits is None:
            bits = line
        else:
            raise SequenceFormatError(f"line {lineno}: unexpected extra line {line!r}")
    if bits is None:
        raise SequenceFormatError("no bit string found")
    return sequence_from_bits(bits, vmap)
