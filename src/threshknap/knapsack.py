"""Knapsack instances over exact rationals, their conflict graphs, the
pairwise-compatibility characterization of when the conflict graph carries
full feasibility information, exact solvers for such instances, and packing
lower bounds derived from clique numbers.

All sizes, profits and capacities are Fractions parsed from decimal strings;
every comparison against a capacity is exact.  The conflict graph of a
one-dimensional instance joins two items when they cannot share the knapsack;
it is always a threshold graph, which is what makes the solvers polynomial.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .graphs import Graph, _cliques, format_graph
from .kthreshold import ThresholdCover, enumerate_mis_k, omega_intersection
from .threshold import (
    CreationSequence,
    _recognize,
    alpha_omega,
    creation_sequence_to_graph,
    enumerate_mis,
)


class InstanceFormatError(ValueError):
    """Malformed instance JSON."""


class NotEquivalentError(ValueError):
    """A solver or bound was asked for an instance whose conflict graph does
    not capture feasibility; carries the failing report and, for
    per-dimension preconditions, the 1-based dimension."""

    def __init__(self, report, dimension=None):
        self.report = report
        self.dimension = dimension
        where = f" in dimension {dimension}" if dimension is not None else ""
        ids = ", ".join(report.witness) if report.witness else ""
        super().__init__(
            f"instance has no equivalent graph{where}; witness: {{{ids}}}"
        )


def rational(value):
    """Exact Fraction from a decimal string ('3.14'), a ratio ('22/7'), an
    integer string, an int, or a Fraction.  Floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InstanceFormatError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            _bound_exponent(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InstanceFormatError(f"cannot parse number {value!r}") from None
    raise InstanceFormatError(
        f"numbers must be strings or integers, got {type(value).__name__}"
    )


def _bound_exponent(text):
    """Refuse an exponent (after the last E) above the interpreter's digit
    limit for integer strings, `sys.get_int_max_str_digits()` (0: none).
    Fraction writes 10**exponent out in full, so a short string could
    otherwise ask for unbounded work."""
    limit = sys.get_int_max_str_digits()
    try:
        exponent = abs(int(text.upper().rpartition("E")[2]))
    except ValueError:  # not an exponent, or one Fraction refuses as well
        return
    if limit and exponent > limit:
        raise InstanceFormatError(
            f"cannot parse number {text!r}: exponent beyond {limit}"
        )


def format_rational(q):
    """Decimal string when the denominator divides a power of ten, else p/q."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    k = max(twos, fives)
    scaled = abs(q.numerator) * 10**k // q.denominator
    digits = str(scaled).rjust(k + 1, "0")
    whole, frac = digits[:-k], digits[-k:].rstrip("0")
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{whole}.{frac}"


# ---------------------------------------------------------------------------
# instance model


@dataclass(frozen=True)
class KpItem:
    id: str
    profit: Fraction
    size: Fraction

    def __post_init__(self):
        if not self.id:
            raise ValueError("item id must be nonempty")
        if self.profit < 0 or self.size < 0:
            raise ValueError(f"item {self.id}: profit and size must be non-negative")


@dataclass(frozen=True)
class KpInstance:
    items: tuple
    capacity: Fraction

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")

    @property
    def n(self):
        return len(self.items)


@dataclass(frozen=True)
class DkpItem:
    id: str
    profit: Fraction
    sizes: tuple

    def __post_init__(self):
        if not self.id:
            raise ValueError("item id must be nonempty")
        if self.profit < 0 or any(s < 0 for s in self.sizes):
            raise ValueError(f"item {self.id}: profit and sizes must be non-negative")


@dataclass(frozen=True)
class DkpInstance:
    items: tuple
    capacities: tuple

    def __post_init__(self):
        if len(self.capacities) < 1:
            raise ValueError("at least one dimension required")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be non-negative")
        d = len(self.capacities)
        for it in self.items:
            if len(it.sizes) != d:
                raise ValueError(f"item {it.id}: expected {d} sizes, got {len(it.sizes)}")
        ids = [it.id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")

    @property
    def n(self):
        return len(self.items)

    @property
    def d(self):
        return len(self.capacities)


@dataclass(frozen=True)
class BpInstance:
    """Unit-capacity packing data: sizes in (0, 1]."""

    sizes: tuple

    def __post_init__(self):
        for s in self.sizes:
            if not (0 < s <= 1):
                raise ValueError(f"sizes must lie in (0, 1], got {s}")


@dataclass(frozen=True)
class Solution:
    chosen: tuple
    profit: Fraction
    dimension_totals: tuple


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdict and witness of an equivalence check.  `conflict` holds the
    conflict graph in the form at hand: the creation sequence of a one-row
    instance or the cover of several rows, turned into a Graph on first
    access to `conflict_graph`, or the empty Graph when there are no
    items."""

    equivalent: bool
    conflict: CreationSequence | ThresholdCover | Graph
    witness: tuple | None

    @cached_property
    def conflict_graph(self):
        if isinstance(self.conflict, CreationSequence):
            return creation_sequence_to_graph(self.conflict)
        if isinstance(self.conflict, ThresholdCover):
            return self.conflict.covered
        return self.conflict


# ---------------------------------------------------------------------------
# JSON


def parse_instance(text):
    """KpInstance when the JSON uses singular capacity/size, DkpInstance for
    the plural forms (a one-element capacities list stays multi-dimensional)."""
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
            return KpInstance(tuple(items), cap)
        raw_caps = obj["capacities"]
        if not isinstance(raw_caps, list):
            raise InstanceFormatError("capacities must be a list")
        caps = tuple(rational(c) for c in raw_caps)
        items = tuple(DkpItem(iid, profit, tuple(sizes)) for iid, profit, sizes in parsed)
        return DkpInstance(items, caps)
    except ValueError as e:
        if isinstance(e, InstanceFormatError):
            raise
        raise InstanceFormatError(str(e)) from None


def format_instance(inst):
    if isinstance(inst, KpInstance):
        obj = {
            "capacity": format_rational(inst.capacity),
            "items": [
                {
                    "id": it.id,
                    "profit": format_rational(it.profit),
                    "size": format_rational(it.size),
                }
                for it in inst.items
            ],
        }
    else:
        obj = {
            "capacities": [format_rational(c) for c in inst.capacities],
            "items": [
                {
                    "id": it.id,
                    "profit": format_rational(it.profit),
                    "sizes": [format_rational(s) for s in it.sizes],
                }
                for it in inst.items
            ],
        }
    return json.dumps(obj, indent=2) + "\n"


def format_solution(sol):
    obj = {
        "chosen": list(sol.chosen),
        "profit": format_rational(sol.profit),
        "dimension_totals": [format_rational(t) for t in sol.dimension_totals],
    }
    return json.dumps(obj, indent=2) + "\n"


def format_report(rep):
    obj = {
        "equivalent": rep.equivalent,
        "conflict_graph": format_graph(rep.conflict_graph),
        "witness": list(rep.witness) if rep.witness is not None else None,
    }
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the one-row core: conflict graphs and equivalence


_NO_ITEMS = Graph(0, ())


def _integers(values):
    """Exact integers proportional to the rationals `values`, and the lcm of
    their denominators that they were multiplied by."""
    scale = lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


class _Row(NamedTuple):
    """One knapsack row on integers: sizes and capacity multiplied by
    `scale`, plus the conflict graph's creation sequence (None without
    items)."""

    sizes: list
    capacity: int
    scale: int
    sequence: CreationSequence | None


def _row(sizes, capacity):
    """The core of every one-row path, O(n log n).  Items sorted by
    (size, index) are peeled with two pointers: the smallest remaining item
    fits beside every other one when it fits beside the largest, so it is
    isolated (bit 0); otherwise the largest conflicts with every other one,
    so it is dominating (bit 1); the last item takes bit 1.  The peel read
    backwards is a creation sequence of the conflict graph, found without
    listing an edge."""
    ints, scale = _integers([*sizes, capacity])
    cap = ints.pop()
    n = len(ints)
    if not n:
        return _Row(ints, cap, scale, None)
    order = sorted(range(n), key=ints.__getitem__)
    lo, hi = 0, n - 1
    bits, peeled = [], []
    while lo < hi:
        if ints[order[lo]] + ints[order[hi]] <= cap:
            bits.append("0")
            peeled.append(order[lo] + 1)
            lo += 1
        else:
            bits.append("1")
            peeled.append(order[hi] + 1)
            hi -= 1
    bits.append("1")
    peeled.append(order[lo] + 1)
    cs = CreationSequence("".join(reversed(bits)), tuple(reversed(peeled)))
    return _Row(ints, cap, scale, cs)


def _mis_walk(cs, weights):
    """Every maximal independent set of the sequence's graph is v(i) for a
    1-bit position i plus the 0-bit vertices after i.  Scanning right to
    left, yield per set (i, number of those 0-bit vertices, 0-based item of
    v(i), total weight) from one running suffix sum."""
    zeros = tail = 0
    for i in range(cs.n - 1, -1, -1):
        j = cs.vmap[i] - 1
        if cs.bits[i] == "0":
            zeros += 1
            tail += weights[j]
        else:
            yield i, zeros, j, weights[j] + tail


def _mis_members(cs, i):
    """0-based items of the maximal independent set at 1-bit position i."""
    zeros = [cs.vmap[k] - 1 for k in range(i + 1, cs.n) if cs.bits[k] == "0"]
    return tuple(sorted([cs.vmap[i] - 1, *zeros]))


def _shrink_witness(members, weight, rows):
    """Greedily drop items, lightest (weight, index) first, while the rest
    still overfills some row; rows are (integer sizes, capacity) pairs whose
    totals are kept running."""
    totals = [sum(sizes[j] for j in members) for sizes, _ in rows]
    kept = set(members)
    for j in sorted(members, key=lambda j: (weight[j], j)):
        trial = [t - sizes[j] for t, (sizes, _) in zip(totals, rows)]
        if len(kept) > 1 and any(t > cap for t, (_, cap) in zip(trial, rows)):
            totals = trial
            kept.discard(j)
    return tuple(sorted(kept))


def _check_row(ids, row):
    """Equivalence report of one row.  The witness comes from the first
    overfull maximal independent set in canonical order (fewest items, then
    smallest indices): sets of one size share their 0-bit vertices, so among
    them the one with the smallest v(i) comes first."""
    conflict = row.sequence or _NO_ITEMS
    first = None
    if row.sequence is not None:
        for i, zeros, j, total in _mis_walk(row.sequence, row.sizes):
            if first is not None and zeros > first[0]:
                break
            if total > row.capacity and (first is None or j < first[1]):
                first = (zeros, j, i)
    if first is None:
        return EquivalenceReport(True, conflict, None)
    members = _mis_members(row.sequence, first[2])
    small = _shrink_witness(members, row.sizes, [(row.sizes, row.capacity)])
    return EquivalenceReport(False, conflict, tuple(ids[j] for j in small))


def conflict_graph_kp(inst):
    """Items as vertices; an edge whenever two items overfill the knapsack
    together (strict comparison).  Built from the core's creation
    sequence."""
    cs = _row([it.size for it in inst.items], inst.capacity).sequence
    return creation_sequence_to_graph(cs) if cs else _NO_ITEMS


def check_equivalence_kp(inst):
    """Feasibility of every maximal independent set of the conflict graph is
    enough: feasibility is downward closed and every independent set extends
    to a maximal one.  On failure the witness is a pairwise-compatible but
    oversized item set, shrunk to a minimal one.  O(n log n)."""
    row = _row([it.size for it in inst.items], inst.capacity)
    return _check_row([it.id for it in inst.items], row)


def solve_kp_equivalent(inst):
    """Optimum over the maximal independent sets of the conflict graph plus
    the empty set; exact rational profit.  Ties go to fewer items, then
    smaller indices; among sets of one size that is the smallest v(i), as in
    the check.  O(n log n) plus the chosen set."""
    ids = [it.id for it in inst.items]
    row = _row([it.size for it in inst.items], inst.capacity)
    rep = _check_row(ids, row)
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    profits, scale = _integers([it.profit for it in inst.items])
    best = None  # (-profit, 0-bit count, item of v(i), position i)
    if row.sequence is not None:
        for i, zeros, j, profit in _mis_walk(row.sequence, profits):
            key = (-profit, zeros, j, i)
            if profit > 0 and (best is None or key < best):
                best = key
    chosen = _mis_members(row.sequence, best[3]) if best else ()
    profit = -best[0] if best else 0
    total = sum(row.sizes[j] for j in chosen)
    return Solution(
        tuple(ids[j] for j in chosen),
        Fraction(profit, scale),
        (Fraction(total, row.scale),),
    )


# ---------------------------------------------------------------------------
# d-dimensional instances: the one-row core once per dimension


def _dimension_rows(inst):
    return [
        _row([it.sizes[i] for it in inst.items], inst.capacities[i])
        for i in range(inst.d)
    ]


def _cover(rows):
    return ThresholdCover(tuple(row.sequence for row in rows))


def conflict_graph_dkp(inst):
    """Union over dimensions of the per-dimension conflict graphs."""
    return _cover(_dimension_rows(inst)).covered if inst.n else _NO_ITEMS


def conflict_cover_dkp(inst):
    """The same union, kept as a cover whose members are the per-dimension
    conflict graphs' creation sequences."""
    if inst.n == 0:
        raise ValueError("the empty graph has no creation sequence")
    return _cover(_dimension_rows(inst))


def _dkp_mis_families(inst, rows):
    """(union conflict graph as the rows' cover, or the empty Graph without
    items; its maximal independent sets as 0-based index tuples in
    canonical order)."""
    if inst.n == 0:
        return _NO_ITEMS, []
    cover = _cover(rows)
    # the union is often threshold itself; its single sequence is cheaper
    # than the tuple product
    got = _recognize(cover.union_masks)
    if isinstance(got, CreationSequence):
        fam = enumerate_mis(got)
    else:
        fam = enumerate_mis_k(cover)
    return cover, [tuple(v - 1 for v in s) for s in fam]


def _check_dkp(inst, rows):
    """(report, family): the first maximal independent set of the union, in
    canonical order, that overfills some dimension is shrunk to the
    witness."""
    conflict, fam = _dkp_mis_families(inst, rows)
    limits = [(row.sizes, row.capacity) for row in rows]
    for s in fam:
        if any(sum(sizes[j] for j in s) > cap for sizes, cap in limits):
            weight = {j: sum(inst.items[j].sizes) for j in s}
            small = _shrink_witness(s, weight, limits)
            ids = tuple(inst.items[j].id for j in small)
            return EquivalenceReport(False, conflict, ids), fam
    return EquivalenceReport(True, conflict, None), fam


def check_equivalence_dkp(inst):
    return _check_dkp(inst, _dimension_rows(inst))[0]


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


def solve_dkp_equivalent(inst):
    rows = _dimension_rows(inst)
    rep, fam = _check_dkp(inst, rows)
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    profits = [it.profit for it in inst.items]
    chosen, profit = _best_candidate(fam + [()], profits)
    totals = tuple(
        Fraction(sum(row.sizes[j] for j in chosen), row.scale) for row in rows
    )
    return Solution(tuple(inst.items[j].id for j in chosen), profit, totals)


# ---------------------------------------------------------------------------
# packing lower bounds


def bp_lower_bound(inst):
    """Clique number of the conflict graph of the unit-capacity view; a valid
    bin lower bound because conflicting items need distinct bins.  Refuses
    instances whose conflict graph does not capture feasibility.  The number
    is the count of 1-bits in the conflict graph's creation sequence."""
    row = _row(inst.sizes, Fraction(1))
    rep = _check_row([f"a{j + 1}" for j in range(len(inst.sizes))], row)
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    return row.sequence.bits.count("1") if row.sequence else 0


def _require_unit_view(inst):
    if any(c != 1 for c in inst.capacities):
        raise ValueError("packing bounds expect all capacities equal to 1")
    for it in inst.items:
        if any(s > 1 for s in it.sizes) or any(s <= 0 for s in it.sizes):
            raise ValueError(f"item {it.id}: packing sizes must lie in (0, 1]")


def _check_dimensions_equivalent(inst):
    """The instance's rows, each checked on its own; a failure names its
    1-based dimension."""
    rows = _dimension_rows(inst)
    ids = [it.id for it in inst.items]
    for i, row in enumerate(rows, start=1):
        rep = _check_row(ids, row)
        if not rep.equivalent:
            raise NotEquivalentError(rep, dimension=i)
    return rows


def dvp_lower_bound(inst):
    """Vector packing: clique number of the union conflict graph.  When the
    union is itself threshold the number falls out of its sequence; otherwise
    it is computed by maximal-clique enumeration on the union's adjacency
    masks directly."""
    _require_unit_view(inst)
    if inst.n == 0:
        return 0
    adj = _cover(_check_dimensions_equivalent(inst)).union_masks
    got = _recognize(adj)
    if isinstance(got, CreationSequence):
        return alpha_omega(got)[1]
    return max(c.bit_count() for c in _cliques(adj))


def dbp_lower_bound(inst):
    """Geometric box packing: clique number of the intersection of the
    per-dimension conflict graphs (items conflicting in every dimension
    cannot share a bin even geometrically)."""
    _require_unit_view(inst)
    if inst.n == 0:
        return 0
    return omega_intersection(_cover(_check_dimensions_equivalent(inst)))
