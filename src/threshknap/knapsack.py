"""Knapsack instances over exact rationals, their conflict graphs, the
pairwise-compatibility characterization of when the conflict graph carries
full feasibility information, exact solvers for such instances, and packing
lower bounds derived from clique numbers.

An instance is its exact integer rows: per dimension the sizes and the
capacity times the lcm of their reduced denominators, and the profits times
theirs.  Numbers are parsed straight to integer pairs; Fractions appear only
in the `items`/`capacity`/`capacities` views and in solution totals, and
every comparison against a capacity is exact.  One builder, `_build`, checks
and scales every instance, for the parser and for each constructor; a
`BpInstance` is the one-row instance of capacity 1.  The conflict graph
joins two items when they overfill some row together.  One row's conflict
graph is always a threshold graph; several rows give the union of theirs,
which may be threshold too.  One decide-and-solve path serves any number of
rows: on a threshold conflict graph it walks the creation sequence, which
is what makes the solvers polynomial, and otherwise it lists the cover's
maximal independent sets.  The `_dkp` names are the `_kp` functions.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .graphs import Graph, _cliques, bits, format_graph, set_of_mask
from .kthreshold import ThresholdCover, mis_masks_k, omega_intersection
from .threshold import (
    CreationSequence,
    _recognize,
    alpha_omega,
    creation_sequence_to_graph,
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


def _numeral(value):
    """Reduced (numerator, denominator) of an instance number.  Strings of
    ASCII digits, alone or as `a/b` with b nonzero, are converted by int()
    and reduced by one gcd; everything else goes through `rational`, so
    every accepted value and every error message is the same."""
    if isinstance(value, str) and value.isascii():
        if value.isdigit():
            try:
                return int(value), 1
            except ValueError:  # more digits than int() may convert
                pass
        else:
            num, _, den = value.partition("/")
            if num.isdigit() and den.isdigit():
                try:
                    a, b = int(num), int(den)
                except ValueError:  # as above
                    pass
                else:
                    if b:
                        g = gcd(a, b)
                        return a // g, b // g
    q = rational(value)
    return q.numerator, q.denominator


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


def _check_item(iid, profit, sizes, what):
    """The rules one item obeys: a nonempty id, no negative profit or size."""
    if not iid:
        raise ValueError("item id must be nonempty")
    if profit < 0 or any(s < 0 for s in sizes):
        raise ValueError(f"item {iid}: profit and {what} must be non-negative")


@dataclass(frozen=True)
class KpItem:
    id: str
    profit: Fraction
    size: Fraction

    def __post_init__(self):
        _check_item(self.id, self.profit, (self.size,), "size")


@dataclass(frozen=True)
class DkpItem:
    id: str
    profit: Fraction
    sizes: tuple

    def __post_init__(self):
        _check_item(self.id, self.profit, self.sizes, "sizes")


def _scaled(nums, dens):
    """Exact integers proportional to the reduced fractions nums[k]/dens[k],
    and the lcm of the denominators that they were multiplied by."""
    scale = lcm(*set(dens))
    if scale == 1:
        return list(nums), 1
    return [num * (scale // den) for num, den in zip(nums, dens)], scale


def _parts(values):
    """Numerators and denominators of a list of ints or Fractions."""
    return [q.numerator for q in values], [q.denominator for q in values]


@dataclass(frozen=True, init=False)
class _Instance:
    """Knapsack items as exact integer rows.  `ids` names the items in
    order; `profits` are their profits times `pscale`, the lcm of the
    profits' reduced denominators; `rows` holds one (sizes, capacity, scale)
    per dimension, the sizes and capacity times that dimension's lcm
    `scale`.  The scales are canonical, so equality and hash by rows are
    equality of the rational values.  `_build` checks and fills them for
    the parser and every constructor; the Fraction views (`items`,
    `capacity`, `capacities`) are built on first access."""

    ids: tuple
    profits: tuple
    pscale: int
    rows: tuple

    @property
    def n(self):
        return len(self.ids)


def _build(inst, ids, nums, dens, counts, caps):
    """Check an instance and fill `inst` with its rows; the one place that
    holds the instance rules.  `nums`/`dens` are the reduced profit and size
    pairs in item order (profit, then its `counts[k]` sizes), `caps` the
    capacities' (num, den) pairs.  A KpInstance is one row.  The first fault
    raises ValueError, in this order: per item in order its size count (one
    row), id and signs; the capacities' count and signs; the size counts
    (several rows); the ids' uniqueness."""
    one_row = isinstance(inst, KpInstance)
    if (one_row and counts.count(1) != len(counts)) or not all(ids) or min(nums, default=0) < 0:
        _item_fault(ids, nums, counts, one_row)
    if not caps:
        raise ValueError("at least one dimension required")
    if any(num < 0 for num, _ in caps):
        raise ValueError(f"{'capacity' if one_row else 'capacities'} must be non-negative")
    d = len(caps)
    for iid, count in zip(ids, counts):
        if count != d:
            raise ValueError(f"item {iid}: expected {d} sizes, got {count}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate item ids")
    # every item now has d sizes: nums run profit, sizes, profit, ...
    step = d + 1
    profits, pscale = _scaled(nums[::step], dens[::step])
    rows = []
    for i, (num, den) in enumerate(caps, start=1):
        ints, scale = _scaled([*nums[i::step], num], [*dens[i::step], den])
        cap = ints.pop()
        rows.append((tuple(ints), cap, scale))
    object.__setattr__(inst, "ids", tuple(ids))
    object.__setattr__(inst, "profits", tuple(profits))
    object.__setattr__(inst, "pscale", pscale)
    object.__setattr__(inst, "rows", tuple(rows))
    return inst


def _item_fault(ids, nums, counts, one_row):
    """Raise the first item fault in order: a size count other than one
    (one row only), then the item's own rules."""
    start = 0
    for iid, count in zip(ids, counts):
        profit, sizes = nums[start], nums[start + 1 : start + 1 + count]
        start += 1 + count
        if one_row and count != 1:
            raise InstanceFormatError(
                f"item {iid!r}: one size expected for a one-dimensional instance"
            )
        _check_item(iid, profit, sizes, "size" if one_row else "sizes")


class KpInstance(_Instance):
    """One knapsack row.  `KpInstance(items, capacity)` hands its values to
    `_build`, which checks the capacity and the ids; each KpItem checked
    its own values."""

    def __init__(self, items, capacity):
        items = tuple(items)
        nums, dens = _parts([q for it in items for q in (it.profit, it.size)])
        caps = [(capacity.numerator, capacity.denominator)]
        _build(self, [it.id for it in items], nums, dens, [1] * len(items), caps)

    @cached_property
    def items(self):
        (sizes, _, scale), = self.rows
        return tuple(
            KpItem(i, Fraction(p, self.pscale), Fraction(s, scale))
            for i, p, s in zip(self.ids, self.profits, sizes)
        )

    @cached_property
    def capacity(self):
        (_, cap, scale), = self.rows
        return Fraction(cap, scale)


class DkpInstance(_Instance):
    """Several knapsack rows over the same items.  `DkpInstance(items,
    capacities)` hands its values to `_build`, which checks the dimension
    count, the capacities, each item's size count and the ids; each DkpItem
    checked its own values."""

    def __init__(self, items, capacities):
        items = tuple(items)
        nums, dens = _parts([q for it in items for q in (it.profit, *it.sizes)])
        caps = [(c.numerator, c.denominator) for c in capacities]
        counts = [len(it.sizes) for it in items]
        _build(self, [it.id for it in items], nums, dens, counts, caps)

    @property
    def d(self):
        return len(self.rows)

    @cached_property
    def items(self):
        columns = [[Fraction(s, scale) for s in sizes] for sizes, _, scale in self.rows]
        return tuple(
            DkpItem(i, Fraction(p, self.pscale), tuple(sizes))
            for i, p, *sizes in zip(self.ids, self.profits, *columns)
        )

    @cached_property
    def capacities(self):
        return tuple(Fraction(cap, scale) for _, cap, scale in self.rows)


class BpInstance(KpInstance):
    """Unit-capacity packing data: `BpInstance(sizes)` with every size in
    (0, 1] is the one-row instance of capacity 1 whose items a1..an have
    profit 0 and these sizes."""

    def __init__(self, sizes):
        sizes = tuple(sizes)
        _require_unit_sizes(*_scaled(*_parts(sizes)))
        items = (KpItem(f"a{j}", Fraction(0), s) for j, s in enumerate(sizes, start=1))
        super().__init__(items, Fraction(1))


def _require_unit_sizes(sizes, scale):
    """Every size of a row lies in (0, 1], that is 0 < size <= scale."""
    for s in sizes:
        if not 0 < s <= scale:
            raise ValueError(f"sizes must lie in (0, 1], got {Fraction(s, scale)}")


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
    the plural forms (a one-element capacities list stays multi-dimensional).
    One pass over the entries converts each number to a reduced integer
    pair where it is read; `_build` checks the pairs and scales them into
    rows, with no Fraction and no item object.  A file with several faults
    reports the first in this order: the JSON shape; each entry's fields and
    numbers in file order; the capacities; then `_build`'s order."""
    try:
        obj = json.loads(text)
    except ValueError as e:  # a decode error, or an integer beyond the digit limit
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

    # per entry its profit, then its sizes, each converted where it is read,
    # so a bad number comes before any later fault
    ids, nums, dens, counts = [], [], [], []
    for entry in raw_items:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise InstanceFormatError("each item needs a string id")
        if "profit" not in entry:
            raise InstanceFormatError(f"item {entry['id']!r}: missing profit")
        ids.append(entry["id"])
        num, den = _numeral(entry["profit"])
        nums.append(num)
        dens.append(den)
        if ("size" in entry) == ("sizes" in entry):
            raise InstanceFormatError(f"item {entry['id']!r}: exactly one of size/sizes required")
        if "size" in entry:
            num, den = _numeral(entry["size"])
            nums.append(num)
            dens.append(den)
            counts.append(1)
        elif isinstance(entry["sizes"], list):
            for value in entry["sizes"]:
                num, den = _numeral(value)
                nums.append(num)
                dens.append(den)
            counts.append(len(entry["sizes"]))
        else:
            raise InstanceFormatError(f"item {entry['id']!r}: sizes must be a list")
    if "capacity" in obj:
        cls, caps = KpInstance, [_numeral(obj["capacity"])]
    else:
        raw_caps = obj["capacities"]
        if not isinstance(raw_caps, list):
            raise InstanceFormatError("capacities must be a list")
        cls, caps = DkpInstance, [_numeral(c) for c in raw_caps]
    try:
        return _build(object.__new__(cls), ids, nums, dens, counts, caps)
    except ValueError as e:
        if isinstance(e, InstanceFormatError):
            raise
        raise InstanceFormatError(str(e)) from None


def _format_scaled(num, scale):
    """format_rational(num / scale), without a Fraction for integers."""
    return str(num) if scale == 1 else format_rational(Fraction(num, scale))


def format_instance(inst):
    profits = [_format_scaled(p, inst.pscale) for p in inst.profits]
    columns = [[_format_scaled(s, scale) for s in sizes] for sizes, _, scale in inst.rows]
    caps = [_format_scaled(cap, scale) for _, cap, scale in inst.rows]
    if isinstance(inst, KpInstance):
        obj = {
            "capacity": caps[0],
            "items": [
                {"id": i, "profit": p, "size": s}
                for i, p, s in zip(inst.ids, profits, columns[0])
            ],
        }
    else:
        obj = {
            "capacities": caps,
            "items": [
                {"id": i, "profit": p, "sizes": sizes}
                for i, p, *sizes in zip(inst.ids, profits, *columns)
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
# conflict graphs and equivalence, for any number of rows


_NO_ITEMS = Graph(0, ())


class _Row(NamedTuple):
    """One knapsack row on integers: sizes and capacity multiplied by
    `scale`, plus the conflict graph's creation sequence (None without
    items)."""

    sizes: tuple
    capacity: int
    scale: int
    sequence: CreationSequence | None


def _row(sizes, capacity, scale):
    """The core of every path, O(n log n) per row.  Items sorted by
    (size, index) are peeled with two pointers: the smallest remaining item
    fits beside every other one when it fits beside the largest, so it is
    isolated (bit 0); otherwise the largest conflicts with every other one,
    so it is dominating (bit 1); the last item takes bit 1.  The peel read
    backwards is a creation sequence of the conflict graph, found without
    listing an edge.  `sizes`, `capacity` and `scale` are an instance
    row."""
    n = len(sizes)
    if not n:
        return _Row(sizes, capacity, scale, None)
    order = sorted(range(n), key=sizes.__getitem__)
    lo, hi = 0, n - 1
    bits, peeled = [], []
    while lo < hi:
        if sizes[order[lo]] + sizes[order[hi]] <= capacity:
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
    return _Row(sizes, capacity, scale, cs)


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


def _first_overfull(cs, sizes, capacity):
    """(0-bit count, item of v(i), position i) of the first maximal
    independent set of the sequence's graph, in canonical order (fewest
    items, then smallest indices), whose `sizes` total exceeds `capacity`;
    None when every one fits.  Sets of one size share their 0-bit
    vertices, so among them the one with the smallest v(i) comes first."""
    first = None
    for i, zeros, j, total in _mis_walk(cs, sizes):
        if first is not None and zeros > first[0]:
            break
        if total > capacity and (first is None or j < first[1]):
            first = (zeros, j, i)
    return first


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


def _precedes(a, b):
    """Does the set of mask a come before that of mask b in canonical order
    (fewer members, then the smaller sorted tuple)?  Among sets of one
    size, the first is the one holding the lowest member of a ^ b."""
    ka, kb = a.bit_count(), b.bit_count()
    if ka != kb:
        return ka < kb
    d = a ^ b
    return bool(a & d & -d)


def _total(padded, m):
    """The total over the items of mask m (bit j for item j) of a row
    given as `padded`, its values after one leading 0."""
    return sum(map(padded.__getitem__, bits(m)))


def _members(m):
    """0-based items of the mask m (vertex v is item v - 1), in increasing
    order."""
    return tuple(v - 1 for v in set_of_mask(m))


def _decide(ids, rows):
    """(report, sequence, family) for the `_Row`s of an instance.
    Feasibility of every maximal independent set of the conflict graph is
    enough: feasibility is downward closed and every independent set extends
    to a maximal one.  The first overfull set in canonical order is shrunk
    to the witness.  The sets are read off `sequence` when the conflict
    graph is threshold: always for one row, and for several rows when their
    union is; each row then gives its own first overfull set.  Otherwise
    `family` holds them as masks of the cover's union (bit j for item j),
    in no order; only the witness becomes a tuple."""
    limits = [(row.sizes, row.capacity) for row in rows]
    conflict = cs = rows[0].sequence
    fam, members = [], None
    if cs is None:  # no items
        conflict = _NO_ITEMS
    elif len(rows) > 1:
        conflict = ThresholdCover(tuple(row.sequence for row in rows))
        cs = _recognize(conflict.union_masks)
        if not isinstance(cs, CreationSequence):
            cs = None
            fam = mis_masks_k(conflict)
    if cs is not None:
        firsts = [_first_overfull(cs, sizes, cap) for sizes, cap in limits]
        first = min(filter(None, firsts), default=None)
        if first is not None:
            members = _mis_members(cs, first[2])
    else:
        padded = [((0, *sizes), cap) for sizes, cap in limits]
        first = 0  # the first overfull set so far, 0 for none
        for m in fam:
            if (not first or _precedes(m, first)) and any(
                _total(row, m) > cap for row, cap in padded
            ):
                first = m
        members = _members(first) if first else None
    if members is None:
        return EquivalenceReport(True, conflict, None), cs, fam
    if len(rows) == 1:
        weight = rows[0].sizes
    else:
        # an item's size summed over the rows, times the lcm of their
        # scales: exact, and ordered as the rational sums are
        common = lcm(*(row.scale for row in rows))
        weight = {j: sum(r.sizes[j] * (common // r.scale) for r in rows) for j in members}
    small = _shrink_witness(members, weight, limits)
    return EquivalenceReport(False, conflict, tuple(ids[j] for j in small)), cs, fam


def _rows(inst):
    return [_row(*row) for row in inst.rows]


def conflict_graph_kp(inst):
    """Items as vertices; an edge whenever two items overfill some row
    together (strict comparison): the union of the rows' conflict graphs,
    ORed from their creation sequences."""
    return conflict_cover_dkp(inst).covered if inst.n else _NO_ITEMS


def conflict_cover_dkp(inst):
    """The same union, kept as a cover whose members are the per-dimension
    conflict graphs' creation sequences."""
    if inst.n == 0:
        raise ValueError("the empty graph has no creation sequence")
    return ThresholdCover(tuple(row.sequence for row in _rows(inst)))


def check_equivalence_kp(inst):
    """Equivalence report of an instance with any number of rows.  On
    failure the witness is a pairwise-compatible but oversized item set,
    shrunk to a minimal one.  O(n log n) per row when the conflict graph is
    threshold, plus the union's masks when there are several rows."""
    return _decide(inst.ids, _rows(inst))[0]


def _best_candidate(masks, profits):
    """The mask of max total of the integer `profits` (bit j for item j)
    and that total, the empty set 0 included; ties go to fewer items, then
    lexicographic indices."""
    padded = (0, *profits)
    best = best_profit = 0
    for m in masks:
        p = _total(padded, m)
        if p > best_profit or (p == best_profit and _precedes(m, best)):
            best, best_profit = m, p
    return best, best_profit


def solve_kp_equivalent(inst):
    """Optimum over the maximal independent sets of the conflict graph plus
    the empty set; exact rational profit.  Ties go to fewer items, then
    smaller indices; among sets of one size that is the smallest v(i), as in
    the check.  On a threshold conflict graph O(n log n) per row plus the
    chosen set; otherwise one sum per set of the cover's family."""
    rows = _rows(inst)
    rep, cs, fam = _decide(inst.ids, rows)
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    if cs is None:
        best, profit = _best_candidate(fam, inst.profits)
        chosen = _members(best)
    else:
        best = None  # (-profit, 0-bit count, item of v(i), position i)
        for i, zeros, j, p in _mis_walk(cs, inst.profits):
            key = (-p, zeros, j, i)
            if p > 0 and (best is None or key < best):
                best = key
        chosen = _mis_members(cs, best[3]) if best else ()
        profit = -best[0] if best else 0
    totals = tuple(
        Fraction(sum(row.sizes[j] for j in chosen), row.scale) for row in rows
    )
    return Solution(
        tuple(inst.ids[j] for j in chosen), Fraction(profit, inst.pscale), totals
    )


# one body per job, whatever the number of rows
check_equivalence_dkp = check_equivalence_kp
solve_dkp_equivalent = solve_kp_equivalent
conflict_graph_dkp = conflict_graph_kp


# ---------------------------------------------------------------------------
# packing lower bounds


def bp_lower_bound(inst):
    """Clique number of the conflict graph of the unit-capacity view; a valid
    bin lower bound because conflicting items need distinct bins.  Refuses
    instances whose conflict graph does not capture feasibility.  The number
    is the count of 1-bits in the conflict graph's creation sequence.

    `inst` is a one-dimensional knapsack instance of capacity 1 whose sizes
    are the packing sizes, a BpInstance among them.  A refusal's witness
    names the items a1..an by position."""
    if len(inst.rows) != 1:
        raise ValueError("bp bound expects a one-dimensional instance")
    (sizes, cap, scale), = inst.rows
    if cap != scale:
        raise ValueError("bp bound expects capacity 1")
    _require_unit_sizes(sizes, scale)
    row = _row(sizes, scale, scale)
    rep = _decide([f"a{j + 1}" for j in range(len(sizes))], [row])[0]
    if not rep.equivalent:
        raise NotEquivalentError(rep)
    return row.sequence.bits.count("1") if row.sequence else 0


def _require_unit_view(inst):
    """Every capacity is 1 (capacity == scale in its row) and every size
    lies in (0, 1] (0 < size <= scale).  The packing bounds read only an
    instance's rows, so a KpInstance counts as one dimension."""
    if any(cap != scale for _, cap, scale in inst.rows):
        raise ValueError("packing bounds expect all capacities equal to 1")
    for j, iid in enumerate(inst.ids):
        if not all(0 < sizes[j] <= scale for sizes, _, scale in inst.rows):
            raise ValueError(f"item {iid}: packing sizes must lie in (0, 1]")


def _check_dimensions_equivalent(inst):
    """The cover of the instance's rows, each row checked on its own; a
    failure names its 1-based dimension."""
    rows = _rows(inst)
    for i, row in enumerate(rows, start=1):
        rep = _decide(inst.ids, [row])[0]
        if not rep.equivalent:
            raise NotEquivalentError(rep, dimension=i)
    return ThresholdCover(tuple(row.sequence for row in rows))


def dvp_lower_bound(inst):
    """Vector packing: clique number of the union conflict graph.  When the
    union is itself threshold the number falls out of its sequence; otherwise
    a branch and bound over the Bron-Kerbosch walk on the union's adjacency
    masks finds it, skipping every branch that cannot beat the largest
    clique found so far."""
    _require_unit_view(inst)
    if inst.n == 0:
        return 0
    adj = _check_dimensions_equivalent(inst).union_masks
    got = _recognize(adj)
    if isinstance(got, CreationSequence):
        return alpha_omega(got)[1]
    return _cliques(adj, largest=True)[-1].bit_count()


def dbp_lower_bound(inst):
    """Geometric box packing: clique number of the intersection of the
    per-dimension conflict graphs (items conflicting in every dimension
    cannot share a bin even geometrically)."""
    _require_unit_view(inst)
    if inst.n == 0:
        return 0
    return omega_intersection(_check_dimensions_equivalent(inst))
