"""Command-line front end.

Exit status conventions: 0 on success, 1 on a semantic negative (input graph
is not threshold/split, instance not equivalent to its conflict graph), 2 on
malformed input, 3 on an internal error (one `error: internal:` line on
stderr, no traceback), 141 (128 + SIGPIPE) when the reader closes stdout
early, with nothing more written.  Output is line-oriented and stable for
fixed inputs.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import cache

from .graphs import content_lines, format_graph, parse_graph
from .knapsack import (
    KpInstance,
    KpItem,
    NotEquivalentError,
    bp_lower_bound,
    check_equivalence_kp,
    dbp_lower_bound,
    dvp_lower_bound,
    format_instance,
    format_report,
    format_solution,
    parse_instance,
    rational,
    solve_kp_equivalent,
)
from .kthreshold import (
    enumerate_im_k,
    enumerate_is_k,
    enumerate_mc_intersection,
    enumerate_mis_k,
    im_masks_k,
    mc_masks_intersection,
    mis_masks_k,
    parse_cover,
)
from .split import recognize_split
from .threshold import (
    RecognitionFailure,
    count_im,
    count_is,
    count_mc,
    count_mis,
    enumerate_im,
    enumerate_is,
    enumerate_max_cliques,
    enumerate_mis,
    parse_sequence,
    recognize_threshold,
    sequence_from_bits,
    serialize_sequence,
    threshold_to_kp,
)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sniff(text):
    """'graph' for `p ...` input, 'cover' for `k ...`, else 'sequence'."""
    for _, line in content_lines(text):
        return {"p": "graph", "k": "cover"}.get(line.split()[0], "sequence")
    return "sequence"


def _threshold_sequence(text, shape):
    """The creation sequence of a graph or sequence file of the sniffed
    `shape`; None for a graph that is not threshold."""
    if shape == "graph":
        got = recognize_threshold(parse_graph(text))
        return None if isinstance(got, RecognitionFailure) else got
    return parse_sequence(text)


def _cmd_recognize(args):
    g = parse_graph(_read(args.file))
    recognize = recognize_split if args.split else recognize_threshold
    got = recognize(g, want_witness=args.witness)
    if isinstance(got, RecognitionFailure):
        print(f"not a {'split' if args.split else 'threshold'} graph")
        if got.witness is not None:
            print(f"induced {got.tag}: " + " ".join(str(v) for v in got.witness))
        return 1
    if args.split:
        print("K " + " ".join(str(v) for v in got.K))
        print("S " + " ".join(str(v) for v in got.S))
    else:
        sys.stdout.write(serialize_sequence(got))
    return 0


_SINGLE_COUNT = {"mis": count_mis, "im": count_im, "is": count_is, "mc": count_mc}
_SINGLE_ENUM = {
    "mis": enumerate_mis,
    "im": enumerate_im,
    "is": enumerate_is,
    "mc": enumerate_max_cliques,
}
_COVER_ENUM = {
    "mis": enumerate_mis_k,
    "im": enumerate_im_k,
    "is": enumerate_is_k,
    "mc": enumerate_mc_intersection,
}
# the same families counted: as masks, with no vertex tuple or sort, but for
# `is`, which lists its sets
_COVER_COUNT = {
    "mis": mis_masks_k,
    "im": im_masks_k,
    "is": enumerate_is_k,
    "mc": mc_masks_intersection,
}


def _print_family(fam):
    for s in fam:
        print(" ".join(str(v) for v in s))


def _cmd_enumerate(args):
    text = _read(args.file)
    shape = _sniff(text)
    if shape == "cover":
        cover = parse_cover(text)
        if args.count_only:
            print(len(_COVER_COUNT[args.kind](cover)))
        else:
            _print_family(_COVER_ENUM[args.kind](cover))
        return 0
    cs = _threshold_sequence(text, shape)
    if cs is None:
        print(
            "not a threshold graph; supply a cover file (`k <k>` header) instead",
            file=sys.stderr,
        )
        return 1
    if args.count_only:
        print(_SINGLE_COUNT[args.kind](cs))
    else:
        _print_family(_SINGLE_ENUM[args.kind](cs))
    return 0


def _cmd_convert(args):
    text = _read(args.file)
    if args.direction == "graph-to-kp":
        cs = _threshold_sequence(text, _sniff(text))
        if cs is None:
            print("not a threshold graph", file=sys.stderr)
            return 1
        profits = None
        if args.profits:
            profits = [rational(p) for p in args.profits.split(",")]
        inst = threshold_to_kp(cs, profits)
        sys.stdout.write(format_instance(inst))
        return 0
    rep = check_equivalence_kp(parse_instance(text))
    sys.stdout.write(format_graph(rep.conflict_graph))
    print("EQUIVALENT" if rep.equivalent else "NOT EQUIVALENT")
    if rep.witness:
        print("witness: " + " ".join(rep.witness))
    return 0 if rep.equivalent else 1


def _cmd_check(args):
    rep = check_equivalence_kp(parse_instance(_read(args.file)))
    sys.stdout.write(format_report(rep))
    return 0 if rep.equivalent else 1


def _cmd_solve(args):
    sol = solve_kp_equivalent(parse_instance(_read(args.file)))
    sys.stdout.write(format_solution(sol))
    return 0


_BOUND = {"bp": bp_lower_bound, "dvp": dvp_lower_bound, "dbp": dbp_lower_bound}


def _cmd_bound(args):
    print(_BOUND[args.kind](parse_instance(_read(args.file))))  # each reads the rows
    return 0


def _random_bits(rng, n):
    return "1" + "".join(rng.choice("01") for _ in range(n - 1))


def _cmd_gen(args):
    rng = random.Random(args.seed)
    if args.kind == "threshold":
        cs = sequence_from_bits(_random_bits(rng, args.n))
        sys.stdout.write(serialize_sequence(cs))
        return 0
    if args.kind == "cover":
        print(f"k {args.k}")
        for _ in range(args.k):
            sys.stdout.write(serialize_sequence(sequence_from_bits(_random_bits(rng, args.n))))
        return 0
    cs = sequence_from_bits(_random_bits(rng, args.n))
    profits = [rng.randint(0, 3 * args.n) for _ in range(args.n)]
    inst = threshold_to_kp(cs, profits)
    q = Fraction(rng.randint(1, 30), rng.randint(1, 30))
    inst = KpInstance(
        tuple(KpItem(it.id, it.profit, it.size * q) for it in inst.items),
        inst.capacity * q,
    )
    sys.stdout.write(format_instance(inst))
    return 0


def _positive_int(text):
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return val


@cache  # built once per process; parse_args returns a fresh Namespace per call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="threshknap",
        description="Threshold-graph enumeration and equivalent-knapsack tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="recognize a graph file as threshold (or split)")
    p.add_argument("file")
    p.add_argument("--split", action="store_true", help="test for a split partition instead")
    p.add_argument("--witness", action="store_true", help="report a forbidden induced subgraph on failure")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("enumerate", help="enumerate or count set families")
    p.add_argument("kind", choices=["mis", "im", "is", "mc"])
    p.add_argument("file", help="graph, creation sequence, or cover file")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("convert", help="translate between graphs and knapsack instances")
    p.add_argument("direction", choices=["graph-to-kp", "kp-to-graph"])
    p.add_argument("file")
    p.add_argument("--profits", help="comma-separated profits for graph-to-kp")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("check", help="equivalence report for an instance JSON")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="solve an equivalent instance exactly")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bound", help="packing lower bounds")
    p.add_argument("kind", choices=["bp", "dvp", "dbp"])
    p.add_argument("file")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gen", help="deterministic random test inputs")
    p.add_argument("kind", choices=["threshold", "cover", "kp"])
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=_positive_int, default=2, help="cover members")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotEquivalentError as e:  # a solve or bound refused: the failing report
        sys.stdout.write(format_report(e.report))
        return 1
    except BrokenPipeError:  # the reader closed stdout: stop quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the final flush prints nothing
        os.close(devnull)
        return 141
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault of the program, not of the input
        message = " ".join(str(e).splitlines())
        print(f"error: internal: {type(e).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
