"""Command-line surface: build, verify, bound, solve, census, random-demo.

Exit codes: 0 success / 1 invalid result (e.g. verification found
violations) / 2 bad input, or input beyond a size cap / 3 internal
self-check failure / 4 precondition failed.  All randomness flows from
--seed.
"""

import argparse
import sys

from .addressing import (
    Addressing,
    check_addressing,
    format_addressing,
    load_addressing,
    save_addressing,
    verify_addressing,
)
from .constructions import (
    blow_up,
    ceil_two_sqrt,
    k_threshold,
    one_two_cover,
    plus_three,
    random_partition,
)
from .errors import CapabilityError, PreconditionError, SelfCheckError
from .fixtures import load_fixture
from .graphs import (
    bfs_distances,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    johnson_graph,
    kam_graph,
    parse_graph6,
    petersen_graph,
    random_graph,
)
from .johnson import johnson_addressing
from .search import SearchConfig, census_distribution, solve_N
from .spectral import lower_bound

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PRECONDITION = 4


def parse_graph_spec(tokens):
    """Graph mini-language: johnson N K | cycle N | complete N |
    multipartite A,B,C | kam A M | petersen | graph6:FILE:LINE."""
    if not tokens:
        raise ValueError("empty graph spec")
    head, args = tokens[0], tokens[1:]
    try:
        if head == "johnson" and len(args) == 2:
            return johnson_graph(int(args[0]), int(args[1]))
        if head == "cycle" and len(args) == 1:
            return cycle_graph(int(args[0]))
        if head == "complete" and len(args) == 1:
            return complete_graph(int(args[0]))
        if head == "multipartite" and len(args) == 1:
            return complete_multipartite([int(x) for x in args[0].split(",")])
        if head == "kam" and len(args) == 2:
            return kam_graph(int(args[0]), int(args[1]))
        if head == "petersen" and not args:
            return petersen_graph()
        if head.startswith("graph6:") and not args:
            _, path, lineno = head.split(":", 2)
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
            idx = int(lineno) - 1
            if not 0 <= idx < len(lines):
                raise ValueError(f"{path} has no line {lineno}")
            return parse_graph6(lines[idx])
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad graph spec {' '.join(tokens)!r}: {exc}") from exc
    raise ValueError(f"unrecognized graph spec {' '.join(tokens)!r}")


def _emit_addressing(adr, out):
    """Write an addressing to the file `out`, or to stdout when it is unset."""
    if out:
        save_addressing(out, adr)
    else:
        sys.stdout.write(format_addressing(adr))
    return EXIT_OK


def _load_base(value):
    if value.startswith("fixture:"):
        adr, _ = load_fixture(value[len("fixture:"):])
        return adr
    return load_addressing(value)


def cmd_address(args):
    if args.family == "johnson":
        adr = johnson_addressing(args.n, args.k, order=args.order)
        check_addressing(bfs_distances(johnson_graph(args.n, args.k)), adr,
                         f"J({args.n},{args.k}) addressing")
        return _emit_addressing(adr, args.output)
    if args.family == "blowup":
        if args.base:
            base = _load_base(args.base)
        elif (args.a, args.m) == (2, 2):
            base = Addressing(2, 2, ["00", "11", "01", "10"])
        else:
            print("blowup needs --base for anything beyond K(2;2)", file=sys.stderr)
            return EXIT_BAD_INPUT
        return _emit_addressing(blow_up(base, args.a, args.m, args.s), args.output)
    if args.family == "plus3":
        sizes = [int(x) for x in args.classes.split(",")]
        base = _load_base(args.base)
        adr = plus_three(base, sizes, args.grow_class, args.vertex)
        return _emit_addressing(adr, args.output)
    raise ValueError(f"unknown family {args.family}")


def cmd_verify(args):
    graph = parse_graph_spec(args.graph)
    adr = load_addressing(args.addressing)
    violations = verify_addressing(bfs_distances(graph), adr)
    if not violations:
        print(f"valid: {adr.n} vertices, r={adr.r}, length {adr.length}")
        return EXIT_OK
    for u, v, want, got in violations:
        print(f"violation: pair ({u},{v}) expected {want} got {got}")
    print(f"{len(violations)} violations")
    return EXIT_INVALID


def cmd_bound(args):
    graph = parse_graph_spec(args.graph)
    rep = lower_bound(bfs_distances(graph), args.r)
    print("n\tr\tn_plus\tn_zero\tn_minus\teigen_r2\teigen_r\tlog2\tbest")
    print(f"{rep.n}\t{rep.r}\t{rep.inertia.n_plus}\t{rep.inertia.n_zero}"
          f"\t{rep.inertia.n_minus}\t{rep.eigen_bound_r2}\t{rep.eigen_bound_r}"
          f"\t{rep.log2_bound}\t{rep.best}")
    return EXIT_OK


def cmd_solve(args):
    graph = parse_graph_spec(args.graph)
    res = solve_N(SearchConfig(graph=graph, r=args.r, node_limit=args.node_limit))
    if res.value is None:
        print(f"unknown: N_{args.r} in [{res.lower}, {res.upper}] "
              f"(node limit hit after {res.nodes_explored} nodes)")
        return EXIT_INVALID
    print(f"N_{args.r} = {res.value} (nodes {res.nodes_explored})")
    if args.certificate:
        sys.stdout.write(format_addressing(res.addressing))
    if args.output:
        save_addressing(args.output, res.addressing)
    return EXIT_OK


def cmd_census(args):
    with open(args.file, "rb") as fh:
        lines = fh.read().splitlines()
    res = census_distribution(
        lines, r=args.r, jobs=args.jobs, node_limit=args.node_limit
    )
    for lineno, msg in res.errors:
        print(f"line {lineno}: skipped ({msg})", file=sys.stderr)
    offsets = [c for counts in res.by_n.values() for c in counts]
    width = max(5, max(offsets, default=0))
    header = ["n", "graphs"] + [f"n-{c}" for c in range(1, width + 1)]
    print("\t".join(header))
    for n in sorted(res.by_n):
        counts = res.by_n[n]
        row = [str(n), str(sum(counts.values()))]
        row += [str(counts.get(c, 0)) for c in range(1, width + 1)]
        print("\t".join(row))
    for lineno, msg in res.internal_errors:
        print(f"line {lineno}: internal error: {msg}", file=sys.stderr)
    return EXIT_INTERNAL if res.internal_errors else EXIT_OK


def cmd_random_demo(args):
    graph = random_graph(args.n, args.seed)
    k = args.k if args.k is not None else k_threshold(args.n)
    cover = one_two_cover(k)
    parts = random_partition(graph, k)
    print(f"n={args.n} seed={args.seed} k={k} cover_pieces={len(cover.pieces)}")
    print(f"partition_size={len(parts)} bound={args.n - k + ceil_two_sqrt(k) + 1}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="squashcube",
        description="Graph addressings: constructions, bounds, exact search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("address", help="emit a constructed addressing")
    pa_sub = pa.add_subparsers(dest="family", required=True)
    pj = pa_sub.add_parser("johnson")
    pj.add_argument("-n", type=int, required=True)
    pj.add_argument("-k", type=int, required=True)
    pj.add_argument("--order", choices=["by-x", "by-y"], default="by-x")
    pj.add_argument("-o", "--output")
    pb = pa_sub.add_parser("blowup")
    pb.add_argument("-a", type=int, required=True)
    pb.add_argument("-m", type=int, required=True)
    pb.add_argument("-s", type=int, required=True)
    pb.add_argument("--base", help="base addressing file or fixture:<name>")
    pb.add_argument("-o", "--output")
    pp = pa_sub.add_parser("plus3")
    pp.add_argument("--base", required=True, help="addressing file or fixture:<name>")
    pp.add_argument("--classes", required=True, help="comma-separated class sizes")
    pp.add_argument("--grow-class", type=int, default=0)
    pp.add_argument("--vertex", type=int, default=0)
    pp.add_argument("-o", "--output")

    pv = sub.add_parser("verify", help="check an addressing file against a graph")
    pv.add_argument("graph", nargs="+")
    pv.add_argument("addressing")

    pbnd = sub.add_parser("bound", help="lower bounds from the distance spectrum")
    pbnd.add_argument("graph", nargs="+")
    pbnd.add_argument("--r", type=int, default=2)

    ps = sub.add_parser("solve", help="exact minimum addressing length")
    ps.add_argument("graph", nargs="+")
    ps.add_argument("--r", type=int, default=2)
    ps.add_argument("--node-limit", type=int)
    ps.add_argument("--certificate", action="store_true",
                    help="print the witness addressing")
    ps.add_argument("-o", "--output", help="write the witness addressing here")

    pc = sub.add_parser("census", help="distribution of N_r over a graph6 file")
    pc.add_argument("file")
    pc.add_argument("--r", type=int, default=2)
    pc.add_argument("--jobs", type=int, default=None)
    pc.add_argument("--node-limit", type=int)

    pr = sub.add_parser("random-demo",
                        help="distance-multigraph partition of a random graph")
    pr.add_argument("-n", type=int, default=64)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--k", type=int, help="override the threshold k")

    return p


_HANDLERS = {
    "address": cmd_address,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "solve": cmd_solve,
    "census": cmd_census,
    "random-demo": cmd_random_demo,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SelfCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    # a bad graph spec is a ValueError; CapabilityError is an input beyond a cap
    except (ValueError, OSError, KeyError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
