"""Command-line surface.

Subcommands:

* ``swk index``      -- Wiener / Steiner k-Wiener indices of one graph
* ``swk structure``  -- modular/median flags, triple counts, block data
* ``swk verify``     -- run a verification suite against brute force

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 precondition
violation (disconnected input, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

from .bitset import bit_list
from .blocks import block_decomposition, nm_block_graph
from .errors import ParseError, PreconditionError
from .graphs import (
    FAMILY_NAMES,
    FamilySpec,
    Graph,
    make_family,
    parse_edgelist,
    read_graph6_file,
)
from .metric import MATRIX_LIMIT, all_pairs_distances, average_distance, wiener_index
from .report import Report
from .steiner import steiner_wiener
from .structure import _scan_guard, classify_triples
from .verify import SUITE_NAMES, run_suite

_FAMILY_ALIASES = {"fibonacci": "fibonacci_cube", "lucas": "lucas_cube"}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: a build costs about 1 ms,
    as much as a whole small ``swk index`` call."""
    parser = argparse.ArgumentParser(
        prog="swk",
        description="Exact Steiner distances, Steiner k-Wiener indices, and "
        "graph structure recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", metavar="PATH", help="edge list or graph6 file ('-' for stdin)")
    source.add_argument(
        "--family",
        choices=sorted(set(FAMILY_NAMES) | set(_FAMILY_ALIASES)),
        help="generate a standard family instead of reading a file",
    )
    source.add_argument("-n", type=int, default=None, help="family parameter")
    source.add_argument("-m", type=int, default=None, help="second family parameter")
    source.add_argument(
        "--format",
        choices=("edgelist", "graph6"),
        default=None,
        help="input format (default: by file extension, else edgelist)",
    )

    output = argparse.ArgumentParser(add_help=False)
    fmt = output.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report")
    fmt.add_argument("--plain", action="store_true", help="emit plain text (default)")

    p_index = sub.add_parser("index", parents=[source, output],
                             help="compute W, SW_k, mu, mu_k")
    p_index.add_argument("-k", type=int, default=3, help="subset size (default 3)")

    sub.add_parser("structure", parents=[source, output],
                   help="modular/median flags, triple counts, blocks")

    p_verify = sub.add_parser("verify", parents=[output],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=42, help="seed for randomized suites")
    p_verify.add_argument("--count", type=int, default=None, help="instances to draw")
    p_verify.add_argument("--max-n", type=int, default=None, help="largest instance size")
    p_verify.add_argument("--max-size", type=int, default=None,
                          help="largest product size (products suite)")
    p_verify.add_argument("--wiener-max-n", type=int, default=None,
                          help="largest cube order for the Wiener cross-check")
    p_verify.add_argument("--k-cap", type=int, default=None,
                          help="largest subset size (bounds suite)")
    p_verify.add_argument("--corpus", metavar="PATH", default=None,
                          help="graph6 corpus file, '-' for stdin (modular-bound suite)")
    return parser


def _read_text(path: str) -> str:
    """Read an input file as UTF-8 ('-' is stdin); failures are parse errors."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _load_graph(args) -> Graph:
    if (args.input is None) == (args.family is None):
        raise ParseError("exactly one of --input or --family is required")
    if args.family is not None:
        if args.n is None:
            raise ParseError("--family requires -n")
        name = _FAMILY_ALIASES.get(args.family, args.family)
        # Every command needs the distance matrix, so a family too large for
        # it is rejected before it is built.
        return make_family(FamilySpec(name, args.n, args.m), max_vertices=MATRIX_LIMIT)
    text = _read_text(args.input)
    fmt = args.format
    if fmt is None:
        fmt = "graph6" if args.input.endswith(".g6") else "edgelist"
    if fmt == "graph6":
        graphs = read_graph6_file(text)
        if len(graphs) != 1:
            raise ParseError(f"graph6 input must hold one graph, found {len(graphs)}")
        return graphs[0]
    return parse_edgelist(text)


def _graph_summary(G: Graph) -> dict:
    # all_pairs_distances has already rejected disconnected graphs.
    return {"n": G.n, "m": G.m, "connected": True}


def cmd_index(args) -> Report:
    report = Report()
    t0 = time.perf_counter()
    G = _load_graph(args)
    report.timing_ms["build"] = (time.perf_counter() - t0) * 1000.0
    k = args.k
    if k == 3:
        _scan_guard(G.n)  # refused before the distance matrix is built
    t0 = time.perf_counter()
    all_pairs_distances(G)  # kept on G, so the stages below reuse it
    report.timing_ms["distances"] = (time.perf_counter() - t0) * 1000.0
    report.graph = _graph_summary(G)
    t0 = time.perf_counter()
    report.add_result("wiener", wiener_index(G))
    sw = steiner_wiener(G, k)
    report.add_result(f"steiner_wiener_k{k}", sw)
    if G.n >= 2:
        report.add_result("mean_distance", average_distance(G))
    if G.n >= k:
        report.add_result(f"mean_steiner_k{k}", Fraction(sw, comb(G.n, k)))
    report.timing_ms["indices"] = (time.perf_counter() - t0) * 1000.0
    return report


def cmd_structure(args) -> Report:
    report = Report()
    t0 = time.perf_counter()
    G = _load_graph(args)
    report.timing_ms["build"] = (time.perf_counter() - t0) * 1000.0
    _scan_guard(G.n)  # the triple classification's limit, before the distance matrix
    t0 = time.perf_counter()
    all_pairs_distances(G)  # kept on G, so the stages below reuse it
    report.timing_ms["distances"] = (time.perf_counter() - t0) * 1000.0
    report.graph = _graph_summary(G)
    t0 = time.perf_counter()
    if G.n >= 3:
        cls = classify_triples(G)
        report.add_flag("modular", cls.nonmodular == 0)
        report.add_flag("median", cls.nonmodular == 0 and cls.median_unique)
        report.add_result("triples", cls.total)
        report.add_result("nonmodular_triples", cls.nonmodular)
    decomp = block_decomposition(G)
    report.add_result("blocks", len(decomp.blocks))
    report.add_result("cut_vertices", len(bit_list(decomp.cut_vertices)))
    try:
        nm = nm_block_graph(G, decomp)  # refuses a graph with a non-clique block
    except PreconditionError:
        nm = None
    report.add_flag("block_graph", nm is not None)
    if nm is not None and G.n >= 3:
        doubled = (G.n - 2) * wiener_index(G) + nm  # 2*SW_3, as in blocks.sw3_block_formula
        if doubled % 2:
            raise AssertionError("doubled block formula value is odd")
        report.add_result("nonmodular_triples_blockwise", nm)
        report.add_result("sw3_block_formula", doubled // 2)
    report.timing_ms["structure"] = (time.perf_counter() - t0) * 1000.0
    return report


def cmd_verify(args) -> Report:
    for flag in ("count", "max_n", "max_size", "wiener_max_n", "k_cap"):
        if (getattr(args, flag) or 0) < 0:
            raise PreconditionError(f"--{flag.replace('_', '-')} must be nonnegative")
    corpus = None if args.corpus is None else _read_text(args.corpus)
    return run_suite(
        args.suite,
        seed=args.seed,
        count=args.count,
        max_n=args.max_n,
        max_size=args.max_size,
        wiener_max_n=args.wiener_max_n,
        k_cap=args.k_cap,
        corpus=corpus,
    )


_COMMANDS = {"index": cmd_index, "structure": cmd_structure, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"swk: parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"swk: {exc}", file=sys.stderr)
        return 3
    print(report.to_json() if args.json else report.to_plain())
    if not report.ok():
        failing = [c["name"] for c in report.checks
                   if c.get("required", True) and not c["holds"]]
        print(f"swk: failed checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
