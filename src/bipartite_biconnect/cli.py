"""Command line front end.

Subcommands: augment, verify, oracle, gen, tree, bench.  Exit codes:
0 success, 1 bad input, 2 no feasible augmentation, 3 verification or
search failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .augment import Analysis, analyse, augment, solve
from .blocks import BlockTree, tree_to_dot
from .bounds import NEEDY
from .errors import CapExceeded, NoBiconnector, ParseError
from .graph import (
    BipartiteGraph,
    generate_instance,
    parse_graph,
    serialize_graph,
)
from .matching import profile
from .stats import OpCounters
from .treeindex import AugTreeIndex
from .verify import MAX_CAP, brute_force_optimal, check_componentwise_biconnected, verify_result

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for infeasible."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:
                raise ParseError("cannot read -: no standard input")
            # strict, whatever error handler the locale gave stdin
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc


def _parse_edge_lines(text: str) -> list[tuple[str, str]]:
    """Read ADD lines back in, ignoring comments and the SIZE footer.

    As in the graph format, ``#`` only starts a comment as the first
    token of a line or after the two labels of an ADD line, so labels
    may contain it.
    """
    pairs: list[tuple[str, str]] = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#") or tokens[0] == "SIZE":
            continue
        ends = len(tokens) == 3 or (len(tokens) > 3 and tokens[3].startswith("#"))
        if tokens[0] == "ADD" and ends:
            pairs.append((tokens[1], tokens[2]))
        else:
            raise ParseError(f"bad edge line: {raw.strip()!r}")
    return pairs


def _stats_payload(g: BipartiteGraph, a: Analysis) -> dict:
    """The solver's own analysis of g, then each needy component's."""
    dec, cen, counts, prof = a.dec, a.cen, a.counts, a.prof
    out: dict = {
        "m_case": a.label,
        "census": {
            "c1": cen.c1,
            "c2": cen.c2,
            "c3": cen.c3,
            "c_iso": cen.c_iso,
            "c_total": cen.c_total,
        },
        "pendants": {"A": counts[0], "B": counts[1], "AB": counts[2]},
        "matching": {"m": prof.m, "r": prof.r},
        "components": [],
    }
    # each needy component as the solver's index first sees it on its own
    for cid, cls in enumerate(cen.comp_classes):
        if cls != NEEDY:
            continue
        tree = BlockTree.build(g, dec.branches, *dec.component(cid))
        index = AugTreeIndex(tree)
        comp_prof = profile(*index.counts())
        d_max = index.max_cdeg
        hub = index.massive_node()
        massive = [] if hub == -1 else [hub]
        out["components"].append(
            {
                "component": cid,
                "s_case": index.s_case(),
                "d_max": d_max,
                "c_star": g.labels[tree.payload[index.grp_head[d_max]]],
                "massive": [g.labels[tree.payload[x]] for x in massive],
                "critical": [g.labels[tree.payload[x]] for x in index.critical_nodes()],
                "m": comp_prof.m,
                "r": comp_prof.r,
            }
        )
    return out


def _print_stat_lines(stats: dict) -> None:
    print(f"# STAT m_case {stats['m_case']}")
    cen = stats["census"]
    print(
        "# STAT census"
        f" c1={cen['c1']} c2={cen['c2']} c3={cen['c3']}"
        f" c_iso={cen['c_iso']} c_total={cen['c_total']}"
    )
    pend = stats["pendants"]
    mat = stats["matching"]
    print(
        "# STAT pendants"
        f" A={pend['A']} B={pend['B']} AB={pend['AB']}"
        f" m={mat['m']} r={mat['r']}"
    )
    for comp in stats["components"]:
        print(
            f"# STAT component {comp['component']}"
            f" s_case={comp['s_case']} d_max={comp['d_max']}"
            f" c_star={comp['c_star'] or '-'}"
            f" massive={','.join(comp['massive']) or '-'}"
            f" critical={','.join(comp['critical']) or '-'}"
            f" m={comp['m']} r={comp['r']}"
        )


def _cmd_augment(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.input))
    counters = OpCounters()
    a = analyse(g, counters)
    stats = _stats_payload(g, a) if args.stats else None
    result = solve(g, a, counters)
    if args.verify:
        rep = verify_result(g, result)
        if not rep.passed:
            for line in rep.lines():
                print(line, file=sys.stderr)
            return EXIT_FAILED
    if args.json:
        payload: dict = {
            "schema": 1,
            "added_edges": [list(e) for e in result.added_edges],
            "size": result.size,
            "target": result.target,
            "trace": list(result.trace),
        }
        if args.verify:
            payload["verified"] = True
        if args.stats:
            payload["stats"] = stats
            payload["counters"] = counters.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    for (a, b), case in zip(result.added_edges, result.trace):
        suffix = f"  # {case}" if args.trace else ""
        print(f"ADD {a} {b}{suffix}")
    print(f"SIZE {result.size}")
    if args.stats:
        _print_stat_lines(stats)
    return EXIT_OK


def _check_cap(cap: int) -> None:
    if not 0 <= cap <= MAX_CAP:
        raise ParseError(f"--cap must lie in [0, {MAX_CAP}], got {cap}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_cap(args.cap)
    g = parse_graph(_read_text(args.input))
    if args.edges is not None:
        pairs = _parse_edge_lines(_read_text(args.edges))
        rep = verify_result(g, pairs, use_oracle=args.oracle, cap=args.cap)
    else:
        rep = check_componentwise_biconnected(g)
    for line in rep.lines():
        print(line)
    return EXIT_OK if rep.passed else EXIT_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    _check_cap(args.cap)
    g = parse_graph(_read_text(args.input))
    try:
        size, pairs = brute_force_optimal(g, cap=args.cap)
    except (CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    for u, v in pairs:
        print(f"ADD {g.labels[u]} {g.labels[v]}")
    print(f"SIZE {size}")
    return EXIT_OK


def _check_p(p: Optional[float]) -> None:
    # written so that nan fails too
    if p is not None and not 0.0 <= p <= 1.0:
        raise ParseError(f"--p must lie in [0, 1], got {p}")


def _cmd_gen(args: argparse.Namespace) -> int:
    _check_p(args.p)
    try:
        g = generate_instance(args.kind, args.size, args.seed, args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.input))
    sys.stdout.write(tree_to_dot(g))
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            size = int(float(token))
        except (ValueError, OverflowError):
            raise ParseError(f"bad size {token!r}") from None
        if size < 1:
            raise ParseError(f"size must be positive, got {token!r}")
        out.append(size)
    if not out:
        raise ParseError("no sizes given")
    return out


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_p(args.p)
    for size in _parse_sizes(args.sizes):
        g = generate_instance(args.kind, size, args.seed, args.p)
        counters = OpCounters()
        start = time.perf_counter()
        result = augment(g, counters)
        elapsed = time.perf_counter() - start
        fields = " ".join(f"{k}={v}" for k, v in counters.as_dict().items())
        print(
            f"BENCH kind={args.kind} size={size} n={g.n} edges={g.m}"
            f" added={result.size} {fields} total={counters.total()}"
        )
        print(
            f"TIME kind={args.kind} size={size} seconds={elapsed:.6f}",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibic",
        description="Make every component of a bipartite graph biconnected "
        "with the minimum number of side-respecting edges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_aug = sub.add_parser("augment", help="compute a minimum augmentation")
    p_aug.add_argument("input", help="graph file, or - for stdin")
    p_aug.add_argument("--trace", action="store_true", help="annotate edges with case tags")
    p_aug.add_argument("--json", action="store_true", help="emit a JSON document")
    p_aug.add_argument("--stats", action="store_true", help="include structure statistics")
    p_aug.add_argument("--verify", action="store_true", help="check the result before printing")
    p_aug.set_defaults(func=_cmd_augment)

    p_ver = sub.add_parser("verify", help="check a graph or a proposed edge set")
    p_ver.add_argument("input", help="graph file, or - for stdin")
    p_ver.add_argument("--edges", help="file of ADD lines to apply first")
    p_ver.add_argument("--oracle", action="store_true", help="compare against exhaustive search")
    p_ver.add_argument("--cap", type=int, default=MAX_CAP, help="oracle search depth limit")
    p_ver.set_defaults(func=_cmd_verify)

    p_orc = sub.add_parser("oracle", help="exhaustive minimum search for small graphs")
    p_orc.add_argument("input", help="graph file, or - for stdin")
    p_orc.add_argument("--cap", type=int, default=MAX_CAP, help="search depth limit")
    p_orc.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.add_argument("--kind", required=True, choices=["spider", "broom", "caterpillar", "random"])
    p_gen.add_argument("--size", required=True, type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=None, help="edge density for random graphs")
    p_gen.set_defaults(func=_cmd_gen)

    p_tree = sub.add_parser("tree", help="DOT export of the block structure forest")
    p_tree.add_argument("input", help="graph file, or - for stdin")
    p_tree.set_defaults(func=_cmd_tree)

    p_ben = sub.add_parser("bench", help="run the solver on growing instances")
    p_ben.add_argument("--kind", required=True, choices=["spider", "broom", "caterpillar", "random"])
    p_ben.add_argument("--sizes", required=True, help="comma list, scientific ok: 1e4,2e4")
    p_ben.add_argument("--seed", type=int, default=0)
    p_ben.add_argument("--p", type=float, default=None)
    p_ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoBiconnector as exc:  # augment, oracle and bench alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
