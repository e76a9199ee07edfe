"""Command-line interface over edge-list files.

Every subcommand reads a graph from a file (or '-' for standard input)
and reports separators as lines of comma-joined sorted labels, or as
JSON lines with --json.  Enumeration subcommands flush per line so the
delay between outputs is observable externally.

Exit codes, one per outcome: 0 success (including empty enumerations);
1 bad input: usage, parse or file errors (SepenumError); 2 invalid
terminals: an unknown label (UnknownLabel), or equal or adjacent terminals
(TerminalsAdjacent; for list-minimal an adjacent pair prints the bottom
marker "BOTTOM"); 3 terminals already separated (AlreadySeparated).
"""

import argparse
import json
import sys
from itertools import islice
from typing import Iterable

from .errors import AlreadySeparated, SepenumError, TerminalsAdjacent, UnknownLabel
from .fpt import iter_small_minimal
from .graph import (
    Graph,
    Separator,
    Terminals,
    canonical,
    chordless_path_to_separator,
    is_minimal_separator,
    is_separator,
    parse_graph,
)
from .important import enumerate_important, is_important
from .mincut import kappa
from .oracle import brute_chordless_paths_through
from .ranked import iter_minimum_separators, iter_ranked_separators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_TERMINALS = 2
EXIT_SEPARATED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SepenumError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sepenum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, limit=False):
        p.add_argument("file", help="edge-list file, or - for stdin")
        p.add_argument("-s", dest="source", required=True, help="source label")
        p.add_argument("-t", dest="target", required=True, help="target label")
        if k:
            p.add_argument("-k", dest="bound", type=int, required=True,
                           help="separator size bound")
        if limit:
            p.add_argument("--limit", type=int, default=None,
                           help="stop after this many separators")
        p.add_argument("--json", action="store_true",
                       help="emit JSON lines instead of plain text")

    common(sub.add_parser("minsep", help="connectivity and one minimum separator"))
    common(sub.add_parser("list-minimal", help="all minimal separators of size <= k"),
           k=True, limit=True)
    common(sub.add_parser("ranked", help="separators in non-decreasing size"),
           limit=True)
    common(sub.add_parser("minimum-all", help="all minimum-cardinality separators"))
    common(sub.add_parser("important", help="important separators of size <= k"),
           k=True)
    check = sub.add_parser("check", help="classify a candidate vertex set")
    common(check)
    check.add_argument("--set", dest="members", required=True,
                       help="comma-separated vertex labels")
    witness = sub.add_parser(
        "witness", help="minimal separator through a vertex, via chordless paths")
    common(witness)
    witness.add_argument("-v", dest="vertex", required=True, help="vertex label")
    witness.add_argument("--max-n", type=int, default=20,
                         help="size guard for the exhaustive path search")
    return parser


def _read_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    return parse_graph(text)


def _emit(G: Graph, sep: Separator, as_json: bool) -> None:
    labels = sorted(G.labels[v] for v in sep)
    if as_json:
        print(json.dumps({"separator": labels, "size": len(sep)}), flush=True)
    else:
        print(",".join(labels), flush=True)


def _stream(G: Graph, seps: Iterable[Separator], limit, as_json: bool) -> int:
    # islice stops before pulling separator limit + 1 from a lazy stream
    for sep in islice(seps, limit):
        _emit(G, sep, as_json)
    return EXIT_OK


def _run(args) -> int:
    if getattr(args, "limit", None) is not None and args.limit < 0:
        raise SepenumError("--limit must be non-negative")
    G = _read_graph(args.file)
    s, t = G.vertex(args.source), G.vertex(args.target)
    term = Terminals(s, t)
    if G.has_edge(s, t):
        if args.command == "list-minimal":
            print("BOTTOM", flush=True)
        else:
            print("error: terminals are adjacent", file=sys.stderr)
        return EXIT_BAD_TERMINALS

    if args.command == "minsep":
        cut = kappa(G, term)
        if args.json:
            print(json.dumps({"kappa": cut.kappa}), flush=True)
        else:
            print(f"kappa {cut.kappa}", flush=True)
        _emit(G, cut.separator, args.json)
        return EXIT_OK

    if args.command == "list-minimal":
        return _stream(G, iter_small_minimal(G, term, args.bound),
                       args.limit, args.json)

    if args.command == "ranked":
        return _stream(G, iter_ranked_separators(G, term), args.limit, args.json)

    if args.command == "minimum-all":
        return _stream(G, iter_minimum_separators(G, term), None, args.json)

    if args.command == "important":
        return _stream(G, enumerate_important(G, term, args.bound),
                       None, args.json)

    if args.command == "check":
        members = canonical(G.vertex(lab) for lab in args.members.split(","))
        for v in term:
            if v in members:
                raise SepenumError(f"--set contains terminal {G.labels[v]!r}")
        separator = is_separator(G, term, members)
        minimal = separator and is_minimal_separator(G, term, members)
        important = minimal and is_important(G, term, members)
        try:
            minimum = separator and len(members) == kappa(G, term).kappa
        except AlreadySeparated:
            minimum = False  # only the empty set is minimum here
        report = {"separator": separator, "minimal": minimal,
                  "important": important, "minimum": minimum}
        if args.json:
            print(json.dumps(report), flush=True)
        else:
            for key, value in report.items():
                print(f"{key} {'true' if value else 'false'}", flush=True)
        return EXIT_OK

    assert args.command == "witness"
    v = G.vertex(args.vertex)
    if v in term:
        raise UnknownLabel("witness vertex must differ from the terminals")
    paths = brute_chordless_paths_through(G, term, v, max_n=args.max_n)
    if not paths:
        print(json.dumps({"separator": None}) if args.json else "none", flush=True)
        return EXIT_OK
    _emit(G, chordless_path_to_separator(G, term, paths[0], v), args.json)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except (UnknownLabel, TerminalsAdjacent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_TERMINALS
    except AlreadySeparated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEPARATED
    except (SepenumError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
