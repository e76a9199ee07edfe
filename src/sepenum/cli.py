"""Command-line interface over edge-list files.

Every subcommand reads a graph from a file (or '-' for standard input)
and reports separators as lines of comma-joined sorted labels, or as
JSON lines with --json.  Enumeration subcommands flush per line so the
delay between outputs is observable externally.

Exit codes, one per outcome: 0 success (including empty enumerations);
1 bad input: usage, parse or file errors (SepenumError); 2 invalid
terminals: an unknown label (UnknownLabel), or equal or adjacent terminals
(TerminalsAdjacent; for list-minimal an adjacent pair prints the bottom
marker "BOTTOM"); 3 terminals already separated (AlreadySeparated);
141 standard output closed early, say by `head` (BrokenPipeError), as
for a process killed by SIGPIPE.
"""

import argparse
import os
import sys
from collections.abc import Iterable
from itertools import islice

from .errors import AlreadySeparated, SepenumError, TerminalsAdjacent, UnknownLabel
from .fpt import iter_small_minimal
from .graph import (
    Graph,
    Separator,
    Terminals,
    _clique_neighbourhood,
    canonical,
    chordless_path_through,
    chordless_path_to_separator,
    is_minimal_separator,
    is_separator,
    parse_graph,
)
from .important import _iter_important, is_important
from .mincut import _terminal_flow, kappa
from .ranked import iter_minimum_separators, iter_ranked_separators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_TERMINALS = 2
EXIT_SEPARATED = 3
EXIT_PIPE_CLOSED = 141


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
                         help="size guard for the path search, exponential at worst")
    return parser


def _read_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    return parse_graph(text)


def _print(as_json: bool, record, text: str) -> None:
    if as_json:
        import json  # only --json runs load it

        text = json.dumps(record)
    print(text, flush=True)


def _emit(G: Graph, sep: Separator, as_json: bool) -> None:
    labels = sorted(G.labels[v] for v in sep)
    _print(as_json, {"separator": labels, "size": len(sep)}, ",".join(labels))


def _stream(G: Graph, seps: Iterable[Separator], limit, as_json: bool) -> int:
    # islice stops before pulling separator limit + 1 from a lazy stream
    for sep in islice(seps, limit):
        _emit(G, sep, as_json)
    return EXIT_OK


def _run(args) -> int:
    if getattr(args, "limit", None) is not None and args.limit < 0:
        raise SepenumError("--limit must be non-negative")
    G = _read_graph(args.file)
    term = Terminals(G.vertex(args.source), G.vertex(args.target))
    if G.has_edge(*term):
        if args.command == "list-minimal":
            print("BOTTOM", flush=True)
        else:
            print("error: terminals are adjacent", file=sys.stderr)
        return EXIT_BAD_TERMINALS

    if args.command == "minsep":
        cut = kappa(G, term)
        _print(args.json, {"kappa": cut.kappa}, f"kappa {cut.kappa}")
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
        return _stream(G, _iter_important(G, term, args.bound), None, args.json)

    if args.command == "check":
        members = canonical(G.vertex(lab) for lab in args.members.split(","))
        for v in term:
            if v in members:
                raise SepenumError(f"--set contains terminal {G.labels[v]!r}")
        separator = is_separator(G, term, members)
        minimal = separator and is_minimal_separator(G, term, members)
        important = minimal and is_important(G, term, members)
        # a size-κ separator is minimal; none is when the terminals are apart
        minimum = minimal and len(members) == _terminal_flow(G, term).value
        report = {"separator": separator, "minimal": minimal,
                  "important": important, "minimum": minimum}
        _print(args.json, report, "\n".join(
            f"{key} {'true' if value else 'false'}" for key, value in report.items()))
        return EXIT_OK

    assert args.command == "witness"
    v = G.vertex(args.vertex)
    if v in term:
        raise UnknownLabel("witness vertex must differ from the terminals")
    if G.n > args.max_n and not _clique_neighbourhood(G.adj, v):
        raise SepenumError(f"n={G.n} exceeds --max-n {args.max_n}")
    path = chordless_path_through(G, term, v)
    if path is None:
        _print(args.json, {"separator": None}, "none")
        return EXIT_OK
    _emit(G, chordless_path_to_separator(G, term, path, v), args.json)
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
    except BrokenPipeError:  # the reader has gone, say `head`
        return EXIT_PIPE_CLOSED
    except (SepenumError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    code = main()
    if code == EXIT_PIPE_CLOSED:
        # Only the process owns fd 1: point it at devnull, so that the
        # interpreter's final flush of stdout does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
