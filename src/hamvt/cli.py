"""Command-line interface: analyze, orbital, field, catalog, solve, verify.

Exit codes: 0 = certificate found / success, 1 = proven no cycle (or
invalid certificate for ``verify``), 2 = unknown (budget exhausted),
3 = input error (usage errors included), 4 = internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from .gf2k import (DegreeOutOfRange, count_eq2, field_make,
                   quad_irreducible_m, weil_check)
from .graphs import Graph
from .hamilton import (DEFAULT_BUDGET, HamiltonCertificate,
                       find_hamilton_cycle, find_hamilton_path,
                       verify_hamilton)
from .orbital import orbital_graph, suborbits
from .perms import SEMIREGULAR_SEED
from .pipeline import (GroupDegreeMismatch, GroupNotAutomorphisms,
                       MalformedInput, analyze, graph_from_json,
                       group_from_json)
from .products import BadParams, UnknownName, _build, catalog

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:  # a missing file, a directory, no permission
        raise MalformedInput(f"cannot read {path}: {e.strerror or e}")


def _load_graph(args) -> Graph:
    if getattr(args, "catalog", None):
        return catalog(args.catalog)
    if getattr(args, "graph", None):
        return graph_from_json(_load_json(args.graph))
    raise MalformedInput("provide --graph or --catalog")


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True)
    if path := getattr(args, "json_out", None):
        try:
            with open(path, "w") as f:
                f.write(text + "\n")
        except OSError as e:  # a directory, a missing parent, no permission
            raise MalformedInput(f"cannot write {path}: {e.strerror or e}")
    print(text)


def _cmd_analyze(args) -> int:
    if args.catalog and not args.group:
        X, group = _build(args.catalog)  # graph and generators in one build
    else:
        X = _load_graph(args)
        group = group_from_json(_load_json(args.group)) if args.group else None
    report = analyze(X, group, budget=args.budget, seed=args.seed)
    _emit(args, report.to_json())
    if report.result == "certificate":
        return EXIT_FOUND
    if report.result == "no_hamilton_cycle":
        return EXIT_NONE
    return EXIT_UNKNOWN


def _cmd_orbital(args) -> int:
    G = group_from_json(_load_json(args.group))
    suborbits(G, args.point)  # memoized: a bad point before a bad index
    sel = [int(x) for x in args.selection.split(",") if x != ""]
    result = orbital_graph(G, args.point, sel)
    table, X = result.table, result.graph
    payload = {
        "suborbits": [list(s) for s in table.suborbits],
        "pairing": list(table.pairing),
        "selection": list(result.selection),
        "symmetrized": result.symmetrized,
        "connected": result.connected,
        "graph": {"n": X.n, "edges": [list(e) for e in X.edges()]},
    }
    _emit(args, payload)
    return EXIT_FOUND


def _cmd_field(args) -> int:
    F = field_make(args.k)
    m = args.m if args.m is not None else quad_irreducible_m(F)
    exp, log = F.tables()
    # a count depends only on the cube class of c (see count_eq2)
    by_class = [count_eq2(F, m, exp[i]) for i in range(gcd(3, F.q - 1))]
    rows = []
    for c in range(1, F.q):
        cnt = by_class[log[c] % len(by_class)]
        rows.append({"c": c, "count": cnt,
                     "weil_d6": weil_check(cnt, F.q, 6)})
    payload = {"k": args.k, "q": F.q, "m": m, "modulus": F.modulus,
               "min_count": min(by_class), "rows": rows}
    _emit(args, payload)
    return EXIT_FOUND


def _cmd_catalog(args) -> int:
    X = catalog(args.name)
    payload = {"n": X.n, "edges": [list(e) for e in X.edges()]}
    _emit(args, payload)
    return EXIT_FOUND


def _cmd_solve(args) -> int:
    X = _load_graph(args)
    solver = find_hamilton_path if args.path else find_hamilton_cycle
    res = solver(X, args.budget)
    payload = {"status": res.status, "nodes": res.nodes,
               "certificate": (res.certificate.to_json()
                               if res.certificate else None)}
    _emit(args, payload)
    return {"found": EXIT_FOUND, "none": EXIT_NONE,
            "unknown": EXIT_UNKNOWN}[res.status]


def _cmd_verify(args) -> int:
    X = _load_graph(args)
    cert = HamiltonCertificate.from_json(_load_json(args.certificate))
    ok = verify_hamilton(X, cert)
    _emit(args, {"valid": ok})
    return EXIT_FOUND if ok else EXIT_NONE


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {budget}")
    return budget


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="path to graph JSON")
    p.add_argument("--catalog", help="catalog graph name")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamvt",
        description="Hamilton cycle certification for vertex-transitive "
                    "graphs")
    ap.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                    help="search-node budget for the exact solver and "
                         "for each lift's quotient-cycle enumeration")
    ap.add_argument("--seed", type=int, default=SEMIREGULAR_SEED,
                    help="seed for the semiregular element search")
    ap.add_argument("--json-out", help="also write the JSON result here")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full strategy-cascade analysis")
    _add_graph_source(p)
    p.add_argument("--group", help="path to group JSON (automorphisms)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("orbital", help="suborbits and orbital graph")
    p.add_argument("--group", required=True)
    p.add_argument("--point", type=int, default=0)
    p.add_argument("--selection", required=True,
                   help="comma-separated suborbit indices")
    p.set_defaults(func=_cmd_orbital)

    p = sub.add_parser("field", help="per-c solution counts over GF(2^k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("catalog", help="emit a named catalog graph")
    p.add_argument("name")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("solve", help="exact Hamilton cycle/path search")
    _add_graph_source(p)
    p.add_argument("--path", action="store_true",
                   help="search for a Hamilton path instead of a cycle")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    _add_graph_source(p)
    p.add_argument("--certificate", required=True)
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_FOUND if e.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (MalformedInput, GroupDegreeMismatch, GroupNotAutomorphisms,
            UnknownName, BadParams, DegreeOutOfRange, FileNotFoundError,
            json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # a crash must not read as a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
