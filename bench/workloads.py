"""The four benchmark workloads: seeded inputs and one checked pass each.

A workload is a pair of functions.  ``setup(lib, seed)`` builds the
inputs (graphs, generators, relabellings, JSON payloads, sampled field
values); its cost is ``setup_s``.  ``run(lib, inputs, p)`` drives one
pass through ``p.task``, which times the package calls and checks their
outputs outside the timed region.  Package functions are always looked
up on the module objects in ``lib`` at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import importlib
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
from checks import CheckFailed

#: Package modules the benchmark calls or traces; ``cli`` is not timed.
MODULES = ("perms", "graphs", "hamilton", "orbital", "lift", "products",
           "gf2k", "fixtures", "pipeline")


def load_package(src: Path) -> SimpleNamespace:
    """Import hamvt afresh from ``src`` and return its modules by name."""
    for name in [m for m in sys.modules
                 if m == "hamvt" or m.startswith("hamvt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hamvt")
    where = Path(pkg.__file__).resolve().parent
    if where != (src / "hamvt").resolve():
        raise ImportError(f"hamvt imported from {where}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"hamvt.{m}")
                              for m in MODULES})


class Pass:
    """One closed-loop pass: a single caller, one task at a time.

    ``wall`` sums the time spent inside task calls only.  A task that
    raises, or whose output fails its check, counts as one failure and
    returns None; callers skip the tasks that needed its output.
    """

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.decided = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def task(self, name: str, call, check):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call()
        except Exception as e:  # a task that raises is one failure
            self.wall += perf_counter() - t0
            self._fail(name, f"raised {type(e).__name__}: {e}", True)
            return None
        self.wall += perf_counter() - t0
        try:
            decided = check(out)
        except CheckFailed as e:
            self._fail(name, str(e))
            return None
        except Exception as e:  # malformed output the check cannot read
            self._fail(name, f"check raised {type(e).__name__}: {e}", True)
            return None
        self.decided += bool(decided)
        return out

    def _fail(self, name: str, msg: str, trace: bool = False) -> None:
        self.failures.append(f"{name}: {msg}")
        print(f"FAIL {name}: {msg}", file=sys.stderr)
        if trace:
            traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# shared inputs


def relabelled_payload(lib, name: str, rng: random.Random) -> dict:
    """A catalog graph and its generators under a seeded relabelling."""
    X = lib.products.catalog(name)
    gens = [g.images for g in lib.products.catalog_gens(name)]
    sigma = rng.sample(range(X.n), X.n)
    edges, gens = checks.relabel(X.n, X.edges(), gens, sigma)
    return {"name": name,
            "graph": {"n": X.n, "edges": edges},
            "group": {"degree": X.n, "generators": gens}}


def km_c3(m: int):
    """K_m x C_3 (vertex 3i + j is (i, j)) and the rotation of C_3."""
    edges = [(3 * i + j, 3 * h + j)
             for j in range(3) for i in range(m) for h in range(i + 1, m)]
    edges += [(3 * i + j, 3 * i + (j + 1) % 3)
              for i in range(m) for j in range(3)]
    rho = [3 * (v // 3) + (v % 3 + 1) % 3 for v in range(3 * m)]
    return edges, rho


def ingest_and_analyze(lib, p: Pass, payload: dict, budget=None) -> None:
    def call():
        X = lib.pipeline.graph_from_json(payload["graph"])
        gens = lib.pipeline.group_from_json(payload["group"])
        if budget is None:
            return lib.pipeline.analyze(X, gens)
        return lib.pipeline.analyze(X, gens, budget=budget)

    g = payload["graph"]
    p.task(f"analyze {payload['name']}", call,
           lambda rep: checks.check_analysis(
               payload["name"], g["n"], checks.edge_set(g["edges"]), rep))


def coset_census(lib, p: Pass, label: str, make, group_spec, analyze):
    """A coset action, its suborbits and every pair-closed orbital graph.

    ``group_spec`` is (G gens, H gens, |G|, |H|, suborbit lengths,
    connected orbital graphs); connected graphs go to ``analyze``.
    """
    G_gens, H_gens, order, h_order, lengths, connected = group_spec
    found = {}

    def check_group(out):
        act, table = out
        checks.check_coset_action(G_gens, H_gens, act, order, h_order)
        found["facts"] = checks.GroupFacts(
            act.degree, [g.images for g in act.group.generators])
        found["to_table"] = checks.check_group(found["facts"], order,
                                               lengths, connected, table)
        return True

    out = p.task(f"{label} group", make, check_group)
    if out is None:
        return
    A = out[0].group
    F, to_table = found["facts"], found["to_table"]
    for sel in F.pair_closed_selections():
        indices = sorted(to_table[i] for i in sel)
        og = p.task(f"{label} orbital {indices}",
                    lambda: lib.orbital.orbital_graph(A, 0, indices),
                    lambda og: checks.check_orbital(F, sel, og))
        if og is not None and og.connected:
            analyze(f"{label} {indices}", og.graph, A, F.orbital_edges(sel))


# ---------------------------------------------------------------------------
# cascade: group layers (block systems, semiregular search, lifting)

CASCADE_CATALOG = ("petersen", "truncated_petersen", "heawood", "crown:7",
                   "prism:7", "prism:20", "circulant:30:1,6",
                   "circulant:60:1,6")
KM_C3 = (9, 10)


def cascade_setup(lib, seed: int) -> dict:
    rng = random.Random(f"cascade:{seed}")
    payloads = [relabelled_payload(lib, name, rng)
                for name in CASCADE_CATALOG]
    products = []
    for m in KM_C3:
        edges, rho = km_c3(m)
        sigma = rng.sample(range(3 * m), 3 * m)
        edges, (rho,) = checks.relabel(3 * m, edges, [rho], sigma)
        products.append((m, lib.graphs.Graph.from_edges(3 * m, edges),
                         rho, edges))
    _, psl = lib.fixtures.psl2_16_gens()
    h = lib.fixtures.psl2_16_h_gens()
    return {"payloads": payloads, "products": products,
            "psl": ([g.images for g in psl], [g.images for g in h])}


def cascade_run(lib, inputs: dict, p: Pass) -> None:
    for payload in inputs["payloads"]:
        ingest_and_analyze(lib, p, payload)
    for m, X, rho, edges in inputs["products"]:
        name = f"K_{m} x C_3"
        p.task(f"analyze {name}",
               lambda: lib.pipeline.analyze(X, [rho]),
               lambda rep: checks.check_analysis(
                   name, 3 * m, checks.edge_set(edges), rep))

    G_gens, H_gens = inputs["psl"]

    def make():
        G = lib.perms.PermGroup(17, G_gens)
        act = lib.perms.coset_action(G, H_gens)
        return act, lib.orbital.suborbits(act.group, 0)

    def analyze(name, X, A, edges):
        p.task(f"analyze {name}",
               lambda: lib.pipeline.analyze(X, A.generators),
               lambda rep: checks.check_analysis(name, X.n, edges, rep))

    coset_census(lib, p, "PSL(2,16)/51", make,
                 (G_gens, H_gens, 4080, 80, (1, 1, 1, 16, 16, 16), 14),
                 analyze)


# ---------------------------------------------------------------------------
# search_found: exact search in find mode, no group layer


def search_found_setup(lib, seed: int) -> dict:
    # Not relabelled: the expensive selection belongs to this labelling.
    return {"s6": ([g.images for g in lib.fixtures.s6_gens()],
                   [g.images for g in lib.fixtures.s4_in_s6_gens()])}


def search_found_run(lib, inputs: dict, p: Pass) -> None:
    G_gens, H_gens = inputs["s6"]

    def make():
        act = lib.fixtures.s6_on_s4_cosets()
        return act, lib.orbital.suborbits(act.group, 0)

    def find(name, X, A, edges):
        p.task(f"find {name}",
               lambda: lib.hamilton.find_hamilton_cycle(X),
               lambda res: checks.check_cycle_search(X.n, edges, res))

    coset_census(lib, p, "S_6/30", make,
                 (G_gens, H_gens, 720, 24, (1, 1, 4, 4, 4, 4, 12), 28),
                 find)


# ---------------------------------------------------------------------------
# search_none: exhaustive proofs of non-Hamiltonicity plus path fallback

SEARCH_NONE = (("coxeter", None), ("truncated_coxeter", 10**6))
#: The relabelling is drawn once, at this seed, whatever --seed says.  The
#: path fallback on truncated_coxeter costs 467 to 119,471 nodes across
#: relabellings (0.01 to 3.2 s of a 13 to 16 s pass on a 2-vCPU x86_64 VM,
#: Python 3.11), which alone spreads wall_s by about 13% between seeds.
#: This draw costs 92,165 nodes.
SEARCH_NONE_SEED = 1


def search_none_setup(lib, seed: int) -> dict:
    rng = random.Random(f"search_none:{SEARCH_NONE_SEED}")
    return {"payloads": [(relabelled_payload(lib, name, rng), budget)
                         for name, budget in SEARCH_NONE]}


def search_none_run(lib, inputs: dict, p: Pass) -> None:
    for payload, budget in inputs["payloads"]:
        ingest_and_analyze(lib, p, payload, budget)


# ---------------------------------------------------------------------------
# field: GF(2^k) point counts

FIELD_K = (8, 10, 11)
#: Sampled values of c per degree; None means every nonzero c.
FIELD_SAMPLES = {8: None, 10: 128, 11: 16}
S_GROUP_K = 8


def field_setup(lib, seed: int) -> dict:
    rng = random.Random(f"field:{seed}")
    cs = {}
    for k in FIELD_K:
        q = 1 << k
        n = FIELD_SAMPLES[k]
        cs[k] = (list(range(1, q)) if n is None
                 else sorted(rng.sample(range(1, q), n)))
    return {"c": cs}


def field_run(lib, inputs: dict, p: Pass) -> None:
    gf = lib.gf2k
    for k in FIELD_K:
        tables = {}

        def check_field(F, k=k):
            checks.require(F.k == k and F.q == 1 << k,
                           f"field_make({k}) gave k={F.k}")
            tables["t"] = checks.FieldTables(F.k, F.modulus, F.theta)
            return True

        F = p.task(f"field_make({k})", lambda: gf.field_make(k), check_field)
        if F is None:
            continue
        T = tables["t"]
        m = p.task(f"quad_irreducible_m(k={k})",
                   lambda: gf.quad_irreducible_m(F),
                   lambda m: checks.check_quad_m(T, m))
        if m is None:
            continue
        if k == S_GROUP_K:
            p.task(f"s_group(k={k})", lambda: gf.s_group(F, m),
                   lambda mats: checks.check_s_group(T, m, mats))
        for c in inputs["c"][k]:
            p.task(f"count_eq2(k={k}, c={c})",
                   lambda: count_and_bound(gf, F, m, c),
                   lambda out: checks.check_count(T, m, c, out))


def count_and_bound(gf, F, m: int, c: int):
    N = gf.count_eq2(F, m, c)
    return N, gf.weil_check(N, F.q, 6)


WORKLOADS = {
    "cascade": (cascade_setup, cascade_run),
    "search_found": (search_found_setup, search_found_run),
    "search_none": (search_none_setup, search_none_run),
    "field": (field_setup, field_run),
}
