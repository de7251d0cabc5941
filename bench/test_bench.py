"""Self-tests for the benchmark's checker, tracer and contract.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    sys.path.insert(0, str(SRC))
    return workloads.load_package(SRC)


def cycle_graph(lib, n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return lib.graphs.Graph.from_edges(n, edges), checks.edge_set(edges)


def preserves(edges, gen):
    return all(frozenset(gen[v] for v in e) in edges for e in edges)


def one_task(out, check):
    p = workloads.Pass()
    p.task("t", lambda: out, check)
    return p


# -- each wrong output is exactly one failure -------------------------------

def test_swapped_certificate_is_one_failure(lib):
    X, edges = cycle_graph(lib, 8)
    res = lib.hamilton.find_hamilton_cycle(X)
    assert one_task(res, lambda r: checks.check_cycle_search(8, edges, r)) \
        .decided == 1
    seq = list(res.certificate.sequence)
    seq[1], seq[2] = seq[2], seq[1]
    bad = dataclasses.replace(
        res, certificate=dataclasses.replace(res.certificate,
                                             sequence=tuple(seq)))
    p = one_task(bad, lambda r: checks.check_cycle_search(8, edges, r))
    assert (p.attempted, p.failed, p.decided) == (1, 1, 0)


def test_wrong_verdict_is_one_failure(lib):
    X = lib.products.catalog("prism:7")
    rep = lib.pipeline.analyze(X, lib.products.catalog_gens("prism:7"))
    edges = checks.edge_set(X.edges())

    def check(r):
        return checks.check_analysis("prism:7", X.n, edges, r)

    assert one_task(rep, check).decided == 1
    wrong = dataclasses.replace(rep, result="no_hamilton_cycle",
                                certificate=None)
    p = one_task(wrong, check)
    assert (p.attempted, p.failed) == (1, 1)
    # a certificate claimed on a non-Hamiltonian graph fails as well
    fake = dataclasses.replace(rep, result="certificate")
    p = one_task(fake, lambda r: checks.check_analysis(
        "petersen", X.n, edges, r))
    assert p.failed == 1


def test_unknown_is_undecided_not_failed(lib):
    rep = SimpleNamespace(result="unknown")
    p = one_task(rep, lambda r: checks.check_analysis("coxeter", 28,
                                                       frozenset(), r))
    assert (p.attempted, p.failed, p.decided) == (1, 0, 0)


def test_wrong_count_is_one_failure(lib):
    F = lib.gf2k.field_make(6)
    m = lib.gf2k.quad_irreducible_m(F)
    T = checks.FieldTables(F.k, F.modulus, F.theta)
    N = lib.gf2k.count_eq2(F, m, 5)
    assert one_task((N, True), lambda o: checks.check_count(T, m, 5, o)) \
        .decided == 1
    p = one_task((N + 2, True), lambda o: checks.check_count(T, m, 5, o))
    assert (p.attempted, p.failed) == (1, 1)


def test_raising_task_is_one_failure():
    p = workloads.Pass()

    def boom():
        raise RuntimeError("boom")

    assert p.task("a", boom, lambda o: True) is None
    assert p.task("b", lambda: 3, lambda o: o == 3) == 3
    assert (p.attempted, p.failed, p.decided) == (2, 1, 1)


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.CASCADE_CATALOG
                         + ("coxeter", "truncated_coxeter"))
def test_relabelled_generators_preserve_relabelled_edges(lib, name):
    payload = workloads.relabelled_payload(lib, name, random.Random(7))
    edges = checks.edge_set(payload["graph"]["edges"])
    assert len(edges) == lib.products.catalog(name).edge_count()
    gens = payload["group"]["generators"]
    assert gens and all(preserves(edges, g) for g in gens)


def test_km_c3_rotation_is_an_automorphism():
    n = 3 * 9
    edges, rho = workloads.km_c3(9)
    sigma = random.Random(3).sample(range(n), n)
    new_edges, (new_rho,) = checks.relabel(n, edges, [rho], sigma)
    assert preserves(checks.edge_set(new_edges), new_rho)
    assert not preserves(checks.edge_set(new_edges), rho)


def test_setup_is_seeded(lib):
    for setup, _ in workloads.WORKLOADS.values():
        a, b = setup(lib, 5), setup(lib, 5)
        assert repr(a) == repr(b)
    assert workloads.field_setup(lib, 1) != workloads.field_setup(lib, 2)


# -- independent oracles ----------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_trace_formula_matches_brute_force_and_package(lib, k):
    F = lib.gf2k.field_make(k)
    m = lib.gf2k.quad_irreducible_m(F)
    T = checks.FieldTables(F.k, F.modulus, F.theta)
    checks.check_quad_m(T, m)

    def mul(x, y):
        return checks._mul_slow(x, y, F.modulus, k)

    tm = int(T.exp[m])
    for c in range(1, F.q):
        brute = sum(
            1 for a in range(F.q) for y in range(F.q)
            if (mul(a, a) ^ mul(mul(mul(c, tm), a), mul(mul(y, y), y))
                ^ mul(mul(c, c), mul(mul(y, y), mul(mul(y, y), mul(y, y))))
                ^ 1) == 0)
        assert checks.eq2_count(T, m, c) == brute
        assert lib.gf2k.count_eq2(F, m, c) == brute


def test_field_tables_reject_a_reducible_modulus():
    with pytest.raises(checks.CheckFailed):
        checks.FieldTables(4, 0b10101, 2)  # x^4 + x^2 + 1 = (x^2 + x + 1)^2


def test_group_checks_on_the_s6_action(lib):
    act = lib.fixtures.s6_on_s4_cosets()
    table = lib.orbital.suborbits(act.group, 0)
    G = [g.images for g in lib.fixtures.s6_gens()]
    H = [g.images for g in lib.fixtures.s4_in_s6_gens()]
    checks.check_coset_action(G, H, act, 720, 24)
    facts = checks.GroupFacts(30, [g.images for g in act.group.generators])
    to_table = checks.check_group(facts, 720, (1, 1, 4, 4, 4, 4, 12), 28,
                                  table)
    assert sorted(to_table.values()) == list(range(7))
    assert len(facts.pair_closed_selections()) == 31
    with pytest.raises(checks.CheckFailed):
        checks.check_group(facts, 720, (1, 1, 4, 4, 4, 4, 12), 27, table)


# -- tracer ------------------------------------------------------------------

def test_tracer_restores_and_tolerates_missing_names(lib):
    lift = ModuleType("hamvt.lift")
    lift.lift_hamilton = lib.lift.lift_hamilton  # no iter_hamilton_cycles
    partial = SimpleNamespace(**(vars(lib) | {"lift": lift}))
    before = lib.pipeline.analyze, lib.perms.Perm.__mul__
    tracer = tracing.Tracer()
    tracer.install(partial)
    try:
        X = lib.products.catalog("crown:7")  # solved by lifting, verified
        lib.pipeline.analyze(X, lib.products.catalog_gens("crown:7"))
    finally:
        tracer.uninstall()
    assert (lib.pipeline.analyze, lib.perms.Perm.__mul__) == before
    assert "hamvt.lift.iter_hamilton_cycles" in tracer.untraced
    values, untraced = tracing.layer_metrics(tracer)
    assert "lift.quotient_cycles" in untraced
    assert values["pipeline.analyze.time_s"] > 0
    assert values["perms.perm_mul.calls"] > 0
    assert values["hamilton.verify.calls"] >= 1


# -- contract ----------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in tracing.LAYER_METRICS] + list(tracing.TRACE_METRICS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
