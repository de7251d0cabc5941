"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict
lines; each test also enforces its runtime budget.
"""

import random
import time
from itertools import combinations, product as iproduct
from math import gcd

import pytest

from hamvt import (Perm, PermGroup, ProductModel, analyze, catalog,
                   catalog_gens, coset_action, count_eq2, cycle_voltage,
                   decompose, find_hamilton_cycle, find_hamilton_path,
                   find_semiregular, iter_hamilton_cycles, lifted_components,
                   minimal_block, orbital_graph, quad_irreducible_m,
                   quotient_graph, s_group, s_matrix_order, suborbits,
                   verify_hamilton, weil_check,
                   y1_cycle, y2_cycle)
from hamvt.fixtures import moebius_perm, psl2_16_gens, s6_on_s4_cosets
from hamvt.gf2k import field_make
from oracles import (jackson_condition, naive_hamilton_cycle,
                     naive_minimal_block)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_exceptional_truncation():
    t0 = time.perf_counter()
    X = catalog("truncated_petersen")
    rep = analyze(X, catalog_gens("truncated_petersen"))
    ok = (rep.result == "no_hamilton_cycle" and rep.exception_flag
          and rep.path_certificate is not None
          and verify_hamilton(X, rep.path_certificate))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(1, ok, f"truncated Petersen: proven no cycle, path found, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_02_petersen_and_coxeter():
    t0 = time.perf_counter()
    P = catalog("petersen")
    ok = (find_hamilton_cycle(P).status == "none"
          and find_hamilton_path(P).status == "found")
    t_petersen = time.perf_counter() - t0
    ok = ok and t_petersen < 1
    C = catalog("coxeter")
    rc = find_hamilton_cycle(C)
    rp = find_hamilton_path(C)
    ok = ok and rc.status == "none" and rp.status == "found" \
        and verify_hamilton(C, rp.certificate)
    report(2, ok, f"Petersen no-cycle/path in {t_petersen:.2f}s (< 1s); "
                  f"Coxeter no-cycle proven, path found")


def test_criterion_03_product_cycle_suite():
    t0 = time.perf_counter()
    checked = 0
    for t in range(3, 9):
        base = catalog(f"circulant:{t}:1")
        cyc = tuple(range(t))
        for p in (2, 3, 5, 7):
            m2 = ProductModel("Y2", base, p, cyc)
            assert verify_hamilton(m2.graph(), y2_cycle(m2))
            checked += 1
            if gcd(t, p) == 1:
                m1 = ProductModel("Y1", base, p, cyc)
                assert verify_hamilton(m1.graph(), y1_cycle(m1))
                checked += 1
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 5,
           f"{checked} product-model cycles validated, 0 failures, "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_04_lift_dichotomy_200():
    rng = random.Random(1729)
    instances = 0
    violations = 0
    # catalog instances first
    pool = [("prism:5", 5, 5), ("prism:7", 7, 7), ("crown:5", 5, 5),
            ("crown:7", 7, 7), ("circulant:15:1,4", 5, 3),
            ("circulant:21:1,8", 7, 3), ("circulant:14:1,4", 7, 2)]

    def shift(n, k):
        return Perm(tuple((i + k) % n for i in range(n)))

    def check(X, rho, p):
        nonlocal instances, violations
        dec = decompose(X, rho, p)
        Q = quotient_graph(dec)
        cycles = list(iter_hamilton_cycles(Q))
        if not cycles:
            return False
        cyc = rng.choice(cycles)
        k = len(cyc)
        opts = [sorted(dec.voltages(cyc[i], cyc[(i + 1) % k]))
                for i in range(k)]
        for choice in iproduct(*opts):
            net = cycle_voltage(dec, cyc, choice)
            comps = lifted_components(dec, cyc, choice)
            good = all(X.has_edge(a, b) for comp in comps
                       for a, b in zip(comp, comp[1:] + comp[:1]))
            covered = sorted(v for c in comps for v in c)
            good = good and covered == list(range(X.n))
            if net:
                good = good and len(comps) == 1 and len(comps[0]) == k * p
            else:
                good = good and len(comps) == p \
                    and all(len(c) == k for c in comps)
            if not good:
                violations += 1
            instances += 1
        return True

    for name, mcells, p in pool:
        X = catalog(name)
        G = PermGroup(X.n, catalog_gens(name))
        rho = find_semiregular(G, p)
        if rho is not None:
            check(X, rho, p)
    while instances < 200:
        p = rng.choice([2, 3, 5, 7])
        m = rng.choice([3, 4, 5, 6])
        n = m * p
        k = rng.randint(2, max(2, min(5, n // 2 - 1)))
        steps = sorted(set(rng.sample(range(1, n // 2 + 1), k)))
        X = catalog(f"circulant:{n}:{','.join(map(str, steps))}")
        if X.is_connected():
            check(X, shift(n, m), p)
    report(4, violations == 0,
           f"{instances} lifted quotient cycles, dichotomy violations: "
           f"{violations}")


def test_criterion_05_eq2_counts():
    t0 = time.perf_counter()
    F16 = field_make(4)
    bad = 0
    valid_m = [m for m in range(15)
               if all(F16.mul(x, x) ^ F16.mul(F16.theta_pow(m), x) ^ 1
                      for x in range(16))]
    assert valid_m
    for m in valid_m:
        for c in range(1, 16):
            n = count_eq2(F16, m, c)
            if n < 2 or not weil_check(n, 16, 6):
                bad += 1
    F256 = field_make(8)
    m256 = quad_irreducible_m(F256)
    for c in range(1, 256):
        n = count_eq2(F256, m256, c)
        if n < 2 or not weil_check(n, 256, 6):
            bad += 1
    elapsed = time.perf_counter() - t0
    report(5, bad == 0 and elapsed < 120,
           f"q=16 ({len(valid_m)} valid m x 15 c) and q=256 (255 c): all "
           f"counts >= 2 and within the degree-6 bound; {elapsed:.1f}s "
           f"(< 120s)")


def test_criterion_06_psl2_16_cross_check():
    F, (ell, t, u) = psl2_16_gens()
    K = PermGroup(17, [ell, t, u])
    act = coset_action(K, [u, t ** 3])
    ok = act.degree == 51
    tbl = suborbits(act.group, 0)
    ok = ok and tbl.lengths() == (1, 1, 1, 16, 16, 16)

    m = quad_irreducible_m(F)
    S = s_group(F, m)
    gen = next(s for s in S if s_matrix_order(F, m, s) == 17)
    sp = moebius_perm(F, ((gen.a, gen.b),
                          (gen.b, gen.a ^ F.mul(gen.b, F.theta_pow(m)))))
    cells = PermGroup(51, [act.push(sp)]).orbits()
    ok = ok and sorted(len(c) for c in cells) == [17, 17, 17]

    def cell_label(j):
        v = act.coset_index(t ** j)
        return next(i for i, c in enumerate(cells) if v in c)

    lab = {j: cell_label(j) for j in range(3)}
    ok = ok and len(set(lab.values())) == 3

    match_nz = match_free = match_cube = True
    for i in range(3):
        pt = act.coset_index(t ** i * ell)
        Y = orbital_graph(act.group, 0, [tbl.index_of(pt)]).graph
        for j in range(3):
            for k in range(3):
                Cb = set(cells[lab[k]])
                ds = {sum(1 for w in Y.adj[v] if w in Cb and w != v)
                      for v in cells[lab[j]]}
                assert len(ds) == 1  # biregular between cells
                d = ds.pop()
                ok = ok and d >= 2
                c = F.pow(F.theta, (-(i - j - k)) % 15)
                free = count_eq2(F, m, c)
                nz = free - 1  # y = 0 gives the one solution a = 1
                match_nz = match_nz and d == nz
                match_free = match_free and d == free
                # one matrix per cube class of y (y, wy, w^2y all give
                # the same s(a,b)), so the exact relation is 3d = nz
                match_cube = match_cube and 3 * d == nz
    conventions = (f"y!=0 raw match: {match_nz}; y-free raw match: "
                   f"{match_free}; y!=0 per cube class (count/3) match: "
                   f"{match_cube}")
    ok = ok and match_cube
    report(6, ok, f"degree 51, suborbits (1,1,1,16,16,16), three 17-cells; "
                  f"valencies vs curve counts -- {conventions}")


def test_criterion_07_s6_orbital_scan():
    t0 = time.perf_counter()
    act = s6_on_s4_cosets()
    A = act.group
    tbl = suborbits(A, 0)
    triv = tbl.trivial_index()
    classes = sorted({tuple(sorted({i, tbl.pairing[i]}))
                      for i in range(len(tbl.suborbits)) if i != triv})
    checked = failures = skipped = 0
    for r in range(1, len(classes) + 1):
        for combo in combinations(classes, r):
            sel = [i for cl in combo for i in cl]
            og = orbital_graph(A, 0, sel)
            if not og.connected:
                skipped += 1
                continue
            res = find_hamilton_cycle(og.graph)
            if res.status != "found" or \
                    not verify_hamilton(og.graph, res.certificate):
                failures += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    report(7, failures == 0 and elapsed < 600,
           f"degree-30 action: {checked} connected pair-closed selections "
           f"all Hamiltonian ({skipped} disconnected skipped), "
           f"{elapsed:.1f}s (< 600s)")


JACKSON_CORPUS = ["crown:3", "crown:5", "crown:7", "complete_bipartite:3:3",
                  "complete:4", "complete:5", "complete:6", "complete:7",
                  "complete:8", "complete:9", "complete:10", "complete:11",
                  "complete:12", "circulant:9:1,2,3,4", "prism:3"]


def test_criterion_08_jackson_consistency():
    verified = 0
    for name in JACKSON_CORPUS:
        X = catalog(name)
        if not jackson_condition(X):
            continue
        res = find_hamilton_cycle(X)
        assert res.status == "found" and \
            verify_hamilton(X, res.certificate), name
        verified += 1
    report(8, verified >= 10,
           f"{verified} corpus graphs meet the sufficient condition; "
           f"solver realized a verified cycle on every one")


SMALL_GRAPHS = ["petersen", "crown:3", "crown:4", "crown:5", "circulant:6:1",
                "circulant:7:1,2", "circulant:8:1,4", "circulant:9:3",
                "circulant:10:2,5", "prism:3", "prism:4", "prism:5",
                "complete:4", "complete:5", "complete_bipartite:3:3",
                "complete_bipartite:2:4", "complete_bipartite:4:4",
                "complete_bipartite:5:5"]

SMALL_TRANSITIVE = {
    "Z6": (6, [Perm((1, 2, 3, 4, 5, 0))]),
    "D5": (5, [Perm((1, 2, 3, 4, 0)), Perm((0, 4, 3, 2, 1))]),
    "Z8": (8, [Perm(tuple((i + 1) % 8 for i in range(8)))]),
    "Z10": (10, [Perm(tuple((i + 1) % 10 for i in range(10)))]),
    "D4": (4, [Perm((1, 2, 3, 0)), Perm((0, 3, 2, 1))]),
    "Z3xZ3": (9, [Perm((1, 2, 0, 4, 5, 3, 7, 8, 6)),
                  Perm((3, 4, 5, 6, 7, 8, 0, 1, 2))]),
}


def test_criterion_09_oracle_equivalence():
    mismatches = 0
    for name in SMALL_GRAPHS:
        X = catalog(name)
        if X.n > 10:
            continue
        if (find_hamilton_cycle(X).status == "found") != \
                naive_hamilton_cycle(X):
            mismatches += 1
    blocks_checked = 0
    for name, (n, gens) in SMALL_TRANSITIVE.items():
        G = PermGroup(n, gens)
        for b in range(1, n):
            if minimal_block(G, 0, b) != naive_minimal_block(n, gens, 0, b):
                mismatches += 1
            blocks_checked += 1
    report(9, mismatches == 0,
           f"solver verdicts match permutation enumeration on all n<=10 "
           f"corpus graphs; minimal blocks match the subset oracle on "
           f"{blocks_checked} (group, point) pairs")


def test_criterion_10_catalog_hamiltonicity():
    names = ["heawood", "non_incidence_pg22", "crown:3", "crown:5", "crown:7"]
    for name in names:
        X = catalog(name)
        res = find_hamilton_cycle(X)
        assert res.status == "found" and \
            verify_hamilton(X, res.certificate), name
    report(10, True, f"verified Hamilton cycles on: {', '.join(names)}")


def test_criterion_11_truncated_coxeter():
    t0 = time.perf_counter()
    X = catalog("truncated_coxeter")
    rep = analyze(X, catalog_gens("truncated_coxeter"))
    ok = (rep.result == "no_hamilton_cycle"
          and rep.path_certificate is not None
          and verify_hamilton(X, rep.path_certificate))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(11, ok, f"truncated Coxeter: proven no cycle, path found, "
                   f"{elapsed:.1f}s (< 60s)")
