"""Voltage assignment, cycle voltages, and the lift dichotomy."""

import random
from collections import Counter

import pytest

from hamvt import (BudgetExhausted, Graph, InvalidChoice, NotAutomorphism,
                   NotSemiregular,
                   Perm, cycle_voltage, decompose, lift_hamilton,
                   lifted_components, quotient_graph, verify_hamilton,
                   voltages_are_coboundary)
from hamvt.products import catalog


def shift(n, k):
    return Perm(tuple((i + k) % n for i in range(n)))


class TestDecompose:
    def test_c15_shift3(self):
        C15 = catalog("circulant:15:1")
        dec = decompose(C15, shift(15, 3), 5)
        assert dec.m == 3
        assert all(len(c) == 5 for c in dec.cells)
        for i, c in enumerate(dec.cells):
            for j, v in enumerate(c):
                assert dec.position[v] == (i, j)
                assert dec.rho.images[v] == c[(j + 1) % 5]

    def test_not_semiregular(self):
        C6 = catalog("circulant:6:1")
        with pytest.raises(NotSemiregular):
            decompose(C6, shift(6, 1), 5)

    def test_not_automorphism(self):
        X = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(NotAutomorphism):
            decompose(X, Perm((1, 2, 3, 0)), 2)


class TestVoltages:
    def test_c15_voltages(self):
        C15 = catalog("circulant:15:1")
        dec = decompose(C15, shift(15, 3), 5)
        # reps 0, 1, 2: 0~1 and 1~2 directly; 2~0 via 3 = 0^(rho^1)
        assert dec.voltages(0, 1) == {0}
        assert dec.voltages(1, 2) == {0}
        assert dec.voltages(2, 0) == {1}

    def test_reversal_symmetry(self):
        rng = random.Random(11)
        for _ in range(20):
            n, p = 24, 3
            steps = sorted(rng.sample(range(1, n // 2 + 1), 3))
            X = catalog(f"circulant:{n}:{','.join(map(str, steps))}")
            dec = decompose(X, shift(n, n // p), p)
            pairs = ([(a, b) for a, b in dec.table if a < b]
                     + [(a, a) for a in range(dec.m)])
            for (a, b) in pairs:
                fwd = dec.voltages(a, b)
                back = dec.voltages(b, a)
                assert back == {(-j) % p for j in fwd}

    def test_voltage_count_matches_quotient_valency(self):
        from oracles import cell_valencies
        C15 = catalog("circulant:15:1,4")
        dec = decompose(C15, shift(15, 3), 5)
        valency = cell_valencies(C15, dec.cells)
        for (a, b), js in dec.table.items():
            assert len(js) == valency[a, b]

    @pytest.mark.parametrize("seed", range(4))
    def test_representative_rows_match_edge_loop(self, seed):
        # a random union of <rho>-orbits on pairs, so rho preserves X
        from oracles import edge_loop_voltages
        rng = random.Random(seed)
        for _ in range(40):
            p, m = rng.choice([2, 3, 5, 7]), rng.randint(1, 4)
            n = m * p
            sigma = rng.sample(range(n), n)  # cell a is sigma[a*p:(a+1)*p]
            rho = [0] * n
            for v in range(n):
                rho[sigma[v]] = sigma[p * (v // p) + (v % p + 1) % p]
            edges = set()
            for u in range(n):
                for w in range(u + 1, n):
                    if rng.random() < 0.3:
                        while (min(u, w), max(u, w)) not in edges:
                            edges.add((min(u, w), max(u, w)))
                            u, w = rho[u], rho[w]
            X = Graph.from_edges(n, sorted(edges))
            dec = decompose(X, Perm(tuple(rho)), p)
            assert dec.table == edge_loop_voltages(X, dec)

    def test_cascade_inputs_match_edge_loop(self):
        from hamvt import (PermGroup, coset_action, find_semiregular,
                           orbital_graph, suborbits)
        from hamvt.fixtures import psl2_16_gens, psl2_16_h_gens
        from hamvt.orbital import pair_closed_selections
        from hamvt.products import catalog_gens
        from oracles import edge_loop_voltages, edge_walk_coboundary
        names = ("petersen", "truncated_petersen", "heawood", "crown:7",
                 "prism:7", "prism:20", "circulant:30:1,6",
                 "circulant:60:1,6")
        inputs = [(catalog(name), PermGroup(catalog(name).n,
                                            catalog_gens(name)))
                  for name in names]
        for m in (9, 10):
            X, rho = km_c3(m)
            inputs.append((X, PermGroup(X.n, [rho])))
        A = coset_action(PermGroup(17, psl2_16_gens()[1]),
                         psl2_16_h_gens()).group
        inputs += [(orbital_graph(A, 0, sel).graph, A)
                   for sel in pair_closed_selections(suborbits(A, 0))]
        compared = 0
        for X, G in inputs:
            for p in (2, 3, 5, 7, 17):
                rho = find_semiregular(G, p)
                if rho is not None:
                    dec = decompose(X, rho, p)
                    assert dec.table == edge_loop_voltages(X, dec)
                    assert voltages_are_coboundary(dec) == \
                        edge_walk_coboundary(X, rho)
                    compared += 1
        assert compared >= len(inputs)


class TestCycleVoltage:
    def test_triangle_with_nonzero_net(self):
        C15 = catalog("circulant:15:1")
        dec = decompose(C15, shift(15, 3), 5)
        # edge 2 -> 0 realizes rep(2) ~ rep(0)^(rho^1)
        assert cycle_voltage(dec, (0, 1, 2), (0, 0, 1)) == 1

    def test_all_zero(self):
        PR = catalog("prism:3")
        dec = decompose(PR, Perm((3, 4, 5, 0, 1, 2)), 2)
        assert cycle_voltage(dec, (0, 1, 2), (0, 0, 0)) == 0

    def test_invalid_choice(self):
        C15 = catalog("circulant:15:1")
        dec = decompose(C15, shift(15, 3), 5)
        with pytest.raises(InvalidChoice):
            cycle_voltage(dec, (0, 1, 2), (3, 0, 4))


class TestDichotomy:
    def _check(self, X, rho, p):
        from itertools import product as iproduct
        from hamvt import iter_hamilton_cycles
        dec = decompose(X, rho, p)
        Q = quotient_graph(dec)
        checked = 0
        liftable = False
        for cyc in iter_hamilton_cycles(Q):
            k = len(cyc)
            opts = [sorted(dec.voltages(cyc[i], cyc[(i + 1) % k]))
                    for i in range(k)]
            for choice in iproduct(*opts):
                net = cycle_voltage(dec, cyc, choice)
                liftable = liftable or net % p != 0
                comps = lifted_components(dec, cyc, choice)
                if net % p:
                    assert len(comps) == 1 and len(comps[0]) == k * p
                else:
                    assert len(comps) == p
                    assert all(len(c) == k for c in comps)
                seen = [v for c in comps for v in c]
                assert len(seen) == len(set(seen)) == k * p
                for comp in comps:
                    for a, b in zip(comp, comp[1:] + comp[:1]):
                        assert X.has_edge(a, b)
                checked += 1
        # lift_hamilton tries two choices per cycle; that must be exact
        assert (lift_hamilton(X, rho, p) is not None) == liftable
        return checked

    def test_prism_and_small_circulants(self):
        assert self._check(catalog("prism:3"),
                           Perm((3, 4, 5, 0, 1, 2)), 2) > 0
        assert self._check(catalog("circulant:15:1,4"), shift(15, 3), 5) > 0

    def test_random_derived_graphs(self):
        # single voltages on small connected quotients, half of them a
        # coboundary by construction: the precheck must agree with the
        # full enumeration either way, and the table test must agree
        # with the walk over X's cross edges
        from oracles import edge_walk_coboundary
        rng = random.Random(4093)
        kinds = Counter()
        for _ in range(100):
            m = rng.randint(2, 7)
            p = rng.choice([2, 3, 5, 7])
            while True:
                edges = [(a, b) for a in range(m) for b in range(a + 1, m)
                         if rng.random() < 0.6]
                if Graph.from_edges(m, edges).is_connected():
                    break
            if rng.random() < 0.5:
                f = [rng.randrange(p) for _ in range(m)]
                volt = {(a, b): (f[b] - f[a]) % p for a, b in edges}
            else:
                volt = {e: rng.randrange(p) for e in edges}
            X, rho = derived(m, p, edges, volt)
            self._check(X, rho, p)
            coboundary = voltages_are_coboundary(decompose(X, rho, p))
            assert coboundary == edge_walk_coboundary(X, rho)
            kinds[coboundary, lift_hamilton(X, rho, p) is not None] += 1
        # proved by the precheck, enumerated in vain, and lifted
        assert kinds.keys() == {(True, False), (False, False), (False, True)}
        assert min(kinds.values()) >= 10

    def test_random_circulants(self):
        rng = random.Random(1729)
        done = 0
        while done < 30:
            p = rng.choice([2, 3, 5, 7])
            m = rng.choice([3, 4, 5])
            n = m * p
            k = rng.randint(2, max(2, n // 2 - 1))
            steps = sorted(set(rng.sample(range(1, n // 2 + 1), k)))
            X = catalog(f"circulant:{n}:{','.join(map(str, steps))}")
            if not X.is_connected():
                continue
            if self._check(X, shift(n, m), p):
                done += 1


class TestLiftHamilton:
    def test_c15(self):
        C15 = catalog("circulant:15:1")
        cert = lift_hamilton(C15, shift(15, 3), 5)
        assert cert is not None and verify_hamilton(C15, cert)

    def test_petersen_has_no_lift(self):
        from hamvt import PermGroup, find_semiregular
        from hamvt.products import catalog_gens
        P = catalog("petersen")
        rho = find_semiregular(PermGroup(10, catalog_gens("petersen")), 5)
        assert lift_hamilton(P, rho, 5) is None

    def test_m2_parallel_classes(self):
        C10 = catalog("circulant:10:1")
        cert = lift_hamilton(C10, shift(10, 2), 5)
        assert cert is not None and verify_hamilton(C10, cert)

    def test_m1_internal_edge(self):
        C5 = catalog("circulant:5:1")
        cert = lift_hamilton(C5, shift(5, 1), 5)
        assert cert is not None and verify_hamilton(C5, cert)

    def test_circulant_30(self):
        X = catalog("circulant:30:1,6")
        cert = lift_hamilton(X, shift(30, 6), 5)
        assert cert is not None and verify_hamilton(X, cert)

    def test_budget_bounds_the_quotient_enumeration(self):
        # voltage 1 on one edge of the bridgeless Coxeter graph is not a
        # coboundary, so the quotient's cycles are enumerated: it has none
        base = catalog("coxeter")
        edges = base.edges()
        X, rho = derived(base.n, 3, edges, {edges[0]: 1})
        assert lift_hamilton(X, rho, 3) is None
        with pytest.raises(BudgetExhausted):
            lift_hamilton(X, rho, 3, budget=1000)

    @pytest.mark.parametrize("m", range(8, 13))
    def test_coboundary_decides_without_enumeration(self, m):
        # every cross voltage of K_m x C_3 is 0; budget=1 admits no search
        X, rho = km_c3(m)
        assert voltages_are_coboundary(decompose(X, rho, 3))
        assert lift_hamilton(X, rho, 3, budget=1) is None
        sigma = random.Random(m).sample(range(X.n), X.n)
        Y = Graph.from_edges(X.n, [(sigma[u], sigma[w])
                                   for u, w in X.edges()])
        images = [0] * X.n
        for v in range(X.n):
            images[sigma[v]] = sigma[rho.images[v]]
        assert lift_hamilton(Y, Perm(tuple(images)), 3, budget=1) is None

    def test_one_nonzero_voltage_is_not_a_coboundary(self):
        X, rho = derived(12, 3, complete_edges(12), {(1, 3): 1})
        assert not voltages_are_coboundary(decompose(X, rho, 3))
        X1, rho1 = km_c3(1)  # one cell
        assert not voltages_are_coboundary(decompose(X1, rho1, 3))


def complete_edges(m):
    """Edges of the complete graph K_m."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def derived(m, p, edges, volt):
    """Z_p derived graph of a graph on m cells with one voltage per edge
    (volt[(a, b)] for a < b, default 0), plus a p-cycle in each cell.

    Vertex p*i + j is rep(i)^(rho^j), where rho rotates every cell, so
    voltage j on (a, b) joins rep(a) to rep(b)^(rho^j).
    """
    pairs = {(p * a + i, p * b + (i + volt.get((a, b), 0)) % p)
             for a, b in edges for i in range(p)}
    pairs |= {tuple(sorted((p * a + i, p * a + (i + 1) % p)))
              for a in range(m) for i in range(p)}
    rho = Perm(tuple(p * (v // p) + (v % p + 1) % p for v in range(p * m)))
    return Graph.from_edges(p * m, sorted(pairs)), rho


def km_c3(m):
    """K_m x C_3 (vertex 3i + j is (i, j)) and the rotation of C_3."""
    edges = [(3 * i + j, 3 * h + j)
             for j in range(3) for i in range(m) for h in range(i + 1, m)]
    edges += [(3 * i + j, 3 * i + (j + 1) % 3)
              for i in range(m) for j in range(3)]
    rho = Perm(tuple(3 * (v // 3) + (v % 3 + 1) % 3 for v in range(3 * m)))
    return Graph.from_edges(3 * m, edges), rho
