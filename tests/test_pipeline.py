"""Strategy-cascade analysis reports."""

import random
import re
import sys
import tracemalloc

import pytest

from hamvt import (Graph, GroupDegreeMismatch, GroupNotAutomorphisms,
                   MalformedInput, Perm, PermGroup, analyze, catalog,
                   catalog_gens, coset_action, graph_from_json,
                   group_from_json, orbital_graph, suborbits,
                   truncate_cubic, verify_hamilton)
from hamvt import lift, perms, pipeline
from hamvt.fixtures import psl2_16_gens, psl2_16_h_gens
from hamvt.perms import SEMIREGULAR_WORDS
from hamvt.pipeline import _is_truncation_exception
from test_lift import complete_edges, derived, km_c3
from test_orbital import pair_closed_selections


class TestAnalyze:
    def test_disconnected(self):
        X = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                 (3, 4), (4, 5), (3, 5)])
        rep = analyze(X)
        assert rep.result == "no_hamilton_cycle"
        assert rep.reason == "disconnected"

    def test_circulant_30_lift_strategy(self):
        X = catalog("circulant:30:1,6")
        rep = analyze(X, catalog_gens("circulant:30:1,6"))
        assert rep.result == "certificate"
        assert verify_hamilton(X, rep.certificate)
        assert any(s["strategy"].startswith("lift") and
                   s["outcome"] == "found" for s in rep.strategy_trace)

    def test_truncated_petersen(self):
        X = catalog("truncated_petersen")
        rep = analyze(X, catalog_gens("truncated_petersen"))
        assert rep.result == "no_hamilton_cycle"
        assert rep.exception_flag
        assert rep.path_certificate is not None
        assert verify_hamilton(X, rep.path_certificate)
        assert rep.strategy_trace[-2:] == [
            {"strategy": "exact_search", "outcome": "none"},
            {"strategy": "path_search", "outcome": "found"}]

    def test_path_search_out_of_budget(self):
        # a 12-cycle with a pendant vertex has no Hamilton cycle (0 search
        # nodes) and a Hamilton path that takes more than 3 nodes to find
        X = Graph.from_edges(13, [(i, (i + 1) % 12) for i in range(12)]
                             + [(0, 12)])
        rep = analyze(X, budget=3)
        assert rep.result == "no_hamilton_cycle"
        assert rep.path_certificate is None
        assert rep.strategy_trace == [
            {"strategy": "exact_search", "outcome": "none"},
            {"strategy": "path_search", "outcome": "unknown"}]

    def test_exception_flag_only_for_the_truncation(self):
        assert not analyze(catalog("petersen"),
                           catalog_gens("petersen")).exception_flag

    def test_exception_flag_ignores_labelling(self):
        X = catalog("truncated_petersen")
        rng = random.Random(31)
        for _ in range(5):
            relabel = list(range(X.n))
            rng.shuffle(relabel)
            Y = Graph.from_edges(X.n, [(relabel[u], relabel[w])
                                       for u, w in X.edges()])
            assert _is_truncation_exception(Y)

    @pytest.mark.parametrize("X", [catalog("petersen"), catalog("prism:15"),
                                   truncate_cubic(catalog("prism:5"))])
    def test_exception_flag_false_on_lookalikes(self, X):
        assert not _is_truncation_exception(X)

    def test_degree_mismatch(self):
        with pytest.raises(GroupDegreeMismatch):
            analyze(catalog("petersen"), [Perm.identity(4)])

    def test_not_automorphisms(self):
        with pytest.raises(GroupNotAutomorphisms):
            analyze(catalog("petersen"),
                    [Perm((1, 0, 2, 3, 4, 5, 6, 7, 8, 9))])

    @pytest.mark.parametrize("X, gens, error", [
        (Graph.from_edges(4, [(0, 1), (2, 3)]), [Perm((1, 2, 3, 0))],
         GroupNotAutomorphisms),
        (Graph.from_edges(4, [(0, 1), (2, 3)]), [Perm.identity(5)],
         GroupDegreeMismatch),
        (Graph.from_edges(4, [(0, 1), (2, 3)]), PermGroup(5, []),
         GroupDegreeMismatch),
        (Graph.from_edges(2, [(0, 1)]), [Perm.identity(5)],
         GroupDegreeMismatch),
        (Graph.from_edges(2, [(0, 1)]), PermGroup(3, []),
         GroupDegreeMismatch),
        (Graph.from_edges(1, []), PermGroup(2, []), GroupDegreeMismatch),
    ], ids=["disconnected-not-automorphism", "disconnected-degree",
            "disconnected-degree-no-generators", "K_2-degree",
            "K_2-degree-no-generators", "K_1-degree-no-generators"])
    def test_group_checked_before_early_returns(self, X, gens, error):
        with pytest.raises(error):
            analyze(X, gens)

    def test_early_return_with_a_valid_group(self):
        X = Graph.from_edges(4, [(0, 1), (2, 3)])
        rep = analyze(X, [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))])
        assert rep.to_json() == analyze(X).to_json()
        assert rep.vertex_transitive is None

    def test_deterministic(self):
        X = catalog("crown:5")
        a = analyze(X, catalog_gens("crown:5")).to_json()
        b = analyze(X, catalog_gens("crown:5")).to_json()
        assert a == b

    def test_strategy_order_fixed(self):
        rep = analyze(catalog("petersen"), catalog_gens("petersen"))
        names = [s["strategy"] for s in rep.strategy_trace]
        lifts = [i for i, s in enumerate(names) if s.startswith("lift")]
        assert lifts and max(lifts) < names.index("exact_search")

    def test_vertex_transitive_recorded(self):
        rep = analyze(catalog("petersen"), catalog_gens("petersen"))
        assert rep.vertex_transitive is True
        rep = analyze(catalog("petersen"))
        assert rep.vertex_transitive is None

    def test_lift_budget_exhausted_then_exact_search(self):
        # one voltage-1 edge: not a coboundary, and the first 9! quotient
        # cycles in enumeration order avoid that edge, so none lifts
        X, rho = derived(12, 3, complete_edges(12), {(1, 3): 1})
        rep = analyze(X, [rho], budget=10**5)
        outcomes = {s["strategy"]: s["outcome"] for s in rep.strategy_trace}
        assert outcomes["lift_p3"] == "budget exhausted"
        assert outcomes["exact_search"] == "found"
        assert rep.result == "certificate"
        assert verify_hamilton(X, rep.certificate)

    def test_lift_decided_by_coboundary(self):
        X, rho = km_c3(10)
        rep = analyze(X, [rho])
        lifts = [s for s in rep.strategy_trace
                 if s["strategy"].startswith("lift")]
        # largest prime first; <rho> has order 3
        assert [s["strategy"] for s in lifts] == ["lift_p5", "lift_p3",
                                                 "lift_p2"]
        assert lifts[1]["outcome"] == "no lift (voltages are a coboundary)"
        assert rep.result == "certificate"
        assert verify_hamilton(X, rep.certificate)

    @pytest.mark.parametrize("name", ["petersen", "truncated_petersen",
                                      "prism:7", "crown:7", "km_c3",
                                      "budget"])
    def test_one_coboundary_test_per_lift(self, name, monkeypatch):
        # every outcome kind: found, no lift, coboundary, budget exhausted
        if name == "km_c3":
            X, rho = km_c3(10)
            args = (X, [rho])
        elif name == "budget":
            X, rho = derived(12, 3, complete_edges(12), {(1, 3): 1})
            args = (X, [rho], 10**5)
        else:
            args = (catalog(name), catalog_gens(name))
        orig = lift.voltages_are_coboundary
        calls = []

        def counted(dec):
            calls.append(dec.rho)
            return orig(dec)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("hamvt")
                    and getattr(mod, "voltages_are_coboundary", None)
                    is orig):
                monkeypatch.setattr(mod, "voltages_are_coboundary", counted)
        rep = analyze(*args)
        attempts = [s for s in rep.strategy_trace
                    if s["strategy"].startswith("lift")
                    and not s["outcome"].startswith("no semiregular")]
        assert attempts
        assert len(calls) == len(attempts)

    @pytest.mark.parametrize("name", ["crown:7", "km_c3", "PSL(2,16)/51"])
    def test_edge_check_once_per_generator(self, name, monkeypatch):
        # the lifts use words in the checked generators: no re-check
        if name == "km_c3":
            X, rho = km_c3(10)
            G = PermGroup(X.n, [rho])
        elif name == "crown:7":
            X = catalog(name)
            G = PermGroup(X.n, catalog_gens(name))
        else:
            G, graphs = psl2_16_orbital_graphs()
            X = graphs[0]
        orig = Graph.preserved_by
        calls = []

        def counted(self, images):
            calls.append(images)
            return orig(self, images)

        monkeypatch.setattr(Graph, "preserved_by", counted)
        rep = analyze(X, G)
        attempts = [s for s in rep.strategy_trace
                    if s["strategy"].startswith("lift")
                    and not s["outcome"].startswith("no semiregular")]
        assert attempts
        assert calls == [g.images for g in G.generators]

    def test_semiregular_absence_proved(self):
        rep = analyze(catalog("petersen"), catalog_gens("petersen"))
        outcomes = {s["strategy"]: s["outcome"] for s in rep.strategy_trace}
        assert outcomes["lift_p2"] == "no semiregular element (proved absent)"

    def test_semiregular_not_found_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(pipeline, "find_semiregular", lambda *a, **k: None)
        monkeypatch.setattr(perms, "SEMIREGULAR_EXHAUSTIVE_CAP", 1)
        rep = analyze(catalog("petersen"), catalog_gens("petersen"))
        outcomes = {s["strategy"]: s["outcome"] for s in rep.strategy_trace}
        assert outcomes["lift_p2"] == ("no semiregular element found in "
                                       f"{SEMIREGULAR_WORDS} random words")


class TestGroupObject:
    """``analyze`` takes a ``PermGroup`` and reuses its stabilizer chain."""

    def test_psl2_16_orbital_graphs_build_one_chain(self, monkeypatch):
        G = PermGroup(17, psl2_16_gens()[1])
        A = coset_action(G, psl2_16_h_gens()).group
        graphs = [og.graph for og in (
            orbital_graph(A, 0, sel)
            for sel in pair_closed_selections(suborbits(A, 0)))
            if og.connected]
        assert len(graphs) == 14
        builds = []

        class CountedChain(perms._Chain):
            def __init__(self, *args):
                builds.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(perms, "_Chain", CountedChain)
        reports = [analyze(X, A).to_json() for X in graphs]
        assert len(builds) <= 1
        monkeypatch.undo()
        assert reports == [analyze(X, A.generators).to_json()
                           for X in graphs]

    def test_group_checks_still_run(self):
        X = catalog("petersen")
        with pytest.raises(GroupDegreeMismatch):
            analyze(X, PermGroup(4, [Perm((1, 0, 2, 3))]))
        with pytest.raises(GroupDegreeMismatch):
            analyze(X, PermGroup(4, []))
        with pytest.raises(GroupNotAutomorphisms):
            analyze(X, PermGroup(10, [Perm((1, 0, 2, 3, 4, 5, 6, 7, 8, 9))]))
        rep = analyze(X, PermGroup(10, catalog_gens("petersen")))
        assert rep.to_json() == analyze(X, catalog_gens("petersen")).to_json()


def psl2_16_orbital_graphs():
    """PSL(2,16) on 51 cosets and its 14 connected orbital graphs."""
    G = PermGroup(17, psl2_16_gens()[1])
    A = coset_action(G, psl2_16_h_gens()).group
    graphs = [og.graph for og in (
        orbital_graph(A, 0, sel)
        for sel in pair_closed_selections(suborbits(A, 0)))
        if og.connected]
    assert len(graphs) == 14
    return A, graphs


class TestChainFreeSemiregular:
    """A semiregular element found among the transversal words needs no
    stabilizer chain."""

    def test_psl2_16_generators_build_no_chain(self, monkeypatch):
        A, graphs = psl2_16_orbital_graphs()
        builds = []

        class CountedChain(perms._Chain):
            def __init__(self, *args):
                builds.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(perms, "_Chain", CountedChain)
        traces = [analyze(X, A.generators).strategy_trace for X in graphs]
        assert 51 not in builds
        monkeypatch.undo()
        assert traces == [analyze(X, A).strategy_trace for X in graphs]


class TestLinearMemory:
    """The group layers store no permutation per point."""

    def test_long_cycle_analyze_peak(self):
        # measured: 10.7 MiB; a stored transversal alone would hold
        # 20,000 permutations of degree 20,000, about 3 GB
        name = "circulant:20000:1"
        X, gens = catalog(name), catalog_gens(name)
        tracemalloc.start()
        try:
            rep = analyze(X, gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.result == "certificate"
        assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MiB"


def relabelled(X: Graph, gens, seed: int):
    """X and its generators under one seeded relabelling v -> sigma[v]."""
    sigma = random.Random(seed).sample(range(X.n), X.n)
    Y = Graph.from_edges(X.n, [(sigma[u], sigma[w]) for u, w in X.edges()])
    conj = []
    for g in gens:
        images = [0] * X.n
        for v in range(X.n):
            images[sigma[v]] = sigma[g.images[v]]
        conj.append(Perm(tuple(images)))
    return Y, conj


class TestLabelling:
    """Strategy traces do not depend on how the vertices are labelled."""

    @pytest.mark.parametrize("name", ["prism:20", "truncated_petersen",
                                      "circulant:60:1,6"])
    def test_traces_ignore_relabelling(self, name):
        X, gens = catalog(name), catalog_gens(name)
        want = analyze(X, gens).strategy_trace
        for seed in range(1, 6):
            Y, conj = relabelled(X, gens, seed)
            assert analyze(Y, conj).strategy_trace == want, seed


REPORT_KEYS = {"n", "edge_count", "connected", "vertex_transitive",
               "strategy_trace", "result", "certificate", "path_certificate",
               "exception_flag", "reason"}


class TestReport:
    @pytest.mark.parametrize("X, gens", [
        (Graph.from_edges(4, [(0, 1), (2, 3)]), None),
        (Graph.from_edges(2, [(0, 1)]), None),
        (catalog("petersen"), catalog_gens("petersen")),
        (catalog("truncated_petersen"), catalog_gens("truncated_petersen")),
        (catalog("circulant:30:1,6"), catalog_gens("circulant:30:1,6")),
        (catalog("crown:5"), None),
        (km_c3(10)[0], [km_c3(10)[1]]),
    ], ids=["disconnected", "K_2", "petersen", "truncated_petersen",
            "circulant:30:1,6", "crown:5-no-group", "K_10xC_3"])
    def test_schema(self, X, gens):
        rep = analyze(X, gens).to_json()
        assert set(rep) == REPORT_KEYS
        for entry in rep["strategy_trace"]:
            assert set(entry) == {"strategy", "outcome"}
            assert re.fullmatch(
                r"structure|lift_p\d+|exact_search|path_search",
                entry["strategy"])

    @pytest.mark.parametrize("name", ["prism:7", "circulant:30:1,6"])
    def test_no_block_work(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze computed a block system")

        monkeypatch.setattr(perms, "minimal_block", refuse)
        X = catalog(name)
        rep = analyze(X, catalog_gens(name))
        assert rep.vertex_transitive is True
        assert rep.result == "certificate"
        assert verify_hamilton(X, rep.certificate)


class TestIngest:
    def test_graph_round_trip(self):
        X = catalog("petersen")
        assert graph_from_json(
            {"n": X.n, "edges": [list(e) for e in X.edges()]}) == X

    def test_bad_graph(self):
        with pytest.raises(MalformedInput):
            graph_from_json({"n": 2, "edges": [[0, 5]]})
        with pytest.raises(MalformedInput):
            graph_from_json({"edges": []})
        with pytest.raises(MalformedInput):
            graph_from_json({"n": 3, "edges": [[0, 1], [1, 0]]})

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="degree -2 is negative"):
            group_from_json({"degree": -2, "generators": []})
        with pytest.raises(ValueError, match="degree -1 is negative"):
            PermGroup(-1, [])

    @pytest.mark.parametrize("degree", [2.5, 3.0, True, False])
    def test_non_integer_degree(self, degree):
        with pytest.raises(TypeError):
            PermGroup(degree, [])

    def test_group_json(self):
        gens = group_from_json(
            {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}).generators
        assert len(gens) == 2 and gens[0].degree == 3
        assert group_from_json(
            {"degree": 3,
             "generators": ["(0 1 2)", [1, 0, 2]]}).generators == gens
        with pytest.raises(MalformedInput):
            group_from_json({"degree": 3, "generators": ["(0 3)"]})
        with pytest.raises(GroupDegreeMismatch):
            group_from_json({"degree": 4, "generators": [[1, 0, 2]]})
