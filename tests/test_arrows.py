import functools
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from ramsey_workbench import arrows
from ramsey_workbench.arrows import (FAILS, HOLDS, UNKNOWN, ArrowInstance,
                                     ArrowStats, ArrowVerdict, Coloring,
                                     arrow_check, export_cnf, is_bad,
                                     lex_arrow_check, oracle_arrow_check,
                                     verify_bad_coloring)
from ramsey_workbench.catalogs import (complete_graph, empty_graph, graph,
                                       graph_catalog, linear_order, lo_catalog)
from ramsey_workbench.category import FiniteCategory, abstract_from_json
from ramsey_workbench.errors import BudgetExceeded

import oracles


@pytest.fixture(scope="module")
def lo6():
    return FiniteCategory.from_structures(lo_catalog(6))


def brute_status(cat, c, b, a, k, t):
    inst = ArrowInstance.build(cat, c, b, a)
    return oracles.brute_arrow_status(inst.domain, inst.copies, k, t)


class TestClassicalInstances:
    def test_lo6_forces_monochromatic_triple(self, lo6):
        verdict = arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1)
        assert verdict.status == HOLDS

    def test_lo5_admits_bad_coloring(self, lo6):
        verdict = arrow_check(lo6, "LO5", "LO3", "LO2", 2, 1)
        assert verdict.status == FAILS
        assert verify_bad_coloring(lo6, "LO5", "LO3", "LO2", 1,
                                   verdict.bad_coloring)

    def test_oracle_agrees_on_both(self, lo6):
        assert oracle_arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1).status == HOLDS
        assert oracle_arrow_check(lo6, "LO5", "LO3", "LO2", 2, 1).status == FAILS

    def test_one_color_always_holds(self, lo6):
        assert arrow_check(lo6, "LO4", "LO3", "LO2", 1, 1).status == HOLDS

    def test_t_at_least_k_holds(self, lo6):
        assert arrow_check(lo6, "LO4", "LO3", "LO2", 3, 3).status == HOLDS
        assert oracle_arrow_check(lo6, "LO4", "LO3", "LO2", 3, 3).status == HOLDS
        assert arrow_check(lo6, "LO3", "LO3", "LO3", 2, 2).status == HOLDS


class TestDegenerateInstances:
    def test_empty_hom_ab_flagged(self, lo6):
        verdict = arrow_check(lo6, "LO4", "LO1", "LO2", 2, 1)
        assert verdict.degenerate == "empty-hom-A-B"
        assert verdict.status == HOLDS

    def test_no_witness_object_fails(self, lo6):
        # hom(B, C) empty: the coloring of hom(A, C) has nobody to absorb it
        verdict = arrow_check(lo6, "LO2", "LO3", "LO2", 2, 1)
        assert verdict.status == FAILS
        assert verify_bad_coloring(lo6, "LO2", "LO3", "LO2", 1,
                                   verdict.bad_coloring)


class TestOracleEquivalence:
    def test_exhaustive_small_lo_slice(self, lo6):
        for c, b, a in [("LO3", "LO2", "LO1"), ("LO4", "LO3", "LO2"),
                        ("LO4", "LO2", "LO1"), ("LO5", "LO4", "LO3"),
                        ("LO5", "LO3", "LO2")]:
            for k in (1, 2, 3):
                for t in (1, 2):
                    fast = arrow_check(lo6, c, b, a, k, t).status
                    slow = oracle_arrow_check(lo6, c, b, a, k, t).status
                    assert fast == slow, (c, b, a, k, t)

    def test_symmetry_reduction_is_sound(self):
        cat = FiniteCategory.from_structures(graph_catalog(4))
        rng = random.Random(7)
        objs = cat.objects
        done = 0
        while done < 30:
            c = rng.choice(objs)
            b = rng.choice(objs)
            a = rng.choice(objs)
            k = rng.randint(1, 3)
            t = rng.randint(1, k)
            m = len(cat.hom(a, c))
            if m > 10 or k ** m > 60000:
                continue
            on = arrow_check(cat, c, b, a, k, t, symmetry=True).status
            off = arrow_check(cat, c, b, a, k, t, symmetry=False).status
            slow = oracle_arrow_check(cat, c, b, a, k, t).status
            assert on == off == slow, (c, b, a, k, t)
            done += 1


def _pairs_category(positions: int, copies) -> FiniteCategory:
    """A category whose arrow C -> (B)^A has hom(A, C) = x0..x<positions-1>
    and, for the n-th pair (i, j) of `copies`, a witness w<n> whose copy is
    {x<i>, x<j>}: hom(A, B) is f0, f1 and w<n> . f0 = x<i>, w<n> . f1 = x<j>.
    The loader adds the composites with identities."""
    objects = ["A", "B", "C"]
    homs = {"A->A": ["idA"], "B->B": ["idB"], "C->C": ["idC"],
            "A->B": ["f0", "f1"],
            "B->C": [f"w{n}" for n in range(len(copies))],
            "A->C": [f"x{i}" for i in range(positions)]}
    compose = {f"w{n}∘f{j}": f"x{pair[j]}"
               for n, pair in enumerate(copies) for j in (0, 1)}
    return abstract_from_json({"objects": objects, "homs": homs,
                               "identities": {o: f"id{o}" for o in objects},
                               "compose": compose})


class TestBitSlicedOracle:
    """`oracle_arrow_check` returns the verdict of the coloring-by-coloring
    scan it replaced (`oracles.scan_arrow_check`): status, bad coloring,
    stats and degenerate flag."""

    @pytest.mark.parametrize("catalog", [
        lo_catalog(6), [complete_graph(n) for n in range(1, 5)],
        graph_catalog(3)], ids=["lo6", "k1-k4", "graphs3"])
    def test_whole_verdict_matches_the_scan(self, catalog):
        cat = FiniteCategory.from_structures(catalog)
        checked = 0
        for c, b, a in itertools.product(cat.objects, repeat=3):
            m = len(cat.hom(a, c))
            for k in (1, 2, 3):
                if k ** m > 70_000:
                    continue
                for t in (1, 2, 3):
                    assert (oracle_arrow_check(cat, c, b, a, k, t)
                            == oracles.scan_arrow_check(cat, c, b, a, k, t)), (
                        c, b, a, k, t)
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize("c,b,a,k,t,status,scanned,degenerate", [
        # hom(B, C) is empty: the first coloring is bad
        ("LO3", "LO4", "LO2", 2, 1, FAILS, 1, None),
        # hom(A, B) is empty: every copy is empty and sees no color
        ("LO4", "LO1", "LO2", 2, 1, HOLDS, 2 ** 6, "empty-hom-A-B"),
        # hom(A, C) is empty: one coloring, of nothing
        ("LO2", "LO2", "LO3", 2, 1, HOLDS, 1, "empty-hom-A-B"),
        ("LO2", "LO4", "LO3", 2, 1, FAILS, 1, None),
        # one color: every copy sees at most one
        ("LO5", "LO3", "LO2", 1, 1, HOLDS, 1, None),
        # t >= k: no copy can see more than t colors
        ("LO4", "LO3", "LO2", 2, 2, HOLDS, 2 ** 6, None),
        ("LO4", "LO3", "LO2", 2, 3, HOLDS, 2 ** 6, None),
        ("LO4", "LO3", "LO2", 3, 3, HOLDS, 3 ** 6, None),
    ], ids=["empty-hom-B-C", "empty-hom-A-B", "empty-domain-holds",
            "empty-domain-fails", "one-color", "t-equals-k", "t-above-k",
            "t-equals-k-3"])
    def test_edge_cases(self, lo6, c, b, a, k, t, status, scanned, degenerate):
        verdict = oracle_arrow_check(lo6, c, b, a, k, t)
        assert verdict == oracles.scan_arrow_check(lo6, c, b, a, k, t)
        assert (verdict.status, verdict.stats.colorings_scanned,
                verdict.degenerate) == (status, scanned, degenerate)
        if status == FAILS:
            assert verdict.bad_coloring.values == (0,) * len(
                lo6.hom(a, c))

    @pytest.mark.parametrize("block", [1, 2, 8, 81])
    def test_small_blocks_give_the_same_verdicts(self, monkeypatch, block):
        """Blocks of 1 to 81 colorings split the space at every place, and
        no block holds more than `ORACLE_BLOCK` colorings."""
        monkeypatch.setattr(arrows, "ORACLE_BLOCK", block)
        sizes = []
        masks = arrows._digit_masks
        monkeypatch.setattr(arrows, "_digit_masks", lambda k, places: (
            sizes.append(k ** places) or masks(k, places)))
        cat = FiniteCategory.from_structures(lo_catalog(5))
        for c, b, a in itertools.product(cat.objects, repeat=3):
            for k in (2, 3):
                if k ** len(cat.hom(a, c)) > 3_000:
                    continue
                for t in (1, 2):
                    assert (oracle_arrow_check(cat, c, b, a, k, t)
                            == oracles.scan_arrow_check(cat, c, b, a, k, t)), (
                        c, b, a, k, t, block)
        assert max(sizes) == block

    def test_first_bad_coloring_past_the_first_block(self):
        """18 positions: x0 and x1 differ, and x1 differs from every later
        position, so the first bad coloring is 0, 1, 0, ..., 0 at rank 2^16,
        the first coloring of the second block."""
        assert arrows.ORACLE_BLOCK == 2 ** 16
        copies = [(0, 1)] + [(1, i) for i in range(2, 18)]
        cat = _pairs_category(18, copies)
        verdict = oracle_arrow_check(cat, "C", "B", "A", 2, 1)
        assert verdict.status == FAILS
        assert verdict.stats == ArrowStats(colorings_scanned=2 ** 16 + 1)
        color = dict(zip(verdict.bad_coloring.domain,
                         verdict.bad_coloring.values))
        assert color == {f"x{i}": int(i == 1) for i in range(18)}
        # no 2-coloring splits all three pairs of a triangle, so none of
        # the four blocks holds a bad coloring
        holds = oracle_arrow_check(
            _pairs_category(18, [(0, 1), (0, 2), (1, 2)]), "C", "B", "A", 2, 1)
        assert holds == ArrowVerdict(HOLDS, None,
                                     ArrowStats(colorings_scanned=2 ** 18))

    @pytest.mark.parametrize("j,rank", [(10, 32), (9, 64), (5, 1024),
                                        (4, 2048), (1, 2 ** 14)])
    def test_first_bad_coloring_in_each_run_of_the_first_block(self, j, rank):
        """16 positions make one block of 2^16 colorings.  With the one copy
        {x0, xj}, the first bad coloring sets xj alone, at rank 2^(15-j),
        from low in the block to a quarter of the way in."""
        cat = _pairs_category(16, [(0, j)])
        verdict = oracle_arrow_check(cat, "C", "B", "A", 2, 1)
        assert verdict == oracles.scan_arrow_check(cat, "C", "B", "A", 2, 1)
        assert verdict.stats.colorings_scanned == rank + 1

    def test_k5_instances_named_in_the_docs(self):
        """K5 -> (K4)^K2_{2,1} fails at rank 35; K5 -> (K3)^K2_{2,2}
        scans all 2^20 colorings."""
        cat = FiniteCategory.from_structures(
            [complete_graph(n) for n in range(1, 6)])
        fails = oracle_arrow_check(cat, "K5", "K4", "K2", 2, 1)
        assert fails == oracles.scan_arrow_check(cat, "K5", "K4", "K2", 2, 1)
        assert fails.stats.colorings_scanned == 36
        holds = oracle_arrow_check(cat, "K5", "K3", "K2", 2, 2)
        assert (holds.status, holds.stats.colorings_scanned) == (HOLDS, 2 ** 20)


class TestMonotonicity:
    def test_in_t(self, lo6):
        # HOLDS at t stays HOLDS at larger t
        for t in (1, 2, 3):
            if arrow_check(lo6, "LO6", "LO3", "LO2", 2, t).status == HOLDS:
                for t2 in range(t, 4):
                    assert arrow_check(lo6, "LO6", "LO3", "LO2", 2, t2).status == HOLDS

    def test_in_k(self, lo6):
        assert arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1).status == HOLDS
        assert arrow_check(lo6, "LO6", "LO3", "LO2", 1, 1).status == HOLDS

    def test_upward_closure_in_c(self, lo6):
        # HOLDS for LO6 and LO6 -> C' in the catalog forces HOLDS for C'
        assert arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1).status == HOLDS
        for c2 in lo6.objects:
            if lo6.hom("LO6", c2):
                assert arrow_check(lo6, c2, "LO3", "LO2", 2, 1).status == HOLDS


class TestBudgets:
    def test_node_budget_gives_unknown(self, lo6):
        verdict = arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1, node_budget=10)
        assert verdict.status == UNKNOWN

    def test_oracle_budget_raises(self, lo6, monkeypatch):
        monkeypatch.setattr(arrows, "ORACLE_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            oracle_arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1)


LO8_ARGS = ("LO8", "LO4", "LO2", 3, 2)   # FAILS after 4,504 nodes


class TestDeadline:
    """The search reads the clock once before the instance is built and then
    every CLOCK_EVERY nodes, only with a deadline."""

    @pytest.fixture(scope="class")
    def lo8(self):
        return FiniteCategory.from_structures(
            [linear_order(n) for n in (2, 4, 8)])

    def test_passed_deadline_stops_at_the_first_clock_reading(
            self, lo8, deadline_passes_once_started):
        full = arrow_check(lo8, *LO8_ARGS)
        assert full.status == FAILS
        assert full.stats.nodes > arrows.CLOCK_EVERY
        verdict = arrow_check(lo8, *LO8_ARGS, deadline=time.monotonic())
        assert (verdict.status, verdict.note) == (UNKNOWN, arrows.TIME_OUT)
        assert verdict.bad_coloring is None
        assert verdict.stats.nodes == arrows.CLOCK_EVERY + 1

    def test_deadline_passed_at_the_start_reads_no_hom_set(self):
        cat = FiniteCategory.from_structures(
            [linear_order(n) for n in (2, 3, 6)])
        verdict = arrow_check(cat, "LO6", "LO3", "LO2", 2, 1,
                              deadline=time.monotonic())
        assert verdict == ArrowVerdict(UNKNOWN, None, ArrowStats(),
                                       note=arrows.TIME_OUT)
        assert not cat._homs     # no hom-set was enumerated

    def test_far_deadline_changes_nothing(self, lo8):
        far = time.monotonic() + 3600
        assert arrow_check(lo8, *LO8_ARGS, deadline=far) == arrow_check(
            lo8, *LO8_ARGS)

    @pytest.mark.parametrize("node_budget,nodes,note", [
        (100, 101, arrows.NODE_OUT),
        (2000, arrows.CLOCK_EVERY + 1, arrows.TIME_OUT)])
    def test_the_budget_that_runs_out_first_is_named(
            self, lo8, deadline_passes_once_started, node_budget, nodes, note):
        verdict = arrow_check(lo8, *LO8_ARGS, node_budget=node_budget,
                              deadline=time.monotonic())
        assert (verdict.status, verdict.note, verdict.stats.nodes) == (
            UNKNOWN, note, nodes)

    def test_deadline_passed_during_the_build_stops_before_the_search(
            self, monkeypatch):
        # the deadline holds at the first reading and has passed once the
        # instance and Aut(K5) are built; the search alone would end with
        # FAILS in 45 nodes, before its first clock reading
        cat = FiniteCategory.from_structures(
            [complete_graph(n) for n in (2, 3, 5)])
        readings = itertools.chain([0.0], itertools.repeat(2.0))
        monkeypatch.setattr(arrows, "time",
                            SimpleNamespace(monotonic=readings.__next__))
        verdict = arrow_check(cat, "K5", "K3", "K2", 3, 2, deadline=1.0)
        assert (verdict.status, verdict.note) == (UNKNOWN, arrows.TIME_OUT)
        assert verdict.stats == ArrowStats()
        assert cat._homs[("K5", "K5")]      # Aut(K5) was built

    def test_no_deadline_never_reads_the_clock(self, lo8, monkeypatch):
        def clock():
            raise AssertionError("the clock was read without a deadline")
        monkeypatch.setattr(arrows, "time", SimpleNamespace(monotonic=clock))
        assert arrow_check(lo8, *LO8_ARGS).status == FAILS
        assert arrow_check(lo8, *LO8_ARGS, node_budget=2000).note == arrows.NODE_OUT


class TestCnfExport:
    def parse(self, text):
        clauses = []
        nvars = nclauses = None
        for line in text.splitlines():
            if line.startswith("c"):
                continue
            if line.startswith("p cnf"):
                _, _, v, c = line.split()
                nvars, nclauses = int(v), int(c)
                continue
            lits = [int(x) for x in line.split()]
            assert lits[-1] == 0
            clauses.append(lits[:-1])
        assert len(clauses) == nclauses
        return nvars, clauses

    def sat_by_enumeration(self, nvars, clauses, k, m):
        # assignments restricted to well-formed coloring encodings
        for values in itertools.product(range(k), repeat=m):
            assign = set()
            for i, v in enumerate(values):
                assign.add(i * k + v + 1)
            if all(any((lit > 0 and lit in assign)
                       or (lit < 0 and -lit not in assign)
                       for lit in clause) for clause in clauses):
                return True
        return False

    def test_lo5_instance_is_sat(self, lo6):
        text = export_cnf(lo6, "LO5", "LO3", "LO2", 2, 1)
        nvars, clauses = self.parse(text)
        m = len(lo6.hom("LO2", "LO5"))
        assert nvars == 2 * m
        assert self.sat_by_enumeration(nvars, clauses, 2, m)

    def test_lo4_small_instance_matches_verdicts(self, lo6):
        # SAT exactly when the arrow fails
        for c, k, t in [("LO3", 2, 1), ("LO4", 2, 1), ("LO4", 2, 2)]:
            text = export_cnf(lo6, c, "LO3", "LO2", k, t)
            nvars, clauses = self.parse(text)
            m = len(lo6.hom("LO2", c))
            sat = self.sat_by_enumeration(nvars, clauses, k, m)
            verdict = arrow_check(lo6, c, "LO3", "LO2", k, t)
            assert sat == (verdict.status == FAILS)

    @staticmethod
    @functools.cache
    def truth(nvars) -> list[int]:
        """truth[v]: the assignments x < 2^nvars with bit v of x set."""
        count = 1 << nvars
        return [int("".join("1" if x >> v & 1 else "0"
                            for x in reversed(range(count))), 2)
                for v in range(nvars)]

    def models(self, nvars, clauses) -> int:
        """Every model of the formula over all 2^nvars assignments, as a
        bitset: bit x is set when assignment x, which makes variable v true
        exactly when bit v - 1 of x is set, satisfies every clause."""
        true = self.truth(nvars)
        every = (1 << (1 << nvars)) - 1
        models = every
        for clause in clauses:
            sat = 0
            for lit in clause:
                sat |= true[lit - 1] if lit > 0 else every ^ true[-lit - 1]
            models &= sat
        return models

    @pytest.mark.parametrize("catalog", [
        lo_catalog(4), [complete_graph(n) for n in range(1, 5)],
        graph_catalog(3)], ids=["lo4", "k1-k4", "graphs3"])
    def test_models_are_the_bad_colorings_of_the_oracle(self, catalog):
        """A second oracle: the formula has a model exactly when
        `oracle_arrow_check` finds a bad coloring, and that coloring is one."""
        cat = FiniteCategory.from_structures(catalog)
        checked = 0
        for c, b, a in itertools.product(cat.objects, repeat=3):
            m = len(cat.hom(a, c))
            for k in (1, 2, 3):
                if k * m > 16:
                    continue
                for t in (1, 2, 3):
                    nvars, clauses = self.parse(export_cnf(cat, c, b, a, k, t))
                    assert nvars == k * m
                    models = self.models(nvars, clauses)
                    verdict = oracle_arrow_check(cat, c, b, a, k, t)
                    assert (models == 0) == (verdict.status == HOLDS), (
                        c, b, a, k, t)
                    if verdict.status == FAILS:
                        x = sum(1 << i * k + col for i, col
                                in enumerate(verdict.bad_coloring.values))
                        assert models >> x & 1, (c, b, a, k, t)
                    checked += 1
        assert checked > 100

    def test_k1_unsat_by_construction(self, lo6):
        text = export_cnf(lo6, "LO4", "LO3", "LO2", 1, 1)
        nvars, clauses = self.parse(text)
        assert [] in clauses  # empty clause: no bad coloring can exist

    def test_header_format(self, lo6):
        text = export_cnf(lo6, "LO4", "LO3", "LO2", 2, 1)
        assert any(line.startswith("p cnf ") for line in text.splitlines())
        assert text == export_cnf(lo6, "LO4", "LO3", "LO2", 2, 1)


class TestCertificates:
    def test_bad_coloring_replays_against_every_witness(self, lo6):
        verdict = arrow_check(lo6, "LO5", "LO3", "LO2", 2, 1)
        inst = ArrowInstance.build(lo6, "LO5", "LO3", "LO2")
        for copy in inst.copies:
            assert len({verdict.bad_coloring.values[i] for i in copy}) > 1

    def test_tampered_certificate_rejected(self, lo6):
        verdict = arrow_check(lo6, "LO5", "LO3", "LO2", 2, 1)
        vals = list(verdict.bad_coloring.values)
        vals[0] = 1 - vals[0]
        while is_bad(ArrowInstance.build(lo6, "LO5", "LO3", "LO2"),
                     tuple(vals), 1):
            vals[1] = 1 - vals[1]
            break
        tampered = Coloring(verdict.bad_coloring.domain, 2,
                            tuple(0 for _ in vals))
        assert not verify_bad_coloring(lo6, "LO5", "LO3", "LO2", 1, tampered)


# -- the forward-checking search against the lex DFS and the oracle ----------

CHAINS = lo_catalog(6)
GRAPHS = graph_catalog(4)
ORACLE_SCANS = 2 ** 20


@st.composite
def arrow_questions(draw):
    """C, B and A from the chains up to LO6 or the graphs on at most 4
    vertices, with A embedding in B and B in C, 2 <= k <= 3 and t < k, as a
    catalog of just those objects."""
    pool = draw(st.sampled_from([CHAINS, GRAPHS]))

    def below(top):
        return [s for s in pool if oracles.brute_embeddings(s, top)]

    c = draw(st.sampled_from(pool))
    b = draw(st.sampled_from(below(c)))
    a = draw(st.sampled_from(below(b)))
    catalog = [s for s in pool if s in (a, b, c)]
    k = draw(st.integers(2, 3))
    t = draw(st.integers(1, k - 1))
    return catalog, c.name, b.name, a.name, k, t


class TestSearchDifferential:
    @given(arrow_questions())
    def test_search_matches_lex_dfs_and_oracle(self, question):
        catalog, c, b, a, k, t = question
        cat = FiniteCategory.from_structures(catalog)
        inst = ArrowInstance.build(cat, c, b, a)
        verdicts = [arrow_check(cat, c, b, a, k, t, symmetry=symmetry)
                    for symmetry in (True, False)]
        verdicts.append(lex_arrow_check(cat, c, b, a, k, t))
        statuses = {v.status for v in verdicts}
        if k ** len(inst.domain) <= ORACLE_SCANS:
            statuses.add(oracle_arrow_check(cat, c, b, a, k, t).status)
        assert len(statuses) == 1, (c, b, a, k, t, statuses)
        for v in verdicts:
            if v.status == FAILS:
                assert is_bad(inst, v.bad_coloring.values, t)
        again = arrow_check(cat, c, b, a, k, t)
        assert again.stats == verdicts[0].stats
        assert again.bad_coloring == verdicts[0].bad_coloring

    def test_benchmark_questions_agree_with_lex_dfs(self):
        cat = FiniteCategory.from_structures(lo_catalog(8))
        for c, b, a, k, t, expected in [("LO8", "LO3", "LO2", 2, 1, HOLDS),
                                        ("LO8", "LO3", "LO2", 3, 1, FAILS),
                                        ("LO7", "LO4", "LO3", 2, 1, FAILS),
                                        ("LO5", "LO3", "LO2", 3, 2, HOLDS)]:
            fast = arrow_check(cat, c, b, a, k, t)
            slow = lex_arrow_check(cat, c, b, a, k, t)
            assert fast.status == slow.status == expected, (c, b, a, k, t)
            assert fast.stats.nodes < slow.stats.nodes


class TestGroundTruth:
    def test_lo14_three_colors_avoid_monochromatic_triples(self):
        # R(3,3,3) = 17, so three colors of the pairs of a 14-chain can
        # leave every one of its C(14,3) = 364 triples two-colored
        cat = FiniteCategory.from_structures(
            [linear_order(n) for n in (2, 3, 14)])
        verdict = arrow_check(cat, "LO14", "LO3", "LO2", 3, 1)
        assert verdict.status == FAILS
        color = {cat.embedding(mid).map: v for mid, v in
                 zip(verdict.bad_coloring.domain, verdict.bad_coloring.values)}
        assert set(color) == set(itertools.combinations(range(14), 2))
        triples = list(itertools.combinations(range(14), 3))
        assert len(triples) == 364
        for triple in triples:
            assert len({color[p] for p in itertools.combinations(triple, 2)}) > 1

    def test_lo6_needs_tens_of_nodes(self, lo6):
        verdict = arrow_check(lo6, "LO6", "LO3", "LO2", 2, 1)
        assert verdict.status == HOLDS
        assert 10 < verdict.stats.nodes < 100

    def test_deep_instance_runs_without_recursion(self):
        # 1,100 positions in disjoint pairs, each pair a witness copy: the
        # only bad 2-colorings split every pair, found at depth 1,100
        pairs = 550
        cat = _pairs_category(2 * pairs,
                              [(2 * i, 2 * i + 1) for i in range(pairs)])
        verdict = arrow_check(cat, "C", "B", "A", 2, 1)
        assert verdict.status == FAILS
        values = verdict.bad_coloring.values
        assert all(values[2 * i] != values[2 * i + 1] for i in range(pairs))


def _order_pattern(image) -> int:
    """The index of an injection's order pattern among the permutations."""
    ranks = tuple(sorted(image).index(v) for v in image)
    return list(itertools.permutations(range(len(image)))).index(ranks)


@pytest.fixture(scope="module")
def sets6_category():
    """Finite sets E1..E6, with injections as morphisms."""
    return FiniteCategory.from_structures([empty_graph(n) for n in range(1, 7)])


class TestFiniteSets:
    """Sets with injections as morphisms.  An injection of E_m into E_n is
    an m-tuple of distinct points; colouring it by its order pattern leaves
    every copy of E_b with all m! patterns, so no copy sees fewer colours."""

    def _pattern_coloring(self, cat, c, a, m):
        maps = [cat.embedding(mid).map for mid in cat.hom(a, c)]
        n = cat.structure(c).size
        assert sorted(maps) == sorted(itertools.permutations(range(n), m))
        return Coloring(tuple(cat.hom(a, c)), math.factorial(m),
                        tuple(_order_pattern(x) for x in maps))

    @pytest.mark.parametrize("c,b,a,k,t", [
        ("E5", "E3", "E2", 2, 1), ("E6", "E3", "E2", 2, 1),
        ("E5", "E3", "E3", 6, 5)])
    def test_order_patterns_refute(self, sets6_category, c, b, a, k, t):
        cat = sets6_category
        coloring = self._pattern_coloring(cat, c, a, cat.structure(a).size)
        assert coloring.k == k
        assert verify_bad_coloring(cat, c, b, a, t, coloring)
        verdict = arrow_check(cat, c, b, a, k, t)
        assert verdict.status == FAILS
        assert is_bad(ArrowInstance.build(cat, c, b, a),
                      verdict.bad_coloring.values, t)


class TestSymmetryPath:
    @pytest.mark.parametrize("catalog, sources", [
        # Aut(K5) = S5 acting on maps from every complete graph
        ([complete_graph(n) for n in range(1, 6)], None),
        # vertex colorings of every graph on at most 4 vertices
        (GRAPHS, ["G1_0"]),
    ], ids=["complete-graphs", "points-of-graphs"])
    def test_cuts_keep_verdicts(self, catalog, sources):
        cat = FiniteCategory.from_structures(catalog)
        cut = 0
        for c, b, a in itertools.product(cat.objects, repeat=3):
            if (sources is not None and a not in sources
                    or not (cat.hom(a, b) and cat.hom(b, c))):
                continue
            for k in (2, 3):
                for t in range(1, k):
                    on = arrow_check(cat, c, b, a, k, t)
                    off = arrow_check(cat, c, b, a, k, t, symmetry=False)
                    lex = lex_arrow_check(cat, c, b, a, k, t)
                    assert on.status == off.status == lex.status, (c, b, a, k, t)
                    if k ** len(cat.hom(a, c)) <= ORACLE_SCANS:
                        assert (oracle_arrow_check(cat, c, b, a, k, t).status
                                == on.status), (c, b, a, k, t)
                    cut += on.stats.symmetry_prunes > 0
        assert cut > 0

    def test_k5_prunes_by_symmetry_with_the_same_verdict(self):
        cat = FiniteCategory.from_structures(
            [complete_graph(n) for n in range(1, 6)])
        on = arrow_check(cat, "K5", "K3", "K2", 3, 2, symmetry=True)
        off = arrow_check(cat, "K5", "K3", "K2", 3, 2, symmetry=False)
        assert on.stats.symmetry_prunes > 0
        assert off.stats.symmetry_prunes == 0
        assert on.status == off.status == FAILS
        inst = ArrowInstance.build(cat, "K5", "K3", "K2")
        assert is_bad(inst, on.bad_coloring.values, 2)

    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("b, a, status", [
        ("K3", "K2", FAILS), ("K4", "K2", FAILS), ("K3", "K1", HOLDS)])
    def test_k6_known_answers(self, symmetry, b, a, status):
        """K6 -> (K3)^K2_{2,1} and (K4)^K2_{2,1} fail: color each edge
        embedding by the order of its endpoints, so every copy of K3 or K4
        sees both colors.  K6 -> (K3)^K1_{2,1} holds by pigeonhole: two
        colors on six vertices give three alike."""
        cat = FiniteCategory.from_structures(
            [complete_graph(n) for n in (1, 2, 3, 4, 6)])
        verdict = arrow_check(cat, "K6", b, a, 2, 1, symmetry=symmetry)
        assert verdict.status == status
        assert lex_arrow_check(cat, "K6", b, a, 2, 1).status == status
        if status == FAILS:
            inst = ArrowInstance.build(cat, "K6", b, a)
            assert is_bad(inst, verdict.bad_coloring.values, 1)
            maps = [cat.embedding(mid).map for mid in inst.domain]
            assert is_bad(inst, [int(x < y) for x, y in maps], 1)


def _walk_cases():
    """(category, C, A) for the lex-leader walks: Aut(K5) on hom(K2, K5);
    the table Z3 acting on itself; and an edge with two isolated vertices,
    whose swap of the isolated vertices acts trivially on hom(K2, C)."""
    edge_and_points = graph(4, [(0, 1)], name="E2+2")
    return {
        "k5": (FiniteCategory.from_structures(
            [complete_graph(2), complete_graph(5)]), "K5", "K2"),
        "z3-table": (abstract_from_json(oracles.Z3), "G", "G"),
        "trivial-action": (FiniteCategory.from_structures(
            [complete_graph(2), edge_and_points]), "E2+2", "K2"),
    }


WALK_CASES = _walk_cases()


class TestTiedSetLexLeader:
    """The tied-set test of the search against the full scan it replaced."""

    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    @given(data=st.data())
    def test_every_step_of_a_walk_agrees_with_the_full_scan(self, case, data):
        cat, c, a = WALK_CASES[case]
        domain = cat.hom(a, c)
        perms = oracles.domain_permutations(cat, a, c)
        values = [-1] * len(domain)
        # (position colored at the node, the node's tied set); a cut child
        # is never entered, as in the search
        path = [(None, arrows._lex_root(cat, c, len(domain)))]
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            free = [q for q in range(len(domain)) if values[q] < 0]
            if free and (len(path) == 1 or data.draw(st.integers(0, 3)) > 0):
                p = data.draw(st.sampled_from(free), label="position")
                values[p] = data.draw(st.integers(0, 2), label="color")
                child = arrows._lex_step(cat, domain, path[-1][1], p, values)
                assert (child is None) == oracles.dominated(perms, values), values
                if child is None:
                    values[p] = -1
                else:
                    path.append((p, child))
            else:
                p, _ = path.pop()
                values[p] = -1

    def test_trivially_acting_elements_stay_in_the_tied_set(self):
        cat, c, a = WALK_CASES["trivial-action"]
        domain = cat.hom(a, c)
        assert oracles.domain_permutations(cat, a, c) == [(1, 0)]
        tied = arrows._lex_root(cat, c, len(domain))
        assert len(tied) == len(cat.automorphism_ids(c)) - 1 == 3
        values = [0, -1]
        tied = arrows._lex_step(cat, domain, tied, 0, values)
        assert len(tied) == 3
        # every element ties on the whole domain: all leave, and none cuts
        values[1] = 1
        assert arrows._lex_step(cat, domain, tied, 1, values) == []
        assert not oracles.dominated([(1, 0)], values)
