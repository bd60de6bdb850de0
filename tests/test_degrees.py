from collections import Counter

import pytest

from ramsey_workbench import degrees
from ramsey_workbench.arrows import Coloring, arrow_check, verify_bad_coloring
from ramsey_workbench.catalogs import (complete_graph, empty_graph,
                                       graph_catalog, lo_catalog, path_graph)
from ramsey_workbench.category import FiniteCategory
from ramsey_workbench.degrees import degree_interval

import oracles
from oracles import find_isomorphic


def p3_name(cat):
    return find_isomorphic(list(cat.structures.values()), path_graph(3)).name


class TestDegreeUpper:
    def test_lo2_is_one_at_two_colors(self, lo7_category):
        cat = lo7_category
        bs = ["LO1", "LO2", "LO3"]
        interval = degree_interval(cat, "LO2", 2, bs=bs)
        assert interval.upper == 1 and not interval.unknowns
        assert interval.witnesses["LO3", 2] == "LO6"

    def test_lo2_needs_two_at_three_colors(self, lo7_category):
        # with three colors the one-color arrow for triples needs a chain of
        # length 17, far beyond this catalog, so the least feasible bound is
        # two, witnessed by the five-chain
        interval = degree_interval(lo7_category, "LO2", 3,
                                   bs=["LO1", "LO2", "LO3"])
        assert interval.upper == 2
        assert interval.witnesses["LO3", 3] == "LO5"

    def test_upper_certificates_replay(self, lo7_category):
        interval = degree_interval(lo7_category, "LO2", 2,
                                   bs=["LO1", "LO2", "LO3"])
        assert len(interval.witnesses) == 4
        for (b, k), c in interval.witnesses.items():
            verdict = arrow_check(lo7_category, c, b, "LO2", k, interval.upper)
            assert verdict.status == "HOLDS"

    def test_single_morphism_object(self):
        cat = FiniteCategory.from_structures(lo_catalog(1))
        assert degree_interval(cat, "LO1", 3).upper == 1


class TestDegreeLower:
    def test_p3_has_degree_at_least_two(self, graphs5_category):
        cat = graphs5_category
        interval = degree_interval(cat, p3_name(cat), 2)
        assert interval.lower == 2 and interval.lower_bk == (p3_name(cat), 2)
        assert all(interval.verdicts[c, p3_name(cat), 2, 1].status == "FAILS"
                   for c in cat.objects)

    def test_p3_lower_certificates_replay(self, graphs5_category):
        cat = graphs5_category
        interval = degree_interval(cat, p3_name(cat), 2)
        b, k = interval.lower_bk
        for c in cat.objects:
            coloring = interval.verdicts[c, b, k, 1].bad_coloring
            assert verify_bad_coloring(cat, c, b, p3_name(cat), 1, coloring)

    def test_orientation_coloring_is_a_valid_certificate(self, graphs5_category):
        # color each copy of the path by the order of its endpoints; the two
        # orientations of any image path get different colors
        cat = graphs5_category
        p3 = p3_name(cat)
        struct = cat.structures[p3]
        ends = [v for v in range(3)
                if sum(1 for t in struct.rel("edge") if t[0] == v) == 1]
        for c in cat.objects:
            dom = cat.hom(p3, c)
            values = tuple(
                1 if cat.embedding(e).map[ends[0]] < cat.embedding(e).map[ends[1]]
                else 0
                for e in dom)
            coloring = Coloring(tuple(dom), 2, values)
            assert verify_bad_coloring(cat, c, p3, p3, 1, coloring)

    def test_lo2_lower_on_seven_chain_succeeds_at_two(self, lo7_category):
        # catalog-relative: the four-chain target has no one-color witness
        # below the eighteen-chain, so the bound 2 is certified here
        interval = degree_interval(lo7_category, "LO2", 2)
        assert interval.lower == 2 and interval.lower_bk == ("LO4", 2)

    def test_lower_absent_when_witnesses_exist(self):
        cat = FiniteCategory.from_structures(lo_catalog(6))
        interval = degree_interval(cat, "LO2", 2, bs=["LO2", "LO3"])
        assert interval.lower == 1 and interval.lower_bk is None

    def test_interval_consistency(self, lo7_category):
        interval = degree_interval(lo7_category, "LO2", 2,
                                   bs=["LO1", "LO2", "LO3"])
        assert interval.lower <= (interval.upper or interval.lower)

    def test_sets_pair_degree_is_two(self):
        # colouring each injection of E2 by the order of its two points
        # leaves every copy of any E_b with both colours, so t = 1 fails at
        # every C; k <= 2 colours make t = 2 hold with C = B
        cat = FiniteCategory.from_structures(
            [empty_graph(n) for n in range(1, 6)])
        interval = degree_interval(cat, "E2", 2)
        assert (interval.lower, interval.upper) == (2, 2)


class TestVerdictMemo:
    @staticmethod
    def _counted(monkeypatch):
        calls = Counter()

        def counted(cat, c, b, a, k, t, **budgets):
            calls[c, b, a, k, t] += 1
            return arrow_check(cat, c, b, a, k, t, **budgets)

        monkeypatch.setattr(degrees, "arrow_check", counted)
        return calls

    def test_no_instance_is_searched_twice(self, monkeypatch):
        # both ends ask LO_c -> (LO3)^LO2_{k,1}; without the memo 63 searches
        calls = self._counted(monkeypatch)
        cat = FiniteCategory.from_structures(lo_catalog(8))
        interval = degree_interval(cat, "LO2", 3, bs=["LO1", "LO2", "LO3"])
        assert (interval.lower, interval.upper) == (2, 2)
        assert len(calls) == sum(calls.values()) == 40

    def test_searches_the_deadline_stopped_are_asked_again(self, monkeypatch):
        # the upper scan's first search stops and ends it; the lower scan
        # asks the same instance again and is stopped too
        calls = self._counted(monkeypatch)
        cat = FiniteCategory.from_structures(lo_catalog(4))
        interval = degree_interval(cat, "LO2", 1, bs=["LO3"], deadline=0.0)
        assert interval.unknowns == ["LO1:LO3:1:1"]
        assert (interval.lower, interval.upper) == (1, None)
        assert not interval.verdicts
        assert calls == {("LO1", "LO3", "LO2", 1, 1): 2}


class TestMaxMin:
    """The max-min argument (ROADMAP.md, "Degrees from thresholds"): with
    C, B, A and k fixed the arrow holds exactly for t >= t*(C, B, k).  The
    upper end, the least n such that every (B, k) has a C with t* <= n, and
    the lower end, the largest n such that some (B, k) has t* >= n at every
    C, are both the max over (B, k) of the min over C of t*.  So every
    decided interval is a point, at the max-min of the oracle's table of
    statuses."""

    @pytest.mark.parametrize("build,objects,k_max,bs", [
        (lambda: lo_catalog(7), ["LO2"], 2, ["LO1", "LO2", "LO3"]),
        (lambda: lo_catalog(7), ["LO2"], 3, ["LO1", "LO2", "LO3"]),
        (lambda: graph_catalog(4), None, 2, None),
        (lambda: [empty_graph(n) for n in range(1, 6)], ["E2"], 2, None),
        (lambda: [complete_graph(n) for n in range(1, 6)], ["K2"], 2, None),
    ], ids=["lo7-k2", "lo7-k3", "graphs4", "E1-E5", "K1-K5"])
    def test_decided_interval_is_the_max_min_point(self, build, objects,
                                                   k_max, bs):
        cat = FiniteCategory.from_structures(build())
        for a in objects or cat.objects:
            interval = degree_interval(cat, a, k_max, bs=bs)
            assert not interval.unknowns, a
            degree = oracles.degree_from_table(cat, a, k_max, bs)
            assert (interval.lower, interval.upper) == (degree, degree), a
