from collections import Counter

import pytest

from ramsey_workbench import degrees
from ramsey_workbench.arrows import TIME_OUT, Coloring, arrow_check
from ramsey_workbench.catalogs import empty_graph, lo_catalog, path_graph
from ramsey_workbench.category import FiniteCategory
from ramsey_workbench.degrees import (degree_interval, degree_lower,
                                      degree_upper)

from oracles import find_isomorphic


def p3_name(cat):
    return find_isomorphic(list(cat.structures.values()), path_graph(3)).name


class TestDegreeUpper:
    def test_lo2_is_one_at_two_colors(self, lo7_category):
        cat = lo7_category
        bs = ["LO1", "LO2", "LO3"]
        n, certs, unknowns = degree_upper(cat, "LO2", 2, bs=bs)
        assert n == 1 and not unknowns
        assert any(c.b == "LO3" and c.k == 2 and c.witness == "LO6"
                   for c in certs)

    def test_lo2_needs_two_at_three_colors(self, lo7_category):
        # with three colors the one-color arrow for triples needs a chain of
        # length 17, far beyond this catalog, so the least feasible bound is
        # two, witnessed by the five-chain
        n, certs, _ = degree_upper(lo7_category, "LO2", 3,
                                   bs=["LO1", "LO2", "LO3"])
        assert n == 2
        assert any(c.b == "LO3" and c.k == 3 and c.witness == "LO5"
                   for c in certs)

    def test_upper_certificates_replay(self, lo7_category):
        n, certs, _ = degree_upper(lo7_category, "LO2", 2,
                                   bs=["LO1", "LO2", "LO3"])
        for cert in certs:
            verdict = arrow_check(lo7_category, cert.witness, cert.b, "LO2",
                                  cert.k, n)
            assert verdict.status == "HOLDS"

    def test_single_morphism_object(self):
        cat = FiniteCategory.from_structures(lo_catalog(1))
        n, certs, _ = degree_upper(cat, "LO1", 3)
        assert n == 1


class TestDegreeLower:
    def test_p3_has_degree_at_least_two(self, graphs5_category):
        cat = graphs5_category
        cert = degree_lower(cat, p3_name(cat), 2, 2)
        assert cert is not None
        assert cat.structures[cert.b] == path_graph(3).relabel(
            tuple(range(3))) or cert.b == p3_name(cat)
        assert set(cert.bad_colorings) == set(cat.objects)

    def test_p3_lower_certificates_replay(self, graphs5_category):
        cat = graphs5_category
        cert = degree_lower(cat, p3_name(cat), 2, 2)
        for c, coloring in cert.bad_colorings.items():
            from ramsey_workbench.arrows import verify_bad_coloring
            assert verify_bad_coloring(cat, c, cert.b, p3_name(cat), 1, coloring)

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
            from ramsey_workbench.arrows import verify_bad_coloring
            assert verify_bad_coloring(cat, c, p3, p3, 1, coloring)

    def test_lo2_lower_on_seven_chain_succeeds_at_two(self, lo7_category):
        # catalog-relative: the four-chain target has no one-color witness
        # below the eighteen-chain, so the bound 2 is certified here
        cert = degree_lower(lo7_category, "LO2", 2, 2)
        assert cert is not None and cert.b == "LO4"

    def test_lower_absent_when_witnesses_exist(self):
        cat = FiniteCategory.from_structures(lo_catalog(6))
        cert = degree_lower(cat, "LO2", 2, 2, bs=["LO2", "LO3"])
        assert cert is None

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

    def test_rejects_trivial_bound(self, lo7_category):
        with pytest.raises(ValueError):
            degree_lower(lo7_category, "LO2", 2, 1)


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
        calls = self._counted(monkeypatch)
        cat = FiniteCategory.from_structures(lo_catalog(4))
        memo = {}
        for _ in range(2):
            verdict = degrees._decide(memo, cat, "LO4", "LO3", "LO2", 2, 1,
                                      None, 0.0)
            assert verdict.note == TIME_OUT
        assert not memo and sum(calls.values()) == 2
