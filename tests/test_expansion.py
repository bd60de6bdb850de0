import functools
import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramsey_workbench import expansion
from ramsey_workbench.catalogs import (complete_graph, empty_graph, graph,
                                       graph_catalog, linear_order,
                                       lo_catalog, path_graph)
from ramsey_workbench.category import (FiniteCategory, abstract_from_json,
                                       skeletonize)
from ramsey_workbench.errors import ExpansionOverflow, WorkbenchError
from ramsey_workbench.expansion import (ExpansionSpace, check_forgetful,
                                        expansion_property_check,
                                        orbit_age_analysis)
from ramsey_workbench.structures import Structure, canonical_key

import oracles
from oracles import parse_expansion, transport_expansion


# P3 with a relabelled twin P3x
P3_TWIN = [empty_graph(1, name="K1"), complete_graph(2, name="K2"),
           path_graph(3), path_graph(3).relabel((2, 0, 1), name="P3x")]


@pytest.fixture(scope="module")
def p3_space():
    cat = FiniteCategory.from_structures(
        [empty_graph(1, name="K1"), complete_graph(2, name="K2"),
         path_graph(3)])
    return ExpansionSpace(cat, {"K2": 2})


class TestFibers:
    def test_p3_fiber_has_sixteen(self, p3_space):
        assert p3_space.fiber_size("P3") == 16
        assert len(p3_space.fiber("P3")) == 16

    def test_fiber_formula_matches_hom_counts(self, p3_space):
        cat = p3_space.cat
        for obj in cat.objects:
            expected = 1
            for rep in p3_space.reps:
                expected *= p3_space.degrees[rep] ** len(cat.hom(rep, obj))
            assert p3_space.fiber_size(obj) == expected

    def test_representatives_are_first_in_each_class(self):
        catalog = [complete_graph(2, name="K2"), path_graph(3),
                   empty_graph(1, name="K1"),
                   graph(3, [(0, 2), (2, 1)], name="P3r"),
                   graph(2, [(1, 0)], name="K2b")]
        space = ExpansionSpace(FiniteCategory.from_structures(catalog), {})
        first = {s.name: next(r.name for r in catalog
                              if oracles.brute_isomorphic(r, s))
                 for s in catalog}
        assert space.rep_of == first
        assert space.reps == ["K2", "P3", "K1"]

    @pytest.mark.parametrize("catalog", [
        lo_catalog(6), graph_catalog(4), graph_catalog(5), P3_TWIN,
        [complete_graph(5, name="K5"), empty_graph(5, name="E5"),
         graph(5, [(i, (i + 1) % 5) for i in range(5)], name="C5"),
         complete_graph(5).relabel((4, 2, 0, 3, 1), name="K5x"),
         empty_graph(5).relabel((1, 0, 2, 3, 4), name="E5x"),
         graph(5, [(i, (i + 2) % 5) for i in range(5)], name="C5x")],
    ], ids=["lo6", "g4", "g5", "p3-twin", "k5-e5-c5-twins"])
    def test_representatives_are_the_skeleton_classes(self, catalog):
        # invertible morphisms cut the classes that canonical forms cut
        cat = FiniteCategory.from_structures(catalog)
        space = ExpansionSpace(cat, {})
        skeleton = skeletonize(cat).representatives
        assert space.rep_of == skeleton
        assert space.reps == list(dict.fromkeys(skeleton.values()))

    def test_unit_degrees_give_single_expansion(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        space = ExpansionSpace(cat, {})
        for obj in cat.objects:
            assert space.fiber_size(obj) == 1

    def test_no_copies_of_colored_rep(self):
        cat = FiniteCategory.from_structures(
            [empty_graph(1, name="K1"), empty_graph(3, name="E3"),
         complete_graph(2, name="K2")])
        space = ExpansionSpace(cat, {"K2": 2})
        assert space.fiber_size("E3") == 1

    def test_budget_guard(self, monkeypatch):
        cat = FiniteCategory.from_structures(
            [complete_graph(2, name="K2"), complete_graph(5, name="K5")])
        monkeypatch.setattr(expansion, "FIBER_BUDGET", 100)
        space = ExpansionSpace(cat, {"K2": 2})
        with pytest.raises(ExpansionOverflow):
            space.fiber("K5")

    def test_degrees_validation(self):
        cat = FiniteCategory.from_structures(lo_catalog(2))
        with pytest.raises(WorkbenchError):
            ExpansionSpace(cat, {"LO9": 2})
        with pytest.raises(WorkbenchError):
            ExpansionSpace(cat, {"LO2": 0})
        with pytest.raises(WorkbenchError, match="degree of LO2"):
            ExpansionSpace(cat, {"LO2": True})
        assert ExpansionSpace(cat, {"LO2": 2}).degrees == {"LO1": 1, "LO2": 2}


class TestMorphismsAndRestrictions:
    def test_identity_preserves(self, p3_space):
        for fstar in p3_space.fiber("P3"):
            ident = p3_space.cat.identity("P3")
            assert p3_space.morphism_preserves(ident, fstar, fstar)

    def test_restriction_along_identity(self, p3_space):
        for fstar in p3_space.fiber("P3"):
            assert p3_space.restriction(
                fstar, p3_space.cat.identity("P3")) == fstar

    def test_restriction_functorial(self, p3_space):
        cat = p3_space.cat
        for fstar in p3_space.fiber("P3")[:4]:
            for e in cat.hom("K2", "P3"):
                for h in cat.hom("K1", "K2"):
                    via = p3_space.restriction(p3_space.restriction(fstar, e), h)
                    direct = p3_space.restriction(fstar, cat.compose(e, h))
                    assert via == direct

    def test_restriction_is_unique_preserver(self, p3_space):
        cat = p3_space.cat
        for fstar in p3_space.fiber("P3"):
            for e in cat.hom("K2", "P3"):
                expected = p3_space.restriction(fstar, e)
                matching = [astar for astar in p3_space.fiber("K2")
                            if p3_space.morphism_preserves(e, astar, fstar)]
                assert matching == [expected]

    def test_morphism_closure_under_composition(self, p3_space):
        cat = p3_space.cat
        k2_fiber = p3_space.fiber("K2")
        p3_fiber = p3_space.fiber("P3")
        for astar in k2_fiber[:2]:
            for bstar in p3_fiber[:4]:
                for f in oracles.hom_star(p3_space, astar, bstar):
                    for cstar in p3_fiber[:4]:
                        for g in oracles.hom_star(p3_space, bstar, cstar):
                            gf = cat.compose(g, f)
                            assert p3_space.morphism_preserves(gf, astar, cstar)


class TestLogicalAction:
    """An automorphism g moves F* to restriction(F*, g)."""

    def test_identity_acts_trivially(self, p3_space):
        ident = p3_space.cat.identity("P3")
        for fstar in p3_space.fiber("P3"):
            assert p3_space.restriction(fstar, ident) == fstar

    def test_right_action_law(self, p3_space):
        cat = p3_space.cat
        auts = cat.automorphism_ids("P3")
        for fstar in p3_space.fiber("P3"):
            for g in auts:
                for h in auts:
                    lhs = p3_space.restriction(
                        p3_space.restriction(fstar, g), h)
                    rhs = p3_space.restriction(fstar, cat.compose(g, h))
                    assert lhs == rhs

    def test_action_morphism_replays(self, p3_space):
        # g is a color-preserving morphism from the moved expansion back
        for fstar in p3_space.fiber("P3"):
            for g in p3_space.cat.automorphism_ids("P3"):
                moved = p3_space.restriction(fstar, g)
                assert p3_space.morphism_preserves(g, moved, fstar)

    def test_orbit_sizes_sum_to_fiber(self, p3_space):
        report = orbit_age_analysis(p3_space, "P3")
        assert sum(len(o) for o in report.orbits) == 16
        sizes = sorted(len(o) for o in report.orbits)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


class TestAges:
    def test_unit_degrees_age_matches_base(self, p3_space):
        cat = FiniteCategory.from_structures(
            [empty_graph(1, name="K1"), complete_graph(2, name="K2"),
             path_graph(3)])
        unit = ExpansionSpace(cat, {})
        fstar = unit.fiber("P3")[0]
        age = oracles.age(unit, fstar)
        assert len(age) == 3   # one expansion per base object below P3

    def test_two_colored_edges_in_age(self, p3_space):
        # an expansion giving its edges both colors shows both one-colored
        # edge expansions in its age
        fiber = p3_space.fiber("P3")
        mixed = next(f for f in fiber
                     if len(set(f.colors("K2"))) == 2)
        age = oracles.age(p3_space, mixed)
        k2_members = [a for a in age.values() if a.base == "K2"]
        assert len(k2_members) >= 2

    def test_empty_age_when_no_copies(self):
        cat = FiniteCategory.from_structures(
            [complete_graph(3, name="K3"), empty_graph(2, name="E2")])
        space = ExpansionSpace(cat, {})
        fstar = space.fiber("E2")[0]
        age = oracles.age(space, fstar)
        assert all(a.base == "E2" for a in age.values())

    def test_orbit_members_share_age(self, p3_space):
        report = orbit_age_analysis(p3_space, "P3")
        for orbit in report.orbits:
            assert len({frozenset(oracles.age(p3_space, member))
                        for member in orbit}) == 1

    def test_minimal_age_selection_deterministic(self, p3_space):
        r1 = orbit_age_analysis(p3_space, "P3")
        r2 = orbit_age_analysis(p3_space, "P3")
        assert r1.minimal == r2.minimal
        for other in p3_space.fiber("P3"):
            other_age = frozenset(oracles.age(p3_space, other))
            assert not other_age < frozenset(oracles.age(p3_space, r1.minimal))


@pytest.fixture(scope="module", params=["p3", "lo4", "g3"])
def small_space(request):
    """P3 with K2 in 2 colors, lo_catalog(4) with LO2 in 2 colors, and
    graph_catalog(3) with its edge G2_1 in 2 colors."""
    catalog, degrees = {
        "p3": ([empty_graph(1, name="K1"), complete_graph(2, name="K2"),
                path_graph(3)], {"K2": 2}),
        "lo4": (lo_catalog(4), {"LO2": 2}),
        "g3": (graph_catalog(3), {"G2_1": 2}),
    }[request.param]
    return ExpansionSpace(FiniteCategory.from_structures(catalog), degrees)


class TestAgesAgainstRendering:
    """``age`` names each isomorphism type by an automorphism orbit;
    ``oracles.render`` names it by a canonical form.  The two must cut the
    restrictions into the same classes and keep the same first members."""

    @staticmethod
    def restrictions(space, fstar):
        return [space.restriction(fstar, e) for rep in space.reps
                for e in space.cat.hom(rep, fstar.base)]

    @staticmethod
    def rendered_keys(space):
        return functools.cache(
            lambda x: canonical_key(oracles.render(space, x)))

    def test_orbit_keys_partition_as_rendered_canonical_forms(self, small_space):
        space = small_space
        rendered = self.rendered_keys(space)

        @functools.cache
        def own_key(x):
            # x's type is the only one over its base in its own age
            (key,) = [k for k in oracles.age(space, x) if k.base == x.base]
            return key

        pairs = set()
        for obj in space.cat.objects:
            for fstar in space.fiber(obj):
                below = self.restrictions(space, fstar)
                pairs.update((own_key(x), rendered(x)) for x in below)
                first = {}
                for x in below:
                    first.setdefault(rendered(x), x)
                age = oracles.age(space, fstar)
                assert list(age.values()) == list(first.values())
                assert set(age) == {own_key(x) for x in below}
        keys, forms = zip(*pairs)
        assert len(pairs) == len(set(keys)) == len(set(forms))

    def test_every_fiber_member_has_an_inclusion_minimal_age(self, small_space):
        space = small_space
        rendered = self.rendered_keys(space)
        for obj in space.cat.objects:
            fiber = space.fiber(obj)
            ages = [frozenset(map(rendered, self.restrictions(space, f)))
                    for f in fiber]
            assert not any(a < b for a in ages for b in ages)
            minimal = orbit_age_analysis(space, obj).minimal
            assert minimal in fiber

    def test_each_orbit_has_one_rendered_age(self, small_space):
        # the check orbit_age_analysis no longer makes, by canonical forms
        space = small_space
        rendered = self.rendered_keys(space)
        for obj in space.cat.objects:
            for orbit in orbit_age_analysis(space, obj).orbits:
                assert len({frozenset(map(rendered, self.restrictions(space, m)))
                            for m in orbit}) == 1


class TestRendering:
    def test_roundtrip(self, p3_space):
        for fstar in p3_space.fiber("P3"):
            rendered = oracles.render(p3_space, fstar)
            assert parse_expansion(p3_space, rendered, "P3") == fstar

    def test_parse_rejects_a_tuple_that_is_not_a_copy(self, p3_space):
        rendered = oracles.render(p3_space, p3_space.fiber("P3")[0])
        name = next(name for rep, _, name, _ in
                    oracles.expanded_signature(p3_space).added if rep == "K2")
        # 0 and 2 are the ends of P3, so (0, 2) is no edge and no copy of K2
        tables = {rname: set(table) for rname, table in rendered.relations}
        tables[name].add((0, 2))
        doctored = Structure.make(rendered.signature, rendered.size, tables)
        with pytest.raises(WorkbenchError):
            parse_expansion(p3_space, doctored, "P3")

    def test_added_tables_partition_copies(self, p3_space):
        fstar = p3_space.fiber("P3")[5]
        rendered = oracles.render(p3_space, fstar)
        esig = oracles.expanded_signature(p3_space)
        k2_names = [name for rep, _, name, _ in esig.added if rep == "K2"]
        copies = {p3_space.cat.embedding(e).map
                  for e in p3_space.cat.hom("K2", "P3")}
        seen = set()
        for name in k2_names:
            table = rendered.rel(name)
            assert table <= copies
            assert not (table & seen)
            seen |= table
        assert seen == copies

    def test_base_tables_preserved(self, p3_space):
        fstar = p3_space.fiber("P3")[0]
        rendered = oracles.render(p3_space, fstar)
        assert rendered.rel("edge") == path_graph(3).rel("edge")

    def test_added_names_disjoint_from_base(self, p3_space):
        esig = oracles.expanded_signature(p3_space)
        base_names = {n for n, _ in esig.base.relations}
        added_names = {name for _, _, name, _ in esig.added}
        assert not (base_names & added_names)


def audited(space):
    """check_forgetful's report, checked against the scan in tests/oracles.py:
    the same reasonable, fiber sizes and failure, and the four properties
    that hold by construction, which only the scan reports."""
    report, scan = check_forgetful(space), oracles.scan_forgetful(space)
    assert (report.reasonable, report.fiber_sizes, report.failure) == (
        scan.reasonable, scan.fiber_sizes, scan.failure)
    assert (scan.surjective_on_objects and scan.injective_on_homs
            and scan.unique_restrictions and scan.precompact)
    return report


class TestForgetfulChecks:
    def test_all_four_properties_on_p3(self, p3_space):
        report = audited(p3_space)
        assert report.reasonable
        assert report.fiber_sizes == {"K1": 1, "K2": 4, "P3": 16}

    def test_unit_degrees_catalog(self):
        cat = FiniteCategory.from_structures(lo_catalog(4))
        report = check_forgetful(ExpansionSpace(cat, {}))
        assert report.reasonable
        assert set(report.fiber_sizes.values()) == {1}

    @pytest.mark.parametrize("doc,failure", [
        (oracles.Z3, None),
        # z.1 = z.z = z: restriction along z paints both slots with the
        # color of z, so (0, 1) is nobody's restriction
        (oracles.IDEMPOTENT, {"property": "reasonable", "e": "z",
                              "Astar": (("G", (0, 1)),)}),
        # x.(1, x, y, w) = (x, y, 1, x): slots 0 and 3 read one color, and
        # (0, 0, 0, 1) is the first coloring where they differ
        (oracles.NON_ASSOCIATIVE, {"property": "reasonable", "e": "x",
                                   "Astar": (("G", (0, 0, 0, 1)),)}),
    ], ids=["z3", "idempotent", "non-assoc"])
    def test_one_object_tables_fail_only_reasonableness(self, doc, failure):
        report = audited(ExpansionSpace(abstract_from_json(doc), {"G": 2}))
        assert report.failure == failure
        assert report.reasonable == (failure is None)

    def test_degenerate_soundness_hom_counts(self, graphs4_category):
        # with unit degrees the expanded category mirrors the base one
        space = ExpansionSpace(graphs4_category, {})
        cat = graphs4_category
        for a in cat.objects:
            astar = space.fiber(a)[0]
            for b in cat.objects:
                bstar = space.fiber(b)[0]
                assert (len(oracles.hom_star(space, astar, bstar))
                        == len(cat.hom(a, b)))


@st.composite
def audit_questions(draw):
    """The expansion space of a sub-catalog of lo_catalog(4) or
    graph_catalog(3) in any order, or of one of the one-object tables Z3,
    IDEMPOTENT and NON_ASSOCIATIVE, with degrees in {1, 2, 3} on at most two
    representatives and fibers of at most 27 expansions."""
    pool = draw(st.sampled_from([lo_catalog(4), graph_catalog(3), None]))
    if pool is None:
        cat = abstract_from_json(draw(st.sampled_from(
            [oracles.Z3, oracles.IDEMPOTENT, oracles.NON_ASSOCIATIVE])))
    else:
        cat = FiniteCategory.from_structures(draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=4,
            unique_by=lambda s: s.name)))
    degrees = draw(st.dictionaries(st.sampled_from(cat.objects),
                                   st.sampled_from([2, 3, 1]),
                                   min_size=1, max_size=2))
    space = ExpansionSpace(cat, degrees)
    assume(all(space.fiber_size(obj) <= 27 for obj in cat.objects))
    return space


class TestForgetfulAgainstScan:
    """check_forgetful decides by restriction; the scan in tests/oracles.py
    decides by searching pairs of fibers.  Their findings, failure included,
    must agree, and the scan must find the four constructed properties."""

    @settings(max_examples=60)
    @given(audit_questions())
    def test_same_report_as_the_scan(self, space):
        audited(space)

    def test_each_witness_is_the_first_preserving_extension(self, monkeypatch):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        space = ExpansionSpace(cat, {"LO1": 2, "LO2": 2})
        real = ExpansionSpace.morphism_preserves
        calls = []
        monkeypatch.setattr(ExpansionSpace, "morphism_preserves",
                            lambda self, f, c, d: calls.append((f, c, d))
                            or real(self, f, c, d))
        assert check_forgetful(space).reasonable
        assert calls == [
            (e, astar, next(bstar for bstar in space.fiber(b)
                            if real(space, e, astar, bstar)))
            for a in cat.objects for b in cat.objects
            for e in cat.hom(a, b) for astar in space.fiber(a)]

    def test_two_colored_pairs_on_five_chains(self):
        # every 2-coloring of the pairs of LOn is an expansion: 2^C(n, 2)
        cat = FiniteCategory.from_structures(lo_catalog(5))
        report = check_forgetful(ExpansionSpace(cat, {"LO2": 2}))
        assert report.reasonable and report.failure is None
        assert report.fiber_sizes == {f"LO{n}": 2 ** math.comb(n, 2)
                                      for n in range(1, 6)}


class TestExpansionProperty:
    def test_unit_degrees_hold_trivially(self):
        cat = FiniteCategory.from_structures(lo_catalog(3))
        space = ExpansionSpace(cat, {})
        designated = {obj: space.fiber(obj) for obj in cat.objects}
        report = expansion_property_check(space, designated)
        assert report.direct_status == "HOLDS"
        assert report.single_status == "HOLDS"
        assert report.agree

    def test_two_colored_chain_fails_within_small_catalog(self):
        # both colors appear on two-chains inside every expansion of any
        # longer chain, but a designated family with both one-colored
        # two-chain expansions has no absorbing target
        cat = FiniteCategory.from_structures(lo_catalog(3))
        space = ExpansionSpace(cat, {"LO2": 2})
        designated = {obj: space.fiber(obj) for obj in cat.objects}
        report = expansion_property_check(space, designated)
        assert report.direct_status == "FAILS"

    def test_empty_designated_family_vacuous(self):
        cat = FiniteCategory.from_structures(lo_catalog(2))
        space = ExpansionSpace(cat, {})
        report = expansion_property_check(space, {"LO1": [], "LO2": []})
        assert report.direct_status == "HOLDS"

    def test_single_object_criterion_agrees_here(self, p3_space):
        designated = {obj: p3_space.fiber(obj)
                      for obj in p3_space.cat.objects}
        report = expansion_property_check(p3_space, designated)
        assert report.agree


def answers(space):
    """Everything the expansion checks report over the space's category."""
    cat = space.cat
    return (space.reps, space.rep_of,
            {obj: space.fiber_size(obj) for obj in cat.objects},
            check_forgetful(space),
            [orbit_age_analysis(space, obj) for obj in cat.objects],
            expansion_property_check(
                space, {obj: space.fiber(obj) for obj in cat.objects}))


class TestTableRoute:
    """The expansion checks read only the category, so a compose table
    answers as the structure catalog it was taken from: the hand-written
    chain table, and a dump of a catalog with a relabelled twin."""

    @pytest.mark.parametrize("catalog,table,degrees", [
        (lo_catalog(4), lambda: oracles.lo_table(4), {"LO1": 2}),
        (lo_catalog(4), lambda: oracles.lo_table(4), {"LO2": 2}),
        (P3_TWIN, lambda: oracles.table_dump(
            FiniteCategory.from_structures(P3_TWIN)), {"K2": 2}),
    ], ids=["lo4t-LO1", "lo4t-LO2", "p3-twin-dump"])
    def test_same_answers_as_the_structure_route(self, catalog, table, degrees):
        structures = ExpansionSpace(FiniteCategory.from_structures(catalog),
                                    degrees)
        tables = ExpansionSpace(abstract_from_json(table()), degrees)
        assert not tables.cat.structures
        assert answers(tables) == answers(structures)


@pytest.fixture(scope="module")
def duplicated():
    return FiniteCategory.from_structures(P3_TWIN)


class TestTransport:

    def test_transport_matches_direct_enumeration(self, duplicated):
        space = ExpansionSpace(duplicated, {"K2": 2})
        skel = skeletonize(duplicated)
        transported = transport_expansion(space, skel)
        for obj in duplicated.objects:
            direct = sorted(space.fiber(obj), key=lambda x: x.theta)
            assert transported[obj] == direct

    def test_transported_copy_has_sixteen(self, duplicated):
        space = ExpansionSpace(duplicated, {"K2": 2})
        skel = skeletonize(duplicated)
        transported = transport_expansion(space, skel)
        assert len(transported["P3x"]) == 16

    def test_forgetful_checks_survive_transport(self, duplicated):
        space = ExpansionSpace(duplicated, {"K2": 2})
        skel = skeletonize(duplicated)
        transported = transport_expansion(space, skel)
        fibers = {obj: sorted(space.fiber(obj), key=lambda x: x.theta)
                  for obj in duplicated.objects}
        report = check_forgetful(space)
        assert report.reasonable
        assert fibers == transported

    def test_skeletal_catalog_transport_is_identity(self, p3_space):
        skel = skeletonize(p3_space.cat)
        transported = transport_expansion(p3_space, skel)
        for obj in p3_space.cat.objects:
            assert transported[obj] == sorted(p3_space.fiber(obj),
                                              key=lambda x: x.theta)
