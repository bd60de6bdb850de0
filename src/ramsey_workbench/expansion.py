"""Coloring-family expansions of a structure catalog.

An expanded object is a base object C together with one coloring
theta_A : hom(A, C) -> t_A per skeleton representative A.  Morphisms of
expanded objects are base morphisms that transport colorings on the nose,
and forgetting the colorings is a functor with finite fibers, unique
restrictions, and free extension along any morphism.  The checks here
verify all of that exhaustively on the loaded catalog, and the analyses on
a single fiber (automorphism orbits, ages, minimal-age selection) are the
finite counterparts of the closure arguments used on infinite limits:
fibers here are finite and discrete, so closures collapse to orbits, and
reports say so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import FAILS, HOLDS
from .category import FiniteCategory, Skeletonization
from .errors import ExpansionOverflow, WorkbenchError
from .structures import (Embedding, Signature, Structure, canonical_key)


@dataclass(frozen=True)
class DegreeAssignment:
    """Color budget per skeleton representative; unspecified ones get 1."""

    degrees: tuple[tuple[str, int], ...]

    @staticmethod
    def make(space_reps: list[str], partial: dict[str, int]) -> "DegreeAssignment":
        unknown = set(partial) - set(space_reps)
        if unknown:
            raise WorkbenchError(f"degrees given for non-representatives {sorted(unknown)}")
        if any(t < 1 for t in partial.values()):
            raise WorkbenchError("degrees must be positive")
        return DegreeAssignment(tuple((r, partial.get(r, 1)) for r in space_reps))

    def of(self, rep: str) -> int:
        for r, t in self.degrees:
            if r == rep:
                return t
        raise KeyError(rep)


@dataclass(frozen=True)
class ExpandedObject:
    base: str
    theta: tuple[tuple[str, tuple[int, ...]], ...]  # per rep, colors in hom order

    def colors(self, rep: str) -> tuple[int, ...]:
        for r, values in self.theta:
            if r == rep:
                return values
        raise KeyError(rep)


@dataclass(frozen=True)
class ExpandedSignature:
    base: Signature
    added: tuple[tuple[str, int, str, int], ...]   # (rep, color j, name, arity)

    def as_signature(self) -> Signature:
        return Signature(
            relations=self.base.relations + tuple(
                (name, arity) for _, _, name, arity in self.added),
            constants=self.base.constants,
        )


class ExpansionSpace:
    """All coloring families over one catalog and one degree assignment."""

    def __init__(self, cat: FiniteCategory, degrees: dict[str, int] | DegreeAssignment,
                 *, fiber_budget: int = 200_000):
        self.cat = cat
        self.fiber_budget = fiber_budget
        keys = {}
        reps = []
        for obj in cat.objects:
            key = canonical_key(cat.structure(obj))
            if key not in keys:
                keys[key] = obj
                reps.append(obj)
        self.reps: list[str] = reps
        self.rep_of: dict[str, str] = {
            obj: keys[canonical_key(cat.structure(obj))] for obj in cat.objects
        }
        if isinstance(degrees, DegreeAssignment):
            given = {r: t for r, t in degrees.degrees}
            self.degrees = DegreeAssignment.make(reps, given)
        else:
            self.degrees = DegreeAssignment.make(reps, dict(degrees))
        self._hom_index: dict[tuple[str, str], dict[str, int]] = {}

    def hom_list(self, rep: str, obj: str) -> list[str]:
        return self.cat.hom(rep, obj)

    def _index(self, rep: str, obj: str) -> dict[str, int]:
        key = (rep, obj)
        if key not in self._hom_index:
            self._hom_index[key] = {
                mid: i for i, mid in enumerate(self.cat.hom(rep, obj))
            }
        return self._hom_index[key]

    # -- fibers -------------------------------------------------------------

    def fiber_size(self, obj: str) -> int:
        size = 1
        for rep in self.reps:
            size *= self.degrees.of(rep) ** len(self.hom_list(rep, obj))
        return size

    def fiber(self, obj: str) -> list[ExpandedObject]:
        if self.fiber_size(obj) > self.fiber_budget:
            raise ExpansionOverflow(
                f"fiber over {obj} has {self.fiber_size(obj)} expansions")
        pools = []
        for rep in self.reps:
            t = self.degrees.of(rep)
            m = len(self.hom_list(rep, obj))
            pools.append(list(itertools.product(range(t), repeat=m)))
        out = []
        for combo in itertools.product(*pools):
            out.append(ExpandedObject(
                obj, tuple((rep, values) for rep, values in zip(self.reps, combo))))
        return out

    # -- morphisms ----------------------------------------------------------

    def morphism_preserves(self, f: str, cstar: ExpandedObject,
                           dstar: ExpandedObject) -> bool:
        cat = self.cat
        if cat.source(f) != cstar.base or cat.target(f) != dstar.base:
            return False
        for rep in self.reps:
            src_idx = self._index(rep, cstar.base)
            dst_idx = self._index(rep, dstar.base)
            c_colors = cstar.colors(rep)
            d_colors = dstar.colors(rep)
            for e, i in src_idx.items():
                if d_colors[dst_idx[cat.compose(f, e)]] != c_colors[i]:
                    return False
        return True

    def hom_star(self, cstar: ExpandedObject, dstar: ExpandedObject) -> list[str]:
        return [f for f in self.cat.hom(cstar.base, dstar.base)
                if self.morphism_preserves(f, cstar, dstar)]

    def restriction(self, bstar: ExpandedObject, e: str) -> ExpandedObject:
        """The unique expansion of source(e) that makes e color-preserving."""
        cat = self.cat
        if cat.target(e) != bstar.base:
            raise WorkbenchError("restriction needs a morphism into the base")
        a = cat.source(e)
        theta = []
        for rep in self.reps:
            b_idx = self._index(rep, bstar.base)
            b_colors = bstar.colors(rep)
            values = tuple(b_colors[b_idx[cat.compose(e, h)]]
                           for h in self.hom_list(rep, a))
            theta.append((rep, values))
        return ExpandedObject(a, tuple(theta))

    def logical_action(self, fstar: ExpandedObject, g: str) -> ExpandedObject:
        """The unique expansion with g color-preserving into fstar."""
        cat = self.cat
        if g not in cat.automorphism_ids(fstar.base):
            raise WorkbenchError("the action needs an automorphism of the base")
        return self.restriction(fstar, g)

    # -- ages ----------------------------------------------------------------

    def age(self, fstar: ExpandedObject) -> dict[tuple, ExpandedObject]:
        """Representative expansions admitting a morphism into fstar, keyed by
        the canonical form of their rendering."""
        out: dict[tuple, ExpandedObject] = {}
        for rep in self.reps:
            for e in self.cat.hom(rep, fstar.base):
                astar = self.restriction(fstar, e)
                key = canonical_key(self.render(astar))
                if key not in out:
                    out[key] = astar
        return out

    # -- rendering ------------------------------------------------------------

    def expanded_signature(self) -> ExpandedSignature:
        base = None
        for obj in self.cat.objects:
            base = self.cat.structure(obj).signature
            break
        if base is None:
            raise WorkbenchError("empty catalog has no signature")
        added = []
        for rep in self.reps:
            arity = self.cat.structure(rep).size
            for j in range(1, self.degrees.of(rep) + 1):
                name = f"{rep}_copy_color{j}"
                if any(name == rn for rn, _ in base.relations):
                    raise WorkbenchError(f"added relation {name!r} collides")
                added.append((rep, j, name, arity))
        return ExpandedSignature(base, tuple(added))

    def render(self, cstar: ExpandedObject) -> Structure:
        """View as a single structure over the widened signature."""
        esig = self.expanded_signature()
        base_struct = self.cat.structure(cstar.base)
        tables = {rname: set(table) for rname, table in base_struct.relations}
        for rep, j, name, _ in esig.added:
            hom = self.hom_list(rep, cstar.base)
            colors = cstar.colors(rep)
            tables[name] = {
                self.cat.embedding(e).map
                for i, e in enumerate(hom) if colors[i] == j - 1
            }
        constants = {cname: v for cname, v in base_struct.constants}
        return Structure.make(esig.as_signature(), base_struct.size, tables,
                              constants, name=f"{cstar.base}*")

    def parse(self, rendered: Structure, base_obj: str) -> ExpandedObject:
        """Inverse of render; validates the three table conditions."""
        esig = self.expanded_signature()
        theta = []
        for rep in self.reps:
            hom = self.hom_list(rep, base_obj)
            t = self.degrees.of(rep)
            names = [name for r, _, name, _ in esig.added if r == rep]
            values = []
            for e in hom:
                emb = self.cat.embedding(e).map
                hits = [j for j, name in enumerate(names)
                        if emb in rendered.rel(name)]
                if len(hits) != 1:
                    raise WorkbenchError(
                        "copy colored by none or several of the added tables")
                values.append(hits[0])
            valid = {self.cat.embedding(e).map for e in hom}
            for name in names:
                for tup in rendered.rel(name):
                    if tup not in valid:
                        raise WorkbenchError(
                            f"{name!r} holds a tuple that is not a copy")
            theta.append((rep, tuple(values)))
        return ExpandedObject(base_obj, tuple(theta))


# -- whole-category checks ----------------------------------------------------


@dataclass
class ForgetfulReport:
    surjective_on_objects: bool
    injective_on_homs: bool
    reasonable: bool
    unique_restrictions: bool
    precompact: bool
    fiber_sizes: dict[str, int]
    failure: dict | None = None

    @property
    def all_hold(self) -> bool:
        return (self.surjective_on_objects and self.injective_on_homs
                and self.reasonable and self.unique_restrictions
                and self.precompact)


def check_forgetful(space: ExpansionSpace,
                    fibers: dict[str, list[ExpandedObject]] | None = None) -> ForgetfulReport:
    """Exhaustive audit of the forgetful functor on the catalog.

    ``fibers`` overrides the full enumeration (used to probe doctored
    sub-fibers, which should break the free-extension property).
    """
    cat = space.cat
    fibers = fibers or {obj: space.fiber(obj) for obj in cat.objects}
    sizes = {obj: len(fibers[obj]) for obj in cat.objects}

    surjective = all(sizes[obj] >= 1 for obj in cat.objects)
    precompact = all(sizes[obj] == space.fiber_size(obj) for obj in cat.objects)

    injective = True   # morphisms of expansions are base morphisms verbatim
    failure = None

    reasonable = True
    for a in cat.objects:
        for b in cat.objects:
            for e in cat.hom(a, b):
                for astar in fibers[a]:
                    hit = next((bstar for bstar in fibers[b]
                                if space.morphism_preserves(e, astar, bstar)),
                               None)
                    if hit is None:
                        reasonable = False
                        failure = {"property": "reasonable", "e": e,
                                   "Astar": astar.theta}
                        break
                if not reasonable:
                    break
            if not reasonable:
                break
        if not reasonable:
            break

    unique = True
    for b in cat.objects:
        for bstar in fibers[b]:
            for a in cat.objects:
                for e in cat.hom(a, b):
                    matching = [astar for astar in fibers[a]
                                if space.morphism_preserves(e, astar, bstar)]
                    expected = space.restriction(bstar, e)
                    if matching != [expected]:
                        unique = False
                        if failure is None:
                            failure = {"property": "unique-restrictions",
                                       "e": e, "Bstar": bstar.theta}
                        break
                if not unique:
                    break
            if not unique:
                break
        if not unique:
            break

    return ForgetfulReport(surjective, injective, reasonable, unique,
                           precompact, sizes, failure)


@dataclass
class OrbitAgeReport:
    orbits: list[list[ExpandedObject]]
    ages_equal_on_orbits: bool
    minimal: ExpandedObject
    minimal_age_keys: tuple
    notes: list[str] = field(default_factory=list)


def orbit_age_analysis(space: ExpansionSpace, f_obj: str) -> OrbitAgeReport:
    """Orbits of the fiber under the automorphism action, their ages, and a
    deterministic inclusion-minimal-age selection.

    On a finite fiber the closure of an orbit is the orbit itself, so the
    minimal-closed-orbit selection degenerates to comparing plain orbit
    ages; the report records that substitution.
    """
    cat = space.cat
    fiber = space.fiber(f_obj)
    auts = cat.automorphism_ids(f_obj)
    seen: set[ExpandedObject] = set()
    orbits: list[list[ExpandedObject]] = []
    for fstar in fiber:
        if fstar in seen:
            continue
        orbit = []
        for g in auts:
            moved = space.logical_action(fstar, g)
            if moved not in orbit:
                orbit.append(moved)
        orbit.sort(key=lambda x: x.theta)
        orbits.append(orbit)
        seen.update(orbit)

    ages = {fstar: frozenset(space.age(fstar).keys())
            for orbit in orbits for fstar in orbit}
    equal = all(
        len({ages[fstar] for fstar in orbit}) == 1 for orbit in orbits
    )

    candidates = sorted(fiber, key=lambda x: (sorted(ages[x]), x.theta))
    minimal = None
    for cand in candidates:
        if not any(ages[other] < ages[cand] for other in fiber):
            minimal = cand
            break
    return OrbitAgeReport(orbits, equal, minimal, tuple(sorted(ages[minimal])),
                          notes=["closure taken as orbit: fiber is finite "
                                 "and discrete"])


@dataclass
class ExpansionPropertyReport:
    direct: dict[str, str | None]
    single_object: dict[tuple[str, tuple], str | None]
    direct_status: str
    single_status: str
    agree: bool


def expansion_property_check(space: ExpansionSpace,
                             designated: dict[str, list[ExpandedObject]]) -> ExpansionPropertyReport:
    """Two readings of the absorption property for a designated family.

    Direct: every base object has a target object all of whose designated
    expansions absorb all of its own.  Single-object: every designated
    expansion separately admits such a target.  The two must agree on
    directed mono catalogs; any disagreement is flagged.
    """
    cat = space.cat

    def absorbs(a_list, b_list) -> bool:
        return all(space.hom_star(astar, bstar)
                   for astar in a_list for bstar in b_list)

    direct: dict[str, str | None] = {}
    for a, a_list in designated.items():
        if not a_list:
            direct[a] = a
            continue
        direct[a] = next(
            (b for b in cat.objects
             if absorbs(a_list, designated.get(b, []))), None)

    single: dict[tuple[str, tuple], str | None] = {}
    for a, a_list in designated.items():
        for dstar in a_list:
            single[(a, dstar.theta)] = next(
                (b for b in cat.objects
                 if all(space.hom_star(dstar, bstar)
                        for bstar in designated.get(b, []))), None)

    direct_status = HOLDS if all(v is not None for v in direct.values()) else FAILS
    single_status = HOLDS if all(v is not None for v in single.values()) else FAILS
    return ExpansionPropertyReport(direct, single, direct_status, single_status,
                                   agree=direct_status == single_status)


def transport_expansion(space: ExpansionSpace,
                        skel: Skeletonization) -> dict[str, list[ExpandedObject]]:
    """Pull the representative fibers back along the canonical isomorphisms.

    Every catalog object receives the expansions of its representative with
    colorings precomposed by eta; the result must coincide with direct
    enumeration, and the caller re-runs check_forgetful to confirm.
    """
    cat = space.cat
    out: dict[str, list[ExpandedObject]] = {}
    for obj in cat.objects:
        rep = skel.representatives[obj]
        eta = skel.canon_iso[obj]
        eta_mid = None
        for mid in cat.hom(obj, rep):
            if cat.embedding(mid).map == eta.map:
                eta_mid = mid
                break
        if eta_mid is None:
            raise WorkbenchError(f"catalog lacks the canonical iso {obj}->{rep}")
        out[obj] = sorted(
            (space.restriction(rep_star, eta_mid)
             for rep_star in space.fiber(rep)),
            key=lambda x: x.theta,
        )
    return out
