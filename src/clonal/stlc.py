"""The lambda-calculus suite: stock free algebras, the finite set model,
closed-term evaluation, and the adequacy harness.

Clone terms of the set model are total function tables: a term over
(Gamma; A) is a tuple of A-values, one per point of the product of the
value spaces of Gamma, in enumeration order.  Application and currying
interpret the two operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import getitem

from .clones import Clone, CloneError, CloneHom, Substitution, stored_for
from .firstorder import BASE, FoOp, FoVar, TmClone
from .freealgebra import (
    CloneApp,
    FreeAlgebra,
    FreeTerm,
    enumerate_free_terms,
    fold_hom,
)
from .nbe import check_normal, nbe_for, nbe_normalize
from .secondorder import Algebra, SoPresentation, stlc_presentation
from .sorts import EMPTY, Context, Sort, SortSet
from .theories import booleans, free_algebra, global_state, variables


# --------------------------------------------------------------------------
# Stock free algebras
# --------------------------------------------------------------------------


def pure_stlc() -> FreeAlgebra:
    """The initial algebra: the free algebra on the clone of variables."""
    return free_algebra(variables())


def stlc_bool() -> FreeAlgebra:
    """Lambda calculus with booleans: the free algebra on the boolean clone."""
    return free_algebra(booleans())


def stlc_gs(values: tuple = ("v1", "v2")) -> FreeAlgebra:
    """Lambda calculus with global state over the given value labels."""
    return free_algebra(global_state(tuple(values)))


def gs_normalize(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm) -> FreeTerm:
    """Normal form in the state variant: base-sorted normals take the shape
    get(put_{w_1}(n_1), ..., put_{w_k}(n_k)) over neutral branches."""
    nf = nbe_normalize(free, ctx, sort, t)
    verdict = check_normal(free, ctx, sort, nf)
    if not verdict:
        raise CloneError(f"normalization produced a non-normal form: {verdict.reason}")
    return nf


def true_term() -> FreeTerm:
    return CloneApp(FoOp("true", (), ()), EMPTY, BASE, ())


def false_term() -> FreeTerm:
    return CloneApp(FoOp("false", (), ()), EMPTY, BASE, ())


def enumerate_closed_terms(free: FreeAlgebra, sort: Sort, size: int) -> list[FreeTerm]:
    """Closed free terms with at most ``size`` nodes."""
    return enumerate_free_terms(free, EMPTY, sort, max_size=size)


# --------------------------------------------------------------------------
# The finite set model
# --------------------------------------------------------------------------


class SetModelClone(Clone):
    """Function tables over finite value spaces.

    A term over (Gamma; A) is a tuple of A-values indexed by the points of
    Gamma's product space, which are enumerated in a fixed order.  A
    substitution acts through its cell map, made once per substitution and
    model and stored on the substitution (``clones.stored_for``).
    """

    def __init__(self, sort_set: SortSet, base_values: tuple, max_cells: int = 200_000):
        if not base_values:
            raise CloneError("the set model needs a nonempty base set")
        self.sort_set = sort_set
        self.base_values = tuple(base_values)
        self.max_cells = max_cells  # tables beyond this are not materialized
        self._spaces: dict[Sort, list] = {}
        self._index: dict[Sort, dict] = {}
        self._points: dict[Context, list] = {}
        self._point_index: dict[Context, dict] = {}
        self._vars: dict[tuple, tuple] = {}

    # value spaces ---------------------------------------------------------

    def space_size(self, sort: Sort) -> int:
        """Value-space cardinality, computed without materializing it."""
        if not sort.args:
            return len(self.base_values)
        a, b = sort.args
        return self.space_size(b) ** self.space_size(a)

    def space(self, sort: Sort) -> list:
        vals = self._spaces.get(sort)
        if vals is None:
            if self.space_size(sort) > self.max_cells:
                raise CloneError(f"value space of {sort} too large to materialize")
            if not sort.args:
                vals = list(self.base_values)
            else:
                a, b = sort.args
                vals = [
                    tuple(combo)
                    for combo in itertools.product(self.space(b), repeat=len(self.space(a)))
                ]
            self._spaces[sort] = vals
            self._index[sort] = {v: i for i, v in enumerate(vals)}
        return vals

    def value_indices(self, sort: Sort) -> dict:
        """Each value of ``sort`` mapped to its position in ``space(sort)``."""
        index = self._index.get(sort)
        if index is None:
            self.space(sort)
            index = self._index[sort]
        return index

    def cell_count(self, ctx: Context) -> int:
        n = 1
        for s in ctx:
            n *= self.space_size(s)
        return n

    def points(self, ctx: Context) -> list[tuple]:
        pts = self._points.get(ctx)
        if pts is None:
            if self.cell_count(ctx) > self.max_cells:
                raise CloneError("set-model context too large to materialize")
            pts = self._points[ctx] = list(itertools.product(*(self.space(s) for s in ctx)))
            self._point_index[ctx] = {p: i for i, p in enumerate(pts)}
        return pts

    def point_index(self, ctx: Context) -> dict:
        index = self._point_index.get(ctx)
        if index is None:
            self.points(ctx)
            index = self._point_index[ctx]
        return index

    # clone structure --------------------------------------------------------

    def var(self, ctx: Context, i: int):
        ctx.sort_at(i)
        key = (ctx, i)
        cached = self._vars.get(key)
        if cached is None:
            cached = tuple(point[i - 1] for point in self.points(ctx))
            self._vars[key] = cached
        return cached

    def _cells(self, sigma: Substitution) -> tuple:
        """For each point of sigma's source, the index of the target point
        that sigma's components send it to."""
        if not sigma.components:
            return (0,) * self.cell_count(sigma.source)
        return tuple(map(self.point_index(sigma.target).__getitem__, zip(*sigma.components)))

    def subst(self, t, sigma: Substitution):
        return tuple(map(t.__getitem__, stored_for(sigma, self, "_cells", self._cells)))

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit=None) -> list:
        size, cells = self.space_size(sort), self.cell_count(ctx)
        # size ** cells > 4096, without raising a wide sort to a huge power
        # (2 ** 13 > 4096)
        if size > 1 and (cells > 12 or size ** cells > 4096):
            raise CloneError("set-model enumeration too large; use sample_term")
        return [tuple(combo) for combo in itertools.product(self.space(sort), repeat=cells)]

    def sample_term(self, ctx: Context, sort: Sort, rng) -> tuple:
        cells = self.cell_count(ctx)
        if cells > self.max_cells or self.space_size(sort) > self.max_cells:
            raise CloneError("set-model site too large to sample")
        return tuple(map(rng.choice, itertools.repeat(self.space(sort), cells)))

    def show_term(self, t) -> str:
        return f"table{list(t)}"


class SetModelAlgebra(Algebra):
    """The set model of the lambda calculus (else NotLambdaCalculus) as an
    algebra: application is pointwise, abstraction is currying."""

    def __init__(self, presentation: SoPresentation, base_values: tuple, max_cells: int = 200_000):
        self.presentation = presentation
        self.calculus = presentation.lambda_calculus()
        self.clone = SetModelClone(presentation.signature.sort_set, base_values, max_cells)

    def interpret(self, name, sort_args, ctx, args):
        m = self.clone
        if name == self.calculus.app:
            A, _ = sort_args
            f_tab, a_tab = args
            return tuple(map(getitem, f_tab, map(m.value_indices(A).__getitem__, a_tab)))
        if name == self.calculus.abs:
            A, _ = sort_args
            (body,) = args
            # consecutive groups of width cells, one per point of ctx
            return tuple(zip(*(iter(body),) * len(m.space(A))))
        raise CloneError(f"the set model does not interpret {name}")


def set_model(
    base_values: tuple = ("tt", "ff"),
    presentation: SoPresentation | None = None,
    max_cells: int = 200_000,
) -> SetModelAlgebra:
    return SetModelAlgebra(presentation or stlc_presentation(), base_values, max_cells)


TT, FF = "tt", "ff"


class BoolModelHom(CloneHom):
    """The unique homomorphism from the boolean clone into the set model
    on {tt, ff}: true and false are the constant tables, if-then-else is
    the pointwise conditional."""

    def __init__(self, source: TmClone, model: SetModelAlgebra):
        super().__init__(source, model.clone)
        self.model = model

    def apply(self, ctx: Context, sort: Sort, t):
        m = self.model.clone
        cells = len(m.points(ctx))
        match t:
            case FoVar(index=i):
                return m.var(ctx, i)
            case FoOp(name="true"):
                return tuple(TT for _ in range(cells))
            case FoOp(name="false"):
                return tuple(FF for _ in range(cells))
            case FoOp(name="ite", sort_args=(A,), args=(c, y, z)):
                ct, yt, zt = self.apply(ctx, BASE, c), self.apply(ctx, A, y), self.apply(ctx, A, z)
                return tuple(yv if cv == TT else zv for cv, yv, zv in zip(ct, yt, zt))
        raise CloneError(f"not a boolean term: {t!r}")


def bool_model_hom(free_bool: FreeAlgebra, model: SetModelAlgebra) -> BoolModelHom:
    return BoolModelHom(free_bool.base, model)


def eval_closed(free_bool: FreeAlgebra, model: SetModelAlgebra, sort: Sort, t: FreeTerm):
    """Interpret a closed term in the set model via the fold; the result is
    the table's single cell."""
    g = bool_model_hom(free_bool, model)
    fold = fold_hom(free_bool, model, g)
    table = fold.apply(EMPTY, sort, t)
    return table[0]


# --------------------------------------------------------------------------
# Adequacy harness
# --------------------------------------------------------------------------


@dataclass
class AdequacyReport:
    bound: int
    terms: int = 0
    pairs_checked: int = 0
    counterexamples: list = field(default_factory=list)
    normal_forms: set = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "bound": self.bound,
            "terms": self.terms,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "counterexamples": [str(c) for c in self.counterexamples],
            "normal_forms": sorted(str(n) for n in self.normal_forms),
        }


def adequacy_harness(bound: int = 7, free: FreeAlgebra | None = None) -> AdequacyReport:
    """Enumerate closed boolean terms up to ``bound`` nodes and check that
    equal evaluations have equal normal forms, and that every closed
    boolean normal form is true or false."""
    free = free if free is not None else stlc_bool()
    model = set_model(presentation=free.presentation)
    report = AdequacyReport(bound)
    engine = nbe_for(free)

    groups: dict = {}
    for t in enumerate_closed_terms(free, BASE, bound):
        report.terms += 1
        value = eval_closed(free, model, BASE, t)
        nf = engine.normalize(EMPTY, BASE, t)
        report.normal_forms.add(nf)
        if nf not in (true_term(), false_term()):
            report.counterexamples.append(f"{t} normalizes outside true/false: {nf}")
        groups.setdefault(value, []).append((t, nf))

    for value, members in groups.items():
        first_term, first_nf = members[0]
        for t, nf in members[1:]:
            report.pairs_checked += 1
            if nf != first_nf:
                report.counterexamples.append(
                    f"equal evaluations, distinct normal forms: {first_term} vs {t}"
                )
    return report
