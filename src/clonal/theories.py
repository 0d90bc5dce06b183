"""Base theories: one descriptor per base clone of the free-algebra construction.

A ``BaseTheory`` holds what the library reads about a base: its first-order
presentation (None for variables), the clone with its equality, the NbE base
domain, the set-model homomorphism (booleans only), and the certified rewrite
system whose normal forms ``clonal normalize`` prints for pure base terms.
Clones built here carry their descriptor as ``clone.theory``.  The stock
theories are variables, booleans, and global state over value labels; a
bundle's ``strategy base <tier>`` line picks a descriptor from ``TIERS``.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Callable

from .clones import Clone, CloneError, VariableClone, first_difference
from .firstorder import TY, CanonicalEq, FoPresentation, RewriteEq, RewriteSystem, SearchEq, TmClone
from .firstorder import bool_presentation, global_state_presentation, gs_canonical_form
from .firstorder import gs_rewrite_system
from .freealgebra import FreeAlgebra
from .nbe import BoolDomain, GsDomain, VariableDomain
from .secondorder import SoPresentation, stlc_presentation
from .sorts import SortSet


class PresentationMismatch(CloneError):
    """A stock tier was selected for a presentation that is not the library's."""


@dataclass(frozen=True, eq=False)
class BaseTheory:
    """What the library reads about one base clone (see the module docstring)."""

    tier: str  # names the descriptor in messages; never dispatched on
    presentation: FoPresentation | None
    clone: Clone
    domain: object = None  # NbE base domain; None when NbE does not apply
    model_hom: Callable | None = None  # set-model algebra -> CloneHom out of ``clone``
    build_system: Callable[[], RewriteSystem] | None = None

    @functools.cached_property
    def rewrite_system(self) -> RewriteSystem | None:
        """The certified base normal form, built on first use."""
        return self.build_system() if self.build_system is not None else None


def _attach(theory: BaseTheory) -> BaseTheory:
    theory.clone.theory = theory  # a VariableClone reads its theory off its sorts instead
    return theory


def free_algebra(theory: BaseTheory, surface: SoPresentation | None = None) -> FreeAlgebra:
    """The free algebra of ``surface`` (default: the lambda calculus) on the
    theory's base clone, with equality decided by normalization."""
    return FreeAlgebra(surface or stlc_presentation(), theory.clone)


@functools.cache
def variables(sort_set: SortSet = TY) -> BaseTheory:
    """The clone of variables over ``sort_set``: its free algebra is the pure calculus."""
    return BaseTheory("variables", None, VariableClone(sort_set), VariableDomain())


def boolean_theory(presentation: FoPresentation) -> BaseTheory:
    """true, false and if-then-else, decided by their two oriented equations."""
    system = RewriteSystem(presentation)
    clone = TmClone(presentation, RewriteEq(system))

    def model_hom(model):
        from .stlc import BoolModelHom  # stlc builds its stock algebras from here

        return BoolModelHom(clone, model)

    return _attach(
        BaseTheory("boolean", presentation, clone, BoolDomain(), model_hom, lambda: system)
    )


_gs_system = functools.cache(gs_rewrite_system)


def state_theory(presentation: FoPresentation, values: tuple) -> BaseTheory:
    """Global state over ``values``, decided by state tables; its normal
    forms come from the certified completion, built once per ``values``."""
    clone = TmClone(presentation, CanonicalEq(functools.partial(gs_canonical_form, values)))
    return _attach(BaseTheory(
        "state_table", presentation, clone, GsDomain(values),
        build_system=functools.partial(_gs_system, values),
    ))


@functools.cache
def booleans() -> BaseTheory:
    """The stock boolean theory; its clone is ``bool_clone()``."""
    return boolean_theory(bool_presentation())


@functools.cache
def global_state(values: tuple) -> BaseTheory:
    """The stock global-state theory over ``values``; its clone is ``gs_clone(values)``."""
    return state_theory(global_state_presentation(values), values)


def _check_stock(tier: str, got: FoPresentation, want: FoPresentation) -> None:
    found = first_difference(got, want)
    if found is not None:
        raise PresentationMismatch(f"strategy {tier}: {found} differs from the library presentation")


def _stock_boolean(presentation: FoPresentation) -> BaseTheory:
    _check_stock("boolean", presentation, bool_presentation())
    return boolean_theory(presentation)


def _state_values(presentation: FoPresentation) -> tuple:
    """The values of the global-state presentation ``presentation`` is."""
    ops = presentation.signature.operators
    values = tuple(o.name.removeprefix("put_") for o in ops if o.name.startswith("put_"))
    if not values:
        raise PresentationMismatch("strategy state_table: no put operators")
    _check_stock("state_table", presentation, global_state_presentation(values))
    return values


def _stock_state(presentation: FoPresentation) -> BaseTheory:
    return state_theory(presentation, _state_values(presentation))


def stock_theory(presentation: FoPresentation) -> BaseTheory | None:
    """The stock theory (``booleans()`` or ``global_state(values)``) whose
    operators and equations ``presentation`` has, as the stock tiers check
    them; None when it has neither's."""
    with contextlib.suppress(PresentationMismatch):
        _check_stock("boolean", presentation, bool_presentation())
        return booleans()
    with contextlib.suppress(PresentationMismatch):
        return global_state(_state_values(presentation))
    return None


def _generic(tier: str, strategy: Callable) -> Callable[[FoPresentation], BaseTheory]:
    """A builder whose clone decides equality by ``strategy(system)``,
    ``system`` giving the presentation's one rewrite system, built on first use."""

    def build(presentation: FoPresentation) -> BaseTheory:
        system = functools.cache(functools.partial(RewriteSystem, presentation))
        clone = TmClone(presentation, strategy(system))
        return _attach(BaseTheory(tier, presentation, clone, build_system=system))

    return build


# tier -> builder of the descriptor for a parsed base presentation
TIERS: dict[str, Callable[[FoPresentation], BaseTheory]] = {
    "structural": _generic("structural", lambda system: None),
    "rewrite": _generic("rewrite", lambda system: RewriteEq(system())),
    "search": _generic("search", lambda system: SearchEq()),
    "boolean": _stock_boolean,
    "state_table": _stock_state,
}
