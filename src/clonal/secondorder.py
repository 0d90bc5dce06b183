"""Second-order signatures, the one term language, and clone-based algebras.

A second-order operator declares, for each argument, how many variables it
binds and at what sorts.  Free terms are variables, base-clone elements
applied to argument terms, and operators.  Equations are stated in the same
syntax over a metavariable context: metavariable i applied to its arguments
is the element ``Meta(i)`` applied to them, and the context is the base
that checks those elements.  An algebra is a clone plus a
substitution-commuting interpretation of every operator that validates the
equations.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field, replace

from .clones import Budget, Clone, CloneError, LawCheck, LawReport, ProductClone, Signature
from .clones import SortChecker, SortError, Substitution, TerminalClone, _capped, _subst_tuples
from .clones import first_difference
from .sorts import EMPTY, Context, Sort, SortSet, SortVar, instantiate_sort, stored_hash


class SoSortError(SortError):
    """An unknown operator or equation of a second-order presentation, one
    given the wrong number of sort arguments, or an ill-sorted equation."""


# --------------------------------------------------------------------------
# Arities, signatures, metavariable contexts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SoArity:
    """Binder declarations (context, sort) per argument, plus a result sort."""

    binders: tuple[tuple[Context, Sort], ...]
    result: Sort


@dataclass(frozen=True)
class SoOpSchema:
    """An operator family over sort parameters; concrete when params is empty."""

    name: str
    params: tuple[str, ...]
    binders: tuple[tuple[tuple, object], ...]  # ((sort templates...), result template)
    result: object

    def arity(self, sort_args: tuple[Sort, ...]) -> SoArity:
        if len(sort_args) != len(self.params):
            raise SoSortError(
                f"operator {self.name} expects {len(self.params)} sort arguments"
            )
        binding = dict(zip(self.params, sort_args))
        binders = tuple(
            (
                Context(tuple(instantiate_sort(s, binding) for s in ctx_templates)),
                instantiate_sort(sort_template, binding),
            )
            for ctx_templates, sort_template in self.binders
        )
        return SoArity(binders, instantiate_sort(self.result, binding))


@dataclass(frozen=True)
class SoSignature(Signature):
    """``SoOpSchema``s by name."""

    error = SoSortError

    @functools.cached_property
    def lambda_syntax(self) -> tuple[str | None, str | None]:
        """The first operators that are ``stlc_presentation()``'s application
        and abstraction up to name, or None: what juxtaposition and ``abs x.`` build."""
        return tuple(next((o.name for o in self.operators if replace(o, name=ref.name) == ref),
                          None) for ref in stlc_presentation().signature.operators)


@dataclass(frozen=True)
class MetaDecl:
    """A metavariable declaration: parameter context and result sort."""

    ctx: Context
    sort: Sort


@dataclass(frozen=True)
class MetaContext:
    entries: tuple[MetaDecl, ...] = ()

    def __len__(self):
        return len(self.entries)

    def decl(self, i: int) -> MetaDecl:
        if not 1 <= i <= len(self.entries):
            raise IndexError(f"metavariable {i} out of range")
        return self.entries[i - 1]

    def __iter__(self):
        return iter(self.entries)

    def check(self, actx: Context, e) -> Sort:
        """The sort of ``e`` as the element of an equation side: ``e`` must
        be a declared ``Meta``, applied at its own parameter context."""
        if type(e) is not Meta or not 1 <= e.index <= len(self.entries):
            raise CloneError("not a declared metavariable")
        decl = self.entries[e.index - 1]
        if decl.ctx != actx:
            raise CloneError(f"{e} is declared over {decl.ctx}")
        return decl.sort


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


class FreeSortError(SortError):
    """Ill-sorted free term; carries the path to the offending node."""


@stored_hash
@dataclass(frozen=True)
class FreeVar:
    index: int

    def __str__(self):
        return f"x{self.index}"


@stored_hash
@dataclass(frozen=True)
class CloneApp:
    """A base-clone element applied to argument terms, one per entry of its
    arity context."""

    element: object
    arity_ctx: Context
    arity_sort: Sort
    args: tuple["FreeTerm", ...]

    def __str__(self):
        if not self.args:
            return f"<{self.element}>"
        return f"<{self.element}>({', '.join(map(str, self.args))})"


@stored_hash
@dataclass(frozen=True)
class FreeOp:
    name: str
    sort_args: tuple[Sort, ...]
    args: tuple[tuple[Context, "FreeTerm"], ...]

    def __str__(self):
        rendered = []
        for binder, body in self.args:
            dot = "" if not len(binder) else f"{'.'.join('_' for _ in binder)}."
            rendered.append(f"{dot}{body}")
        return f"{self.name}({', '.join(rendered)})"


FreeTerm = FreeVar | CloneApp | FreeOp


@dataclass(frozen=True)
class Meta:
    """Metavariable ``index`` of a ``MetaContext``, as the element of a
    ``CloneApp``: the equation side ``m_i(t_1..t_n)`` is
    ``CloneApp(Meta(i), params_i, sort_i, (t_1..t_n))``."""

    index: int

    def __str__(self):
        return f"m{self.index}"


def free_check_term(base, sig, ctx: Context, t: FreeTerm) -> Sort:
    """Sort of a raw free term, or raise with the failing path.  Each base
    element is checked at its declared arity by ``base.check``: a clone's,
    or a ``MetaContext``'s for an equation side."""
    return _TermChecker(base, sig).sort(ctx, t)


class _TermChecker(SortChecker):
    """The node case of raw free terms for the shared sort checker.  Each
    (element, arity context, sort) that passed is kept and not checked
    again, up to 1,024 (then the set starts afresh, so it stays small); a
    failure is raised at each occurrence.  A free algebra keeps one."""

    error = FreeSortError

    def __init__(self, base, sig):
        self.base = base
        self.sig = sig
        self.passed: set = set()

    def element(self, actx: Context, asort: Sort, e) -> None:
        """Raise FreeSortError unless ``e`` is a base term at (actx; asort)."""
        key = (e, actx, asort)
        if key in self.passed:
            return
        try:
            got = self.base.check(actx, e)
        except CloneError as err:
            raise FreeSortError(f"element {e} over {actx}: {err}") from None
        if got != asort:
            raise FreeSortError(f"element {e} has sort {got}, declared {asort}")
        if len(self.passed) >= 1024:
            self.passed.clear()
        self.passed.add(key)

    def argument(self, t: FreeTerm, i: int) -> str:
        return f"clone argument {i}" if type(t) is CloneApp else super().argument(t, i)

    def node(self, ctx: Context, t: FreeTerm):
        if type(t) is FreeVar:
            return self.variable(ctx, t.index)
        if type(t) is CloneApp:
            actx, args = t.arity_ctx, t.args
            self.element(actx, t.arity_sort, t.element)
            if len(args) != len(actx.entries):
                raise FreeSortError(
                    f"clone application expects {len(actx)} arguments, got {len(args)}"
                )
            return t.arity_sort, tuple(zip(args, itertools.repeat(ctx), actx.entries))
        if type(t) is FreeOp:
            arity = self.sig.arity(t.name, t.sort_args)
            if len(t.args) != len(arity.binders):
                raise FreeSortError(f"operator {t.name} arity mismatch")
            return arity.result, self.bodies(t, ctx, arity.binders)
        raise FreeSortError(f"not a free term: {t!r}")


# --------------------------------------------------------------------------
# Presentations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SoEquationSchema:
    """An equation family: both sides share a metavariable context and sort
    and have empty variable context."""

    name: str
    params: tuple[str, ...]
    metactx: tuple  # tuples (ctx sort templates, sort template)
    sort: object
    lhs: FreeTerm  # over the metavariable context, as ``Meta`` elements
    rhs: FreeTerm
    # each instance built so far, by sort arguments; shared by every caller
    _instances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def instantiate(
        self, sort_args: tuple[Sort, ...]
    ) -> tuple[MetaContext, Sort, FreeTerm, FreeTerm]:
        found = self._instances.get(sort_args)
        if found is not None:
            return found
        if len(sort_args) != len(self.params):
            raise SoSortError(f"equation {self.name} expects {len(self.params)} sort arguments")
        binding = dict(zip(self.params, sort_args))
        decls = tuple(
            MetaDecl(
                Context(tuple(instantiate_sort(s, binding) for s in ctx_ts)),
                instantiate_sort(sort_t, binding),
            )
            for ctx_ts, sort_t in self.metactx
        )
        found = self._instances[sort_args] = (
            MetaContext(decls),
            instantiate_sort(self.sort, binding),
            _so_subst_sorts(self.lhs, binding),
            _so_subst_sorts(self.rhs, binding),
        )
        return found


def _so_subst_sorts(t: FreeTerm, binding: dict[str, Sort]) -> FreeTerm:
    match t:
        case FreeVar():
            return t
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return CloneApp(
                e,
                Context(tuple(instantiate_sort(s, binding) for s in actx)),
                instantiate_sort(asort, binding),
                tuple(_so_subst_sorts(a, binding) for a in args),
            )
        case FreeOp(name=name, sort_args=sort_args, args=args):
            return FreeOp(
                name,
                tuple(instantiate_sort(s, binding) for s in sort_args),
                tuple(
                    (
                        Context(tuple(instantiate_sort(s, binding) for s in binder)),
                        _so_subst_sorts(body, binding),
                    )
                    for binder, body in args
                ),
            )
    raise FreeSortError(f"not a free term: {t!r}")


class NotLambdaCalculus(CloneError):
    """A route that needs the lambda calculus got a surface that is not it."""


@dataclass(frozen=True)
class LambdaCalculus:
    """A surface's names for the lambda calculus's parts (``SoPresentation.calculus``)."""

    app: str
    abs: str
    beta: str
    eta: str


@dataclass(frozen=True)
class SoPresentation:
    """Operators and named equations.  ``calculus`` is worked out once; like a
    stored hash, it is not a field for ``==``, ``hash``, ``repr`` or pickles."""

    name: str
    signature: SoSignature
    equations: tuple[SoEquationSchema, ...]

    def __getstate__(self):
        return {"name": self.name, "signature": self.signature, "equations": self.equations}

    def equation(self, name: str) -> SoEquationSchema:
        for e in self.equations:
            if e.name == name:
                return e
        raise SoSortError(f"unknown equation {name!r}")

    @functools.cached_property
    def calculus(self) -> LambdaCalculus | None:
        """The names of the lambda calculus's parts; None if this is not it."""
        return self._calculus if type(self._calculus) is LambdaCalculus else None

    def lambda_calculus(self) -> LambdaCalculus:
        """``calculus``, or raise NotLambdaCalculus naming the first difference."""
        if type(self._calculus) is not LambdaCalculus:
            raise NotLambdaCalculus(self._calculus)
        return self._calculus

    @functools.cached_property
    def _calculus(self) -> LambdaCalculus | str:
        """The descriptor, or the first difference from ``stlc_presentation()``
        named as this one's first two operators and equations, found by
        ``clones.first_difference`` as a stock base's is."""
        ref, ours = stlc_presentation(), (self.signature.operators, self.equations)
        lam = LambdaCalculus(*(
            x.name for mine, theirs in zip(ours, (ref.signature.operators, ref.equations))
            for x in (mine + theirs[len(mine):])[:len(theirs)]))
        found = first_difference(self, _lambda_presentation(lam))
        if found is not None:
            return (f"surface {self.name} is not the lambda calculus: "
                    f"{found} differs from stlc_presentation()")
        return lam

    def check_well_formed(self, sorts: list[Sort]):
        for schema in self.equations:
            for combo in itertools.product(sorts, repeat=len(schema.params)):
                metactx, sort, lhs, rhs = schema.instantiate(combo)
                for side in (lhs, rhs):
                    got = free_check_term(metactx, self.signature, EMPTY, side)
                    if got != sort:
                        raise SoSortError(
                            f"equation {schema.name} side has sort {got}, declared {sort}"
                        )


@functools.cache
def stlc_presentation() -> SoPresentation:
    """Application and binding abstraction per sort pair, with beta and eta:
    the one reference for the lambda calculus, one object per process."""
    return _lambda_presentation(LambdaCalculus("app", "abs", "beta", "eta"))


def _lambda_presentation(lam: LambdaCalculus) -> SoPresentation:
    A, B = SortVar("A"), SortVar("B")
    arrow_t = Sort("=>", (A, B))
    sort_set = SortSet("ty", ("b",), ("=>",))
    ops = (
        SoOpSchema(lam.app, ("A", "B"), (((), arrow_t), ((), A)), B),
        SoOpSchema(lam.abs, ("A", "B"), (((A,), B),), arrow_t),
    )

    def app(f, a):
        return FreeOp(lam.app, (A, B), ((EMPTY, f), (EMPTY, a)))

    def abs_(body):
        return FreeOp(lam.abs, (A, B), ((Context((A,)), body),))

    def body(*args):  # beta's m1 : (A; B)
        return CloneApp(Meta(1), Context((A,)), B, args)

    arg = CloneApp(Meta(2), EMPTY, A, ())  # beta's m2 : (; A)
    fun = CloneApp(Meta(1), EMPTY, arrow_t, ())  # eta's m1 : (; A => B)
    beta = SoEquationSchema(
        lam.beta, ("A", "B"), (((A,), B), ((), A)), B,
        app(abs_(body(FreeVar(1))), arg), body(arg),
    )
    eta = SoEquationSchema(
        lam.eta, ("A", "B"), (((), arrow_t),), arrow_t, abs_(app(fun, FreeVar(1))), fun,
    )
    return SoPresentation("stlc", SoSignature(sort_set, ops), (beta, eta))


# --------------------------------------------------------------------------
# Algebras
# --------------------------------------------------------------------------


class Algebra:
    """A clone together with an interpretation of each operator."""

    clone: Clone
    presentation: SoPresentation

    def interpret(self, name: str, sort_args: tuple[Sort, ...], ctx: Context, args: tuple):
        """Interpret an operator at ``ctx``: args[i] is a clone term over
        ctx extended by the i-th binder context."""
        raise NotImplementedError


class TerminalAlgebra(Algebra):
    def __init__(self, presentation: SoPresentation):
        self.presentation = presentation
        self.clone = TerminalClone(presentation.signature.sort_set)

    def interpret(self, name, sort_args, ctx, args):
        return TerminalClone.POINT


class AlgebraProduct(Algebra):
    def __init__(self, left: Algebra, right: Algebra):
        if left.presentation is not right.presentation:
            raise CloneError("product of algebras for different presentations")
        self.presentation = left.presentation
        self.left = left
        self.right = right
        self.clone = ProductClone(left.clone, right.clone)

    def interpret(self, name, sort_args, ctx, args):
        return (
            self.left.interpret(name, sort_args, ctx, tuple(a[0] for a in args)),
            self.right.interpret(name, sort_args, ctx, tuple(a[1] for a in args)),
        )


def algebra_terminal(presentation: SoPresentation) -> TerminalAlgebra:
    return TerminalAlgebra(presentation)


def algebra_product(left: Algebra, right: Algebra) -> AlgebraProduct:
    return AlgebraProduct(left, right)


def interpret_term(
    alg: Algebra,
    t: FreeTerm,
    metactx: MetaContext,
    xi: Context,
    gamma: Context,
    sigma: tuple,
):
    """Interpret a term over a metavariable context (an equation side) in an
    algebra.

    ``t`` has metavariable context ``metactx`` and variable context ``xi``;
    ``sigma[i]`` interprets metavariable i+1 as a clone term over ``gamma``
    extended by its declared parameter context.  The result is a clone term
    over ``gamma + xi``.
    """
    clone = alg.clone
    n = len(gamma)
    full = gamma + xi
    match t:
        case FreeVar(index=i):
            return clone.var(full, n + i)
        case CloneApp(element=Meta(index=i), args=args):
            decl = metactx.decl(i)
            head = tuple(clone.var(full, j) for j in range(1, n + 1))
            tail = tuple(interpret_term(alg, a, metactx, xi, gamma, sigma) for a in args)
            return clone.subst(sigma[i - 1], Substitution(full, gamma + decl.ctx, head + tail))
        case FreeOp(name=name, sort_args=sort_args, args=args):
            interpreted = tuple(
                interpret_term(alg, body, metactx, xi + binder, gamma, sigma)
                for binder, body in args
            )
            return alg.interpret(name, sort_args, full, interpreted)
    raise FreeSortError(f"not an equation side: {t!r}")


# --------------------------------------------------------------------------
# Algebra checking
# --------------------------------------------------------------------------


def check_algebra(alg: Algebra, budget: Budget = Budget(), subject: str = "algebra"):
    """Verify substitution-commutation and the presentation's equations on
    bounded enumerations.  Failures are reported with witnesses.

    Each site's terms come from the clone's enumerate_terms; where that
    raises CloneError (the site is too large), from the clone's
    ``sample_term``, seeded by ``budget.seed``, if it has one.  The
    substitutions from each xi to each gamma, sampled or not, and their lifts
    under each binder are made once per call and shared by every operator.
    """
    pres = alg.presentation
    sig = pres.signature
    clone = alg.clone
    sorts = sig.sort_set.sorts_up_to_height(budget.max_sort_height)
    contexts = sig.sort_set.contexts_up_to(budget.max_context_len, sorts)
    report = LawReport(subject)
    rng = random.Random(budget.seed)
    enumerated: dict = {}  # (ctx, sort) -> the clone's enumeration, this call only

    def site_terms(ctx, sort, law):
        try:
            items = enumerated.get((ctx, sort))
            if items is None:
                items = enumerated[ctx, sort] = clone.enumerate_terms(
                    ctx, sort, budget.max_depth
                )
            return _capped(items, budget.max_terms, law)
        except CloneError:
            # site too large to enumerate: fall back to seeded sampling;
            # a site too large even to sample is skipped, recorded as capped
            sample = getattr(clone, "sample_term", None)
            if sample is None:
                raise
            law.capped = True
            try:
                return [sample(ctx, sort, rng) for _ in range(budget.max_terms)]
            except CloneError:
                return []

    comm = LawCheck("operator interpretation commutes with substitution")
    substs: dict = {}  # (xi, gamma) -> the substitutions from xi to gamma, this call only
    lifts: dict = {}  # (xi, gamma, binder) -> each of them lifted under binder, or _FAILED

    def lifted(xi, gamma, binder):
        found = lifts.get((xi, gamma, binder))
        if found is None:
            found = lifts[xi, gamma, binder] = [
                _attempt(lambda: clone.lift(sub, binder)) for sub in substs[xi, gamma]
            ]
        return found

    for name, sort_args in sig.instances(sorts):
        arity = sig.arity(name, sort_args)
        for gamma in contexts:
            arg_pools = [
                site_terms(gamma + binder_ctx, binder_sort, comm)
                for binder_ctx, binder_sort in arity.binders
            ]
            tuples = list(itertools.product(*arg_pools))
            tuples = _capped(tuples, budget.max_tuples, comm)
            # Each tuple's interpretation at gamma is computed once here, and
            # each sub's lift under each binder once per call; a CloneError is
            # kept as _FAILED and skips, and caps, every pair that needs the
            # result, as if raised there.
            interpreted: dict = {}  # tuple index -> its interpretation at gamma
            for xi in contexts:
                sigmas = substs.get((xi, gamma))
                if sigmas is None:
                    sigmas = substs[xi, gamma] = _subst_tuples(site_terms, xi, gamma, budget, comm)
                columns = [lifted(xi, gamma, b) for b, _ in arity.binders]
                rows = (
                    [_FAILED if _FAILED in row else row for row in zip(*columns)]
                    if columns else [()] * len(sigmas)
                )
                for k, args in enumerate(tuples):
                    for sub, row in zip(sigmas, rows):
                        if k not in interpreted:
                            interpreted[k] = _attempt(
                                lambda: alg.interpret(name, sort_args, gamma, args)
                            )
                        if interpreted[k] is _FAILED or row is _FAILED:
                            comm.capped = True  # site beyond the clone's bounds
                            continue
                        try:
                            lhs = clone.subst(interpreted[k], sub)
                            lifted_args = tuple(
                                clone.subst(a, lift) for a, lift in zip(args, row)
                            )
                            rhs = alg.interpret(name, sort_args, xi, lifted_args)
                        except CloneError:
                            comm.capped = True  # site beyond the clone's bounds
                            continue
                        comm.checked += 1
                        if not clone.term_eq(xi, arity.result, lhs, rhs):
                            comm.fail(
                                f"{name}{list(sort_args)} at {gamma} under {sub}: "
                                f"{clone.show_term(lhs)} != {clone.show_term(rhs)}"
                            )
    report.laws.append(comm)

    eq_law = LawCheck("equations hold under all enumerated instantiations")
    for schema in pres.equations:
        for combo in itertools.product(sorts, repeat=len(schema.params)):
            metactx, sort, lhs, rhs = schema.instantiate(combo)
            for gamma in contexts:
                pools = [
                    site_terms(gamma + decl.ctx, decl.sort, eq_law) for decl in metactx
                ]
                tuples = _capped(list(itertools.product(*pools)), budget.max_tuples, eq_law)
                for sigma in tuples:
                    try:
                        lv = interpret_term(alg, lhs, metactx, Context(()), gamma, sigma)
                        rv = interpret_term(alg, rhs, metactx, Context(()), gamma, sigma)
                    except CloneError:
                        eq_law.capped = True
                        continue
                    eq_law.checked += 1
                    if not clone.term_eq(gamma, sort, lv, rv):
                        eq_law.fail(
                            f"{schema.name}{list(combo)} at {gamma}: "
                            f"{clone.show_term(lv)} != {clone.show_term(rv)}"
                        )
    report.laws.append(eq_law)
    return report


_FAILED = object()


def _attempt(compute):
    """``compute()``, or ``_FAILED`` if it raises CloneError."""
    try:
        return compute()
    except CloneError:
        return _FAILED

