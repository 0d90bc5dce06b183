"""Second-order signatures: variable-binding operators, metavariables,
metasubstitution, and clone-based algebras.

A second-order operator declares, for each argument, how many variables it
binds and at what sorts.  Equations are stated over a metavariable context:
each metavariable is a placeholder parameterized by a context of term
arguments, instantiated by metasubstitution.  An algebra is a clone plus a
substitution-commuting interpretation of every operator that validates the
equations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .clones import Budget, Clone, CloneError, LawCheck, LawReport, ProductClone, Substitution
from .clones import TerminalClone, _capped, _subst_tuples, under_binders
from .sorts import (
    Context,
    Sort,
    SortSet,
    SortVar,
    instantiate_sort,
)


class SoSortError(CloneError):
    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(f"{message} (at path {list(path)})")
        self.path = path


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
class SoSignature:
    sort_set: SortSet
    operators: tuple[SoOpSchema, ...]
    # each arity built so far, by (name, sort arguments)
    _arities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [o.name for o in self.operators]
        if len(names) != len(set(names)):
            raise CloneError("duplicate operator names in signature")

    def schema(self, name: str) -> SoOpSchema:
        for o in self.operators:
            if o.name == name:
                return o
        raise SoSortError(f"unknown operator {name!r}")

    def arity(self, name: str, sort_args: tuple[Sort, ...]) -> SoArity:
        found = self._arities.get((name, sort_args))
        if found is None:
            found = self._arities[name, sort_args] = self.schema(name).arity(sort_args)
        return found

    def instances(self, sorts: list[Sort]) -> list[tuple[str, tuple[Sort, ...]]]:
        out = []
        for o in self.operators:
            for combo in itertools.product(sorts, repeat=len(o.params)):
                out.append((o.name, combo))
        return out


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


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SoVar:
    index: int


@dataclass(frozen=True)
class MetaApp:
    index: int
    args: tuple["SoTerm", ...]


@dataclass(frozen=True)
class SoOp:
    name: str
    sort_args: tuple[Sort, ...]
    args: tuple[tuple[Context, "SoTerm"], ...]  # (binder context, body)


SoTerm = SoVar | MetaApp | SoOp


def so_check_term(
    sig: SoSignature,
    metactx: MetaContext,
    ctx: Context,
    t: SoTerm,
    path: tuple[int, ...] = (),
) -> Sort:
    """Sort of ``t`` under the three formation rules, or raise with a path."""
    match t:
        case SoVar(index=i):
            if not 1 <= i <= len(ctx):
                raise SoSortError(f"variable x{i} out of range for {ctx}", path)
            return ctx.sort_at(i)
        case MetaApp(index=i, args=args):
            try:
                decl = metactx.decl(i)
            except IndexError:
                raise SoSortError(f"metavariable m{i} not declared", path) from None
            if len(args) != len(decl.ctx):
                raise SoSortError(
                    f"metavariable m{i} expects {len(decl.ctx)} arguments, got {len(args)}",
                    path,
                )
            for j, (a, want) in enumerate(zip(args, decl.ctx), start=1):
                got = so_check_term(sig, metactx, ctx, a, path + (j,))
                if got != want:
                    raise SoSortError(
                        f"argument {j} of m{i} has sort {got}, expected {want}", path + (j,)
                    )
            return decl.sort
        case SoOp(name=name, sort_args=sort_args, args=args):
            arity = sig.arity(name, sort_args)
            if len(args) != len(arity.binders):
                raise SoSortError(
                    f"operator {name} expects {len(arity.binders)} arguments", path
                )
            for j, ((binder, body), (want_ctx, want_sort)) in enumerate(
                zip(args, arity.binders), start=1
            ):
                if binder != want_ctx:
                    raise SoSortError(
                        f"argument {j} of {name} binds {binder}, declared {want_ctx}",
                        path + (j,),
                    )
                got = so_check_term(sig, metactx, ctx + binder, body, path + (j,))
                if got != want_sort:
                    raise SoSortError(
                        f"argument {j} of {name} has sort {got}, expected {want_sort}",
                        path + (j,),
                    )
            return arity.result
    raise SoSortError(f"not a second-order term: {t!r}", path)


def so_rename(t: SoTerm, ren) -> SoTerm:
    """Positional renaming; binders extend the renaming with identity."""
    match t:
        case SoVar(index=i):
            return SoVar(ren.apply(i))
        case MetaApp(index=i, args=args):
            return MetaApp(i, tuple(so_rename(a, ren) for a in args))
        case SoOp(name=name, sort_args=sort_args, args=args):
            return SoOp(name, sort_args, under_binders(args, ren, so_rename))
    raise SoSortError(f"not a second-order term: {t!r}")


def so_subst(t: SoTerm, sigma: Substitution) -> SoTerm:
    """Simultaneous substitution of terms for variables; under a binder the
    components are weakened and the bound variables map to themselves."""
    match t:
        case SoVar(index=j):
            return sigma.component(j)
        case MetaApp(index=i, args=args):
            return MetaApp(i, tuple(so_subst(a, sigma) for a in args))
        case SoOp(name=name, sort_args=sort_args, args=args):
            return SoOp(name, sort_args, under_binders(args, sigma, so_subst, so_rename, SoVar))
    raise SoSortError(f"not a second-order term: {t!r}")


def so_metasubst(
    t: SoTerm,
    gamma: Context,
    inst: tuple[SoTerm, ...],
    inst_decls: MetaContext,
) -> SoTerm:
    """Metasubstitution: replace metavariable j by inst[j-1], a term over
    ``gamma`` extended by its declared parameter context.

    ``t`` lives over variable context Gamma'; the result lives over
    ``gamma + Gamma'``.  Variables of t shift past ``gamma``; a metavariable
    application becomes its replacement with the parameters substituted by
    the metasubstituted arguments.
    """
    return _metasubst(t, Context(()), gamma, inst, inst_decls)


def _metasubst(
    term: SoTerm, primed: Context, gamma: Context, inst: tuple, inst_decls: MetaContext
) -> SoTerm:
    """so_metasubst of ``term``, which lives under the binders ``primed``."""
    n = len(gamma)
    match term:
        case SoVar(index=j):
            return SoVar(n + j)
        case MetaApp(index=j, args=args):
            u = inst[j - 1]
            decl = inst_decls.decl(j)
            mapped = tuple(_metasubst(a, primed, gamma, inst, inst_decls) for a in args)
            src = gamma + primed
            components = tuple(SoVar(i) for i in range(1, n + 1)) + mapped
            return so_subst(u, Substitution(src, gamma + decl.ctx, components))
        case SoOp(name=name, sort_args=sort_args, args=args):
            out = []
            for binder, body in args:
                out.append((binder, _metasubst(body, primed + binder, gamma, inst, inst_decls)))
            return SoOp(name, sort_args, tuple(out))
    raise SoSortError(f"not a second-order term: {term!r}")


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
    lhs: SoTerm
    rhs: SoTerm
    # each instance built so far, by sort arguments; shared by every caller
    _instances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def instantiate(
        self, sort_args: tuple[Sort, ...]
    ) -> tuple[MetaContext, Sort, SoTerm, SoTerm]:
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


def _so_subst_sorts(t: SoTerm, binding: dict[str, Sort]) -> SoTerm:
    match t:
        case SoVar():
            return t
        case MetaApp(index=i, args=args):
            return MetaApp(i, tuple(_so_subst_sorts(a, binding) for a in args))
        case SoOp(name=name, sort_args=sort_args, args=args):
            return SoOp(
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
    raise SoSortError(f"not a second-order term: {t!r}")


@dataclass(frozen=True)
class SoPresentation:
    name: str
    signature: SoSignature
    equations: tuple[SoEquationSchema, ...]

    def equation(self, name: str) -> SoEquationSchema:
        for e in self.equations:
            if e.name == name:
                return e
        raise SoSortError(f"unknown equation {name!r}")

    def check_well_formed(self, sorts: list[Sort]):
        for schema in self.equations:
            for combo in itertools.product(sorts, repeat=len(schema.params)):
                metactx, sort, lhs, rhs = schema.instantiate(combo)
                for side in (lhs, rhs):
                    got = so_check_term(self.signature, metactx, Context(()), side)
                    if got != sort:
                        raise SoSortError(
                            f"equation {schema.name} side has sort {got}, declared {sort}"
                        )


def stlc_presentation() -> SoPresentation:
    """Application and binding abstraction per sort pair, with beta and eta."""
    A, B = SortVar("A"), SortVar("B")
    arrow_t = Sort("=>", (A, B))
    sort_set = SortSet("ty", ("b",), ("=>",))
    ops = (
        SoOpSchema("app", ("A", "B"), (((), arrow_t), ((), A)), B),
        SoOpSchema("abs", ("A", "B"), (((A,), B),), arrow_t),
    )

    def app(f, a):
        return SoOp("app", (A, B), ((Context(()), f), (Context(()), a)))

    def abs_(body):
        return SoOp("abs", (A, B), (((Context((A,))), body),))

    beta = SoEquationSchema(
        "beta",
        ("A", "B"),
        (((A,), B), ((), A)),
        B,
        app(abs_(MetaApp(1, (SoVar(1),))), MetaApp(2, ())),
        MetaApp(1, (MetaApp(2, ()),)),
    )
    eta = SoEquationSchema(
        "eta",
        ("A", "B"),
        (((), arrow_t),),
        arrow_t,
        abs_(app(MetaApp(1, ()), SoVar(1))),
        MetaApp(1, ()),
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
    t: SoTerm,
    metactx: MetaContext,
    xi: Context,
    gamma: Context,
    sigma: tuple,
):
    """Interpret a second-order term in an algebra.

    ``t`` has metavariable context ``metactx`` and variable context ``xi``;
    ``sigma[i]`` interprets metavariable i+1 as a clone term over ``gamma``
    extended by its declared parameter context.  The result is a clone term
    over ``gamma + xi``.
    """
    clone = alg.clone
    n = len(gamma)
    full = gamma + xi
    match t:
        case SoVar(index=i):
            return clone.var(full, n + i)
        case MetaApp(index=i, args=args):
            decl = metactx.decl(i)
            head = tuple(clone.var(full, j) for j in range(1, n + 1))
            tail = tuple(interpret_term(alg, a, metactx, xi, gamma, sigma) for a in args)
            return clone.subst(sigma[i - 1], Substitution(full, gamma + decl.ctx, head + tail))
        case SoOp(name=name, sort_args=sort_args, args=args):
            interpreted = tuple(
                interpret_term(alg, body, metactx, xi + binder, gamma, sigma)
                for binder, body in args
            )
            return alg.interpret(name, sort_args, full, interpreted)
    raise SoSortError(f"not a second-order term: {t!r}")


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

