"""Abstract clones: term families with variables and simultaneous substitution.

A clone assigns to each (context; sort) a set of terms, with variable
projections and a substitution operation subject to three laws:

  1. var_i[sigma] = sigma_i
  2. t[var] = t
  3. t[sigma'_1[sigma], ..., sigma'_m[sigma]] = (t[sigma'])[sigma]

Substitutions are tuples of terms; a substitution from Gamma to Delta has
one component per entry of Delta, each a term in context Gamma.  Renamings
are the substitutions of the clone of variables, kept as a separate type
so renaming can avoid building full substitutions.

Trust boundary: the public ``Substitution(...)`` and ``Renaming(...)``
constructors validate and raise ``CloneError`` on a malformed map.  The
unchecked paths are the lift in ``under_binders`` (and ``weakening``) and
the product clone's split: they build maps that are well formed by
construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .sorts import EMPTY, Context, Sort, SortSet, stored_hash


class CloneError(Exception):
    """Sort or arity mismatch in a clone operation."""


@stored_hash
@dataclass(frozen=True)
class Substitution:
    """A tuple of terms in ``source``, one per entry of ``target``.  Only the
    fields are compared, hashed and pickled: a product clone's stored split
    (``ProductClone._split``) rides along outside them."""

    source: Context
    target: Context
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(self.target):
            raise CloneError(
                f"substitution has {len(self.components)} components "
                f"for a target context of length {len(self.target)}"
            )

    def component(self, i: int):
        return self.components[i - 1]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class Renaming:
    """A sort-preserving map of positions: entry i of ``target`` is sent to
    position ``map[i-1]`` of ``source``.

    A renaming from Gamma to Delta is exactly a substitution in the clone of
    variables, acting on terms over Delta to give terms over Gamma.
    """

    source: Context
    target: Context
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != len(self.target):
            raise CloneError("renaming map length does not match its target context")
        for i, j in enumerate(self.map, start=1):
            if not 1 <= j <= len(self.source):
                raise CloneError(f"renaming sends position {i} out of range ({j})")
            if self.source.sort_at(j) != self.target.sort_at(i):
                raise CloneError(
                    f"renaming is not sort-preserving at position {i}: "
                    f"{self.source.sort_at(j)} vs {self.target.sort_at(i)}"
                )

    def apply(self, i: int) -> int:
        return self.map[i - 1]

    def compose(self, other: "Renaming") -> "Renaming":
        """self after other: components of self pushed through other."""
        if other.target != self.source:
            raise CloneError("renaming composition: contexts do not line up")
        return Renaming(other.source, self.target, tuple(other.map[j - 1] for j in self.map))

    def as_substitution(self, clone: "Clone") -> Substitution:
        return Substitution(
            self.source, self.target,
            tuple(clone.var(self.source, j) for j in self.map),
        )


def identity_renaming(ctx: Context) -> Renaming:
    return Renaming(ctx, ctx, tuple(range(1, len(ctx) + 1)))


def _unchecked(cls, source: Context, target: Context, entries: tuple):
    """``cls(source, target, entries)`` without its checks, for a Renaming or
    Substitution that is well formed by construction."""
    m = object.__new__(cls)
    vars(m).update(zip(cls.__match_args__, (source, target, entries)))
    return m


def weakening(ctx: Context, extra: Context) -> Renaming:
    """The renaming (1, ..., n) from ``ctx + extra`` to ``ctx``."""
    return _unchecked(Renaming, ctx + extra, ctx, tuple(range(1, len(ctx) + 1)))


def under_binders(args: tuple, m, go, rename=None, var=None) -> tuple:
    """``((binder, go(body, m')), ...)`` for the (binder, body) arguments of a
    syntax node, m' being the Renaming or Substitution ``m`` lifted under
    ``binder``: bound positions go to themselves, and a substitution's
    components are weakened by ``rename`` and followed by the fresh
    variables ``var(i)``.  Each distinct binder lifts once, an empty one never.
    """
    lifted = {EMPTY: m}
    out = []
    for binder, body in args:
        sub = lifted.get(binder)
        if sub is None:
            n = len(m.source)
            fresh = range(n + 1, n + len(binder) + 1)
            if var is None:
                entries = m.map + tuple(fresh)
            else:
                wk = weakening(m.source, binder)
                entries = tuple(rename(c, wk) for c in m.components) + tuple(map(var, fresh))
            sub = _unchecked(type(m), m.source + binder, m.target + binder, entries)
            lifted[binder] = sub
        out.append((binder, go(body, sub)))
    return tuple(out)


class Clone:
    """Base interface for clones.  Terms are opaque values per instance."""

    sort_set: SortSet
    theory = None  # the clonal.theories.BaseTheory this clone belongs to, if any

    def var(self, ctx: Context, i: int):
        raise NotImplementedError

    def subst(self, t, sigma: Substitution):
        """Apply a substitution to a term over ``sigma.target``."""
        raise NotImplementedError

    def term_eq(self, ctx: Context, sort: Sort, t, u) -> bool:
        return t == u

    def canonical(self, ctx: Context, sort: Sort, t):
        """A representative of ``t``'s class; ``t`` itself unless the clone
        has a canonical form."""
        return t

    def check(self, ctx: Context, t) -> Sort:
        """The sort of ``t`` over ``ctx``, or raise CloneError if ``t`` is
        not a term there."""
        raise NotImplementedError

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit=None) -> list:
        """Deterministic, duplicate-free enumeration of terms up to ``depth``.
        A clone may use ``limit`` to cap its intermediate pools; callers cap
        the result themselves."""
        raise NotImplementedError

    def show_term(self, t) -> str:
        return str(t)

    # Derived operations -------------------------------------------------

    def identity(self, ctx: Context) -> Substitution:
        return Substitution(ctx, ctx, tuple(self.var(ctx, i) for i in range(1, len(ctx) + 1)))

    def rename(self, t, ren: Renaming):
        """t[triangleright ren]: the term with positions remapped."""
        return self.subst(t, ren.as_substitution(self))

    def compose(self, outer: Substitution, inner: Substitution) -> Substitution:
        """outer o inner, componentwise outer_i[inner]."""
        if inner.target != outer.source:
            raise CloneError(
                f"composition mismatch: inner target {inner.target} "
                f"!= outer source {outer.source}"
            )
        return Substitution(
            inner.source, outer.target,
            tuple(self.subst(c, inner) for c in outer.components),
        )

    def lift(self, sigma: Substitution, extra: Context) -> Substitution:
        """Lift Gamma->Delta to (Gamma,extra)->(Delta,extra).

        Existing components are weakened; the extra entries map to the fresh
        trailing variables.
        """
        n = len(sigma.source)
        src = sigma.source + extra
        weakened = ()
        if sigma.components:  # building wk needs src's variables, which a clone may refuse
            wk = weakening(sigma.source, extra).as_substitution(self)
            weakened = tuple(self.subst(c, wk) for c in sigma.components)
        fresh = tuple(self.var(src, n + j) for j in range(1, len(extra) + 1))
        return Substitution(src, sigma.target + extra, weakened + fresh)


def compose_subst(clone: Clone, outer: Substitution, inner: Substitution) -> Substitution:
    return clone.compose(outer, inner)


def lift_subst(clone: Clone, sigma: Substitution, extra: Context) -> Substitution:
    return clone.lift(sigma, extra)


# --------------------------------------------------------------------------
# Stock clones
# --------------------------------------------------------------------------


class VariableClone(Clone):
    """The clone of variables: terms at (Gamma; A) are positions i with
    Gamma[i] = A, variables are the positions themselves, and substitution
    is lookup."""

    def __init__(self, sort_set: SortSet):
        self.sort_set = sort_set

    def var(self, ctx: Context, i: int) -> int:
        ctx.sort_at(i)
        return i

    def subst(self, t: int, sigma: Substitution):
        return sigma.components[t - 1]

    def check(self, ctx: Context, t) -> Sort:
        if type(t) is not int or not 1 <= t <= len(ctx):
            raise CloneError(f"position {t!r} out of range for {ctx}")
        return ctx.sort_at(t)

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit=None) -> list[int]:
        return [i for i in range(1, len(ctx) + 1) if ctx.sort_at(i) == sort]

    @property
    def theory(self):
        """The theory of variables over this clone's sorts."""
        from .theories import variables

        return variables(self.sort_set)

    def show_term(self, t) -> str:
        return f"#{t}"


class TerminalClone(Clone):
    """The clone in which every set of terms is a singleton."""

    POINT = "*"

    def __init__(self, sort_set: SortSet):
        self.sort_set = sort_set

    def var(self, ctx: Context, i: int):
        ctx.sort_at(i)
        return self.POINT

    def subst(self, t, sigma: Substitution):
        return self.POINT

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit=None) -> list:
        return [self.POINT]


class ProductClone(Clone):
    """Pointwise product of two clones over the same sort set."""

    def __init__(self, left: Clone, right: Clone):
        if left.sort_set != right.sort_set:
            raise CloneError("product of clones over different sort sets")
        self.sort_set = left.sort_set
        self.left = left
        self.right = right

    def var(self, ctx: Context, i: int):
        return (self.left.var(ctx, i), self.right.var(ctx, i))

    def _split(self, sigma: Substitution) -> tuple[Substitution, Substitution]:
        """sigma's left and right halves, built once and stored on sigma."""
        halves = vars(sigma).get("_split")
        if halves is None:
            src, tgt, cs = sigma.source, sigma.target, sigma.components
            halves = vars(sigma)["_split"] = (
                _unchecked(Substitution, src, tgt, tuple(c[0] for c in cs)),
                _unchecked(Substitution, src, tgt, tuple(c[1] for c in cs)),
            )
        return halves

    def subst(self, t, sigma: Substitution):
        ls, rs = self._split(sigma)
        return (self.left.subst(t[0], ls), self.right.subst(t[1], rs))

    def term_eq(self, ctx, sort, t, u) -> bool:
        return self.left.term_eq(ctx, sort, t[0], u[0]) and self.right.term_eq(ctx, sort, t[1], u[1])

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit=None) -> list:
        return [
            (a, b)
            for a in self.left.enumerate_terms(ctx, sort, depth)
            for b in self.right.enumerate_terms(ctx, sort, depth)
        ]

    def show_term(self, t) -> str:
        return f"({self.left.show_term(t[0])}, {self.right.show_term(t[1])})"


class ContextExtensionClone(Clone):
    """The clone <Xi>X with terms (<Xi>X)(Gamma; A) = X(Gamma,Xi; A).

    Substitution pads the given components with the trailing Xi variables.
    """

    def __init__(self, base: Clone, extra: Context):
        self.sort_set = base.sort_set
        self.base = base
        self.extra = extra

    def var(self, ctx: Context, i: int):
        return self.base.var(ctx + self.extra, i)

    def subst(self, t, sigma: Substitution):
        src = sigma.source + self.extra
        n = len(sigma.source)
        pad = tuple(self.base.var(src, n + j) for j in range(1, len(self.extra) + 1))
        full = Substitution(src, sigma.target + self.extra, sigma.components + pad)
        return self.base.subst(t, full)

    def term_eq(self, ctx, sort, t, u) -> bool:
        return self.base.term_eq(ctx + self.extra, sort, t, u)

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit=None) -> list:
        return self.base.enumerate_terms(ctx + self.extra, sort, depth)

    def show_term(self, t) -> str:
        return self.base.show_term(t)


def context_extension(base: Clone, extra: Context) -> ContextExtensionClone:
    return ContextExtensionClone(base, extra)


# --------------------------------------------------------------------------
# Homomorphisms
# --------------------------------------------------------------------------


class CloneHom:
    """A context- and sort-indexed map between clones preserving variables
    and substitution."""

    def __init__(self, source: Clone, target: Clone):
        if source.sort_set != target.sort_set:
            raise CloneError("homomorphism between clones over different sort sets")
        self.source = source
        self.target = target

    def apply(self, ctx: Context, sort: Sort, t):
        raise NotImplementedError

    def on_subst(self, sigma: Substitution) -> Substitution:
        return Substitution(
            sigma.source, sigma.target,
            tuple(
                self.apply(sigma.source, sigma.target.sort_at(i), c)
                for i, c in enumerate(sigma.components, start=1)
            ),
        )


class FuncHom(CloneHom):
    """A homomorphism given by a plain function (ctx, sort, term) -> term."""

    def __init__(self, source: Clone, target: Clone, fn):
        super().__init__(source, target)
        self.fn = fn

    def apply(self, ctx, sort, t):
        return self.fn(ctx, sort, t)


class InitialHom(CloneHom):
    """The unique homomorphism out of the clone of variables: i |-> var_i."""

    def __init__(self, target: Clone):
        super().__init__(VariableClone(target.sort_set), target)

    def apply(self, ctx: Context, sort: Sort, t: int):
        return self.target.var(ctx, t)


def initial_hom(target: Clone) -> InitialHom:
    return InitialHom(target)


class WeakenHom(CloneHom):
    """Weakening X -> <Xi>X, sending t to t[wk]."""

    def __init__(self, base: Clone, extra: Context):
        super().__init__(base, ContextExtensionClone(base, extra))
        self.extra = extra

    def apply(self, ctx: Context, sort: Sort, t):
        return self.source.rename(t, weakening(ctx, self.extra))


def weaken_hom(base: Clone, extra: Context) -> WeakenHom:
    return WeakenHom(base, extra)


class ExtendedHom(CloneHom):
    """The unique homomorphism <Xi>X -> Y induced by f : X -> Y and a closed
    substitution sigma in Y for the Xi entries: g(t) = f(t)[var, sigma o wk]."""

    def __init__(self, f: CloneHom, extra: Context, sigma: Substitution):
        if len(sigma.source) != 0 or sigma.target != extra:
            raise CloneError("extension data must be a closed substitution for the extra context")
        super().__init__(ContextExtensionClone(f.source, extra), f.target)
        self.f = f
        self.extra = extra
        self.sigma = sigma

    def apply(self, ctx: Context, sort: Sort, t):
        y = self.target
        full = ctx + self.extra
        mapped = self.f.apply(full, sort, t)
        wk = weakening(Context(()), ctx)
        shifted = tuple(y.rename(c, wk) for c in self.sigma.components)
        var_part = tuple(y.var(ctx, i) for i in range(1, len(ctx) + 1))
        return y.subst(mapped, Substitution(ctx, full, var_part + shifted))


def extend_context_hom(f: CloneHom, extra: Context, sigma: Substitution) -> ExtendedHom:
    return ExtendedHom(f, extra, sigma)


class ProjectionHom(CloneHom):
    def __init__(self, product: ProductClone, which: int):
        super().__init__(product, product.left if which == 0 else product.right)
        self.which = which

    def apply(self, ctx, sort, t):
        return t[self.which]


class PairingHom(CloneHom):
    """<f, g> : X -> Y1 x Y2 from f : X -> Y1 and g : X -> Y2."""

    def __init__(self, f: CloneHom, g: CloneHom):
        if f.source is not g.source:
            raise CloneError("pairing requires homomorphisms from the same clone")
        super().__init__(f.source, ProductClone(f.target, g.target))
        self.f = f
        self.g = g

    def apply(self, ctx, sort, t):
        return (self.f.apply(ctx, sort, t), self.g.apply(ctx, sort, t))


# --------------------------------------------------------------------------
# Law checking
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Enumeration bounds for desk-scale law and property checks."""

    max_context_len: int = 3
    max_depth: int = 4
    max_sort_height: int = 1
    max_terms: int = 24
    max_tuples: int = 16
    max_context_triples: int = 200
    seed: int = 0


@dataclass
class LawCheck:
    name: str
    ok: bool = True
    checked: int = 0
    capped: bool = False
    counterexample: str | None = None

    def fail(self, message: str):
        if self.ok:
            self.ok = False
            self.counterexample = message


@dataclass
class LawReport:
    subject: str
    laws: list[LawCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(law.ok for law in self.laws)

    def summary(self) -> str:
        lines = [f"law report for {self.subject}:"]
        for law in self.laws:
            status = "ok" if law.ok else f"FAIL ({law.counterexample})"
            cap = ", capped" if law.capped else ""
            lines.append(f"  {law.name}: {status} [{law.checked} checks{cap}]")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "subject": self.subject,
            "ok": self.ok,
            "laws": [
                {
                    "name": law.name,
                    "ok": law.ok,
                    "checked": law.checked,
                    "capped": law.capped,
                    "counterexample": law.counterexample,
                }
                for law in self.laws
            ],
        }


def _capped(items: list, cap: int, law: LawCheck) -> list:
    if cap is not None and len(items) > cap:
        law.capped = True
        return items[:cap]
    return items


def _pools(clone: Clone, budget: Budget):
    """``terms(ctx, sort, law)``: the clone's enumeration at (ctx; sort),
    made once per call of a law harness and capped for each law."""
    enumerated: dict = {}

    def terms(ctx, sort, law):
        items = enumerated.get((ctx, sort))
        if items is None:
            items = enumerated[ctx, sort] = clone.enumerate_terms(
                ctx, sort, budget.max_depth, limit=budget.max_terms + 1
            )
        return _capped(items, budget.max_terms, law)

    return terms


def _subst_tuples(terms, src: Context, tgt: Context, budget: Budget, law: LawCheck) -> list[Substitution]:
    """Substitutions from ``src`` to ``tgt`` whose components come from the
    pools ``terms(src, sort, law)``, at most ``budget.max_tuples`` of them."""
    pools = [terms(src, tgt.sort_at(i), law) for i in range(1, len(tgt) + 1)]
    out = []
    for combo in itertools.product(*pools):
        out.append(Substitution(src, tgt, combo))
        if len(out) >= budget.max_tuples:
            law.capped = True
            break
    return out


def check_clone_laws(
    clone: Clone,
    budget: Budget = Budget(),
    sorts: list[Sort] | None = None,
    subject: str = "clone",
) -> LawReport:
    """Check the three clone laws on bounded enumerations.

    Failures carry a counterexample description; they are data, not errors.
    """
    if sorts is None:
        sorts = clone.sort_set.sorts_up_to_height(budget.max_sort_height)
    contexts = clone.sort_set.contexts_up_to(budget.max_context_len, sorts)
    report = LawReport(subject)
    terms = _pools(clone, budget)

    law1 = LawCheck("law 1: var_i[sigma] = sigma_i")
    for src in contexts:
        for tgt in contexts:
            if len(tgt) == 0:
                continue
            for sigma in _subst_tuples(terms, src, tgt, budget, law1):
                for i in range(1, len(tgt) + 1):
                    lhs = clone.subst(clone.var(tgt, i), sigma)
                    law1.checked += 1
                    if not clone.term_eq(src, tgt.sort_at(i), lhs, sigma.component(i)):
                        law1.fail(
                            f"var_{i}[{sigma}] = {clone.show_term(lhs)} "
                            f"!= {clone.show_term(sigma.component(i))} at {src}"
                        )
    report.laws.append(law1)

    law2 = LawCheck("law 2: t[var] = t")
    for ctx in contexts:
        for sort in sorts:
            for t in terms(ctx, sort, law2):
                law2.checked += 1
                res = clone.subst(t, clone.identity(ctx))
                if not clone.term_eq(ctx, sort, res, t):
                    law2.fail(f"{clone.show_term(t)}[var] = {clone.show_term(res)} at {ctx}")
    report.laws.append(law2)

    law3 = LawCheck("law 3: t[sigma' o sigma] = (t[sigma'])[sigma]")
    triples = list(itertools.product(contexts, contexts, contexts))
    if len(triples) > budget.max_context_triples:
        law3.capped = True
        stride = len(triples) // budget.max_context_triples + 1
        triples = triples[::stride][: budget.max_context_triples]
    for xi, delta, gamma in triples:
        for sort in sorts:
            ts = terms(xi, sort, law3)
            if not ts:
                continue
            outers = _subst_tuples(terms, delta, xi, budget, law3)
            inners = _subst_tuples(terms, gamma, delta, budget, law3)
            if not inners:
                continue
            for t in ts:
                for outer in outers:
                    mid = clone.subst(t, outer)  # the same for every inner
                    for inner in inners:
                        law3.checked += 1
                        lhs = clone.subst(t, clone.compose(outer, inner))
                        rhs = clone.subst(mid, inner)
                        if not clone.term_eq(gamma, sort, lhs, rhs):
                            law3.fail(
                                f"t={clone.show_term(t)} sigma'={outer} sigma={inner}: "
                                f"{clone.show_term(lhs)} != {clone.show_term(rhs)}"
                            )
    report.laws.append(law3)
    return report


def check_clone_hom(hom: CloneHom, budget: Budget = Budget(), subject: str = "hom") -> LawReport:
    """Check variable and substitution preservation on bounded enumerations."""
    src = hom.source
    tgt = hom.target
    sorts = src.sort_set.sorts_up_to_height(budget.max_sort_height)
    contexts = src.sort_set.contexts_up_to(budget.max_context_len, sorts)
    report = LawReport(subject)
    terms = _pools(src, budget)

    vars_law = LawCheck("hom preserves variables")
    for ctx in contexts:
        for i in range(1, len(ctx) + 1):
            vars_law.checked += 1
            got = hom.apply(ctx, ctx.sort_at(i), src.var(ctx, i))
            want = tgt.var(ctx, i)
            if not tgt.term_eq(ctx, ctx.sort_at(i), got, want):
                vars_law.fail(f"f(var_{i}) = {tgt.show_term(got)} != {tgt.show_term(want)} at {ctx}")
    report.laws.append(vars_law)

    subst_law = LawCheck("hom preserves substitution")
    for tgt_ctx in contexts:
        for src_ctx in contexts:
            for sort in sorts:
                ts = terms(tgt_ctx, sort, subst_law)
                if not ts:
                    continue
                sigmas = _subst_tuples(terms, src_ctx, tgt_ctx, budget, subst_law)
                for t in ts:
                    for sigma in sigmas:
                        subst_law.checked += 1
                        lhs = hom.apply(src_ctx, sort, src.subst(t, sigma))
                        rhs = tgt.subst(hom.apply(tgt_ctx, sort, t), hom.on_subst(sigma))
                        if not tgt.term_eq(src_ctx, sort, lhs, rhs):
                            subst_law.fail(
                                f"f(t[sigma]) != f(t)[f sigma] for t={src.show_term(t)}, sigma={sigma}"
                            )
    report.laws.append(subst_law)
    return report
