"""Predicates over clones and the desk-scale induction harness.

A clone predicate contains all variables and is closed under substitution.
Families of subsets that lack those closure properties are lifted:

  * a family of closed-term subsets P(A) lifts to the predicate holding the
    terms t with t[sigma] in P for every substitution sigma of P-members
    (at the empty context this is P itself);
  * a family P(Gamma; A) not known closed under substitution lifts to the
    terms t with t[sigma] in P(Delta; A) for every sigma in P(Delta; Gamma).

The universal quantifiers over substitutions are realized by bounded
enumeration; when a pool is capped the verdicts are flagged approximate
rather than silently weakened.

The harness checks the induction principle's two hypotheses (operator
closure and the image of the base homomorphism) on enumerations, and then
asserts the conclusion on enumerated free terms.  A hypothesis pass
together with a conclusion violation is a soundness bug in the library,
never a property of the inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .clones import Budget, Clone, CloneHom, LawCheck, LawReport, Renaming, Substitution
from .freealgebra import FreeAlgebra
from .secondorder import Algebra
from .sorts import Context, Sort

EMPTY = Context(())


@dataclass
class ClonePredicate:
    """Decidable membership per (context; sort); ``approximate`` records
    that some quantifier pool was truncated."""

    clone: Clone
    member: object  # (ctx, sort, term) -> bool
    approximate: bool = False

    def __call__(self, ctx: Context, sort: Sort, t) -> bool:
        return self.member(ctx, sort, t)


def everything(clone: Clone) -> ClonePredicate:
    return ClonePredicate(clone, lambda ctx, sort, t: True)


@dataclass
class Pool:
    """A capped enumeration site; remembers whether the cap was hit."""

    items: list
    capped: bool = False


def _pool(items: list, cap: int | None) -> Pool:
    if cap is not None and len(items) > cap:
        return Pool(items[:cap], True)
    return Pool(items)


def lift_closed_family(
    clone: Clone,
    family,  # (sort, closed term) -> bool
    closed_pool,  # (sort) -> list of closed terms
    cap: int | None = None,
) -> ClonePredicate:
    """The substitution-closed predicate induced by a closed-term family:
    ``lift_open_family`` at the one context ``[]``."""
    return lift_open_family(
        clone, lambda ctx, sort, t: family(sort, t), [EMPTY],
        lambda ctx, sort: closed_pool(sort), cap,
    )


def lift_open_family(
    clone: Clone,
    family,  # (ctx, sort, term) -> bool
    contexts: list[Context],
    term_pool,  # (ctx, sort) -> list
    cap: int | None = None,
) -> ClonePredicate:
    """The substitution-closed predicate induced by an arbitrary family."""
    approx = [False]
    memo: dict = {}

    def members_at(ctx: Context, sort: Sort) -> list:
        key = (ctx, sort)
        if key not in memo:
            pool = _pool(term_pool(ctx, sort), cap)
            approx[0] = approx[0] or pool.capped
            memo[key] = [u for u in pool.items if family(ctx, sort, u)]
        return memo[key]

    pred = ClonePredicate(clone, None)

    def member(ctx: Context, sort: Sort, t) -> bool:
        ok = True
        for delta in contexts:
            pools = [members_at(delta, s) for s in ctx]
            for combo in itertools.product(*pools):
                sigma = Substitution(delta, ctx, combo)
                if not family(delta, sort, clone.subst(t, sigma)):
                    ok = False
                    break
            if not ok:
                break
        pred.approximate = pred.approximate or approx[0]
        return ok

    pred.member = member
    return pred


def check_predicate_closure(
    pred: ClonePredicate,
    contexts: list[Context],
    sorts: list[Sort],
    term_pool,
    budget: Budget = Budget(),
):
    """The two defining conditions of a clone predicate, on enumerations:
    variables are members, and membership is closed under substitution."""
    clone = pred.clone
    report = LawReport("predicate closure")
    vars_law = LawCheck("variables are members")
    for ctx in contexts:
        for i in range(1, len(ctx) + 1):
            vars_law.checked += 1
            if not pred(ctx, ctx.sort_at(i), clone.var(ctx, i)):
                vars_law.fail(f"var_{i} not a member at {ctx}")
    report.laws.append(vars_law)

    closure = LawCheck("membership closed under substitution")
    for tgt in contexts:
        for sort in sorts:
            members = [t for t in term_pool(tgt, sort) if pred(tgt, sort, t)]
            members = members[: budget.max_terms]
            for src in contexts:
                pools = [
                    [u for u in term_pool(src, s) if pred(src, s, u)][: budget.max_terms]
                    for s in tgt
                ]
                combos = list(itertools.islice(itertools.product(*pools), budget.max_tuples))
                for t in members:
                    for combo in combos:
                        closure.checked += 1
                        sigma = Substitution(src, tgt, combo)
                        if not pred(src, sort, clone.subst(t, sigma)):
                            closure.fail(
                                f"member {clone.show_term(t)} left the predicate under {sigma}"
                            )
    report.laws.append(closure)
    return report


# --------------------------------------------------------------------------
# The harness
# --------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    operator_closure_ok: bool = True
    image_ok: bool = True
    checked: int = 0
    approximate: bool = False
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.operator_closure_ok and self.image_ok


def check_induction_hypotheses(
    alg: Algebra,
    f: CloneHom,
    pred: ClonePredicate,
    contexts: list[Context],
    sorts: list[Sort],
    arg_pool,  # (ctx, sort) -> candidate terms of the algebra's clone
    base_pool,  # (ctx, sort) -> terms of f's source clone
    budget: Budget = Budget(),
) -> HypothesisReport:
    """Check, on enumerations, that predicate members are closed under the
    algebra's operators and that the image of ``f`` lies in the predicate."""
    report = HypothesisReport()
    sig = alg.presentation.signature

    for name, sort_args in sig.instances(sorts):
        arity = sig.arity(name, sort_args)
        for gamma in contexts:
            pools = []
            for binder_ctx, binder_sort in arity.binders:
                candidates = arg_pool(gamma + binder_ctx, binder_sort)[: budget.max_terms]
                pools.append(
                    [t for t in candidates if pred(gamma + binder_ctx, binder_sort, t)]
                )
            combos = list(itertools.islice(itertools.product(*pools), budget.max_tuples))
            for combo in combos:
                report.checked += 1
                out = alg.interpret(name, sort_args, gamma, combo)
                if not pred(gamma, arity.result, out):
                    report.operator_closure_ok = False
                    report.witnesses.append(
                        f"{name}{list(sort_args)} at {gamma} leaves the predicate "
                        f"on {[alg.clone.show_term(c) for c in combo]}"
                    )

    for gamma in contexts:
        for sort in sorts:
            for t in base_pool(gamma, sort)[: budget.max_terms]:
                report.checked += 1
                if not pred(gamma, sort, f.apply(gamma, sort, t)):
                    report.image_ok = False
                    report.witnesses.append(f"f({t}) not a member at {gamma}")
    report.approximate = pred.approximate
    return report


@dataclass
class ConclusionReport:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def assert_conclusion(
    free: FreeAlgebra,
    fold: CloneHom,
    pred: ClonePredicate,
    contexts: list[Context],
    sorts: list[Sort],
    term_pool,  # (ctx, sort) -> free terms
    budget: Budget = Budget(),
) -> ConclusionReport:
    """Every enumerated free term must fold into the predicate.  Violations
    after a full hypothesis pass are soundness bugs, reported fatally by
    the caller."""
    report = ConclusionReport()
    for gamma in contexts:
        for sort in sorts:
            for t in term_pool(gamma, sort)[: budget.max_terms]:
                report.checked += 1
                if not pred(gamma, sort, fold.apply(gamma, sort, t)):
                    report.violations.append(f"fold({t}) not a member at {gamma}; sort {sort}")
    return report


# --------------------------------------------------------------------------
# Kripke relations
# --------------------------------------------------------------------------


def all_renamings(src: Context, tgt: Context):
    """Every sort-respecting renaming acting from ``tgt``-terms to
    ``src``-terms; finite and exhaustive."""
    pools = [
        [j for j in range(1, len(src) + 1) if src.sort_at(j) == tgt.sort_at(i)]
        for i in range(1, len(tgt) + 1)
    ]
    return [Renaming(src, tgt, combo) for combo in itertools.product(*pools)]


def kripke_relation(
    alg: Algebra,
    base_member,  # (ctx, term) -> bool at the base sort
    contexts: list[Context],
    arg_pool,  # (ctx, sort) -> candidate argument terms
    base_sort: Sort,
    cap: int | None = None,
):
    """The context-indexed relation with the standard function-sort clause:
    membership at an arrow sort quantifies over all renamings into the
    enumerated contexts and all member arguments there.  Returns the
    membership test ``member(ctx, sort, t) -> bool``."""
    return _KripkeRelation(alg, base_member, contexts, arg_pool, base_sort, cap)


class _KripkeRelation:
    """The relation built by kripke_relation; calling it tests membership,
    memoized per (context, sort, term)."""

    def __init__(self, alg, base_member, contexts, arg_pool, base_sort, cap):
        self.alg = alg
        self.base_member = base_member
        self.contexts = contexts
        self.arg_pool = arg_pool
        self.base_sort = base_sort
        self.cap = cap
        self.memo: dict = {}

    def __call__(self, ctx: Context, sort: Sort, t) -> bool:
        key = (ctx, sort, t)
        if key in self.memo:
            return self.memo[key]
        if sort == self.base_sort:
            result = self.base_member(ctx, t)
        elif sort.former == "=>" and len(sort.args) == 2:
            A, B = sort.args
            result = True
            for delta in self.contexts:
                for ren in all_renamings(delta, ctx):
                    renamed = self.alg.clone.rename(t, ren)
                    candidates = self.arg_pool(delta, A)
                    if self.cap is not None:
                        candidates = candidates[:self.cap]
                    for a in candidates:
                        if not self(delta, A, a):
                            continue
                        applied = self.alg.interpret(
                            "app", (A, B), delta,
                            (renamed, a),
                        )
                        if not self(delta, B, applied):
                            result = False
                            break
                    if not result:
                        break
                if not result:
                    break
        else:
            result = False
        self.memo[key] = result
        return result
