"""Witnessed equality for free algebras of the simply typed lambda calculus.

Two procedures produce checkable proof objects:

  * a compositional normalizer (``norm`` and its helpers ``whnf``,
    ``head_canon`` and ``norm_neutral``) that computes a term's eta-long
    beta-normal form by structural recursion and returns the derivation of
    term ~ normal form built bottom-up: beta and eta are
    presentation-equation instances, element applications are collapsed
    with the variable- and substitution-collapse laws, and steps under a
    constructor sit under one congruence node;
  * a bidirectional best-first search over the same steps, applied at any
    position: the frontier loop of the first-order search
    (``firstorder._best_first``), meeting up to the base's equality.
    Search-mode ``free_equal`` runs it only on pairs whose NbE normal
    forms agree, when there are NbE forms to compare.

Canonical element applications keep the element in base-canonical form,
with a variable at every proper subterm of a function sort, applied to
pairwise-distinct non-element arguments listed in first-use order, with
every position used.  ``head_canon`` is the one canonicalizer: the semantic
normalizer (``nbe``) reads back through it, ``nbe.check_normal`` accepts
exactly the fixed points of ``norm``, and normalize-mode ``free_equal``
cross-checks the two routes.
Steps read the names of the parts from the surface's ``calculus``; on a
surface that is not the lambda calculus the normalizer raises
NotLambdaCalculus, and the search has no beta or eta step.

Base clones whose canonical form rewrites a bare variable (global state
turns x into its state table) get the matching treatment here: bare
neutrals at the base sort are completed into an element application, and
variable elements at that sort are never collapsed back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clones import CloneError, Substitution, weakening
from .firstorder import FoOp, FoVar, _best_first
from .freealgebra import (
    CloneApp,
    FAxiom,
    FCongClone,
    FCongOp,
    FRefl,
    FSubstLaw,
    FSym,
    FTrans,
    FVarLaw,
    FreeAlgebra,
    FreeOp,
    FreeTerm,
    FreeVar,
    check_input,
    free_instantiate_last,
    free_rename,
    free_size,
    raw_eq,
)
from .sorts import EMPTY, Context, Sort


class NormalizationError(CloneError):
    pass


def base_completion_needed(free: FreeAlgebra, sort: Sort) -> bool:
    """True when the base canonicalizes a bare variable to something else
    (the state clone does); bare neutrals at that sort are then not normal
    and must be wrapped in an element application."""
    if sort.args:
        return False
    cache = getattr(free, "_completion_cache", None)
    if cache is None:
        cache = {}
        free._completion_cache = cache
    if sort not in cache:
        one = Context((sort,))
        x = free.base.var(one, 1)
        cache[sort] = free.base.canonical(one, sort, x) != x
    return cache[sort]


def element_use_order(e) -> list[int]:
    """Positions mentioned by a base element, in first-use order."""
    if isinstance(e, int):
        return [e]
    order: list[int] = []
    _use_order(e, order)
    return order


def _use_order(t, order: list[int]) -> None:
    if isinstance(t, FoVar):
        if t.index not in order:
            order.append(t.index)
    elif isinstance(t, FoOp):
        for a in t.args:
            _use_order(a, order)


# --------------------------------------------------------------------------
# Term paths
# --------------------------------------------------------------------------


def _replace(whole: FreeTerm, path: tuple, new: FreeTerm) -> FreeTerm:
    if not path:
        return new
    kind, i = path[0]
    args = list(whole.args)
    if kind == "op":
        binder, body = args[i - 1]
        args[i - 1] = (binder, _replace(body, path[1:], new))
        return FreeOp(whole.name, whole.sort_args, tuple(args))
    args[i - 1] = _replace(args[i - 1], path[1:], new)
    return CloneApp(whole.element, whole.arity_ctx, whole.arity_sort, tuple(args))


def _embed(whole: FreeTerm, path: tuple, inner):
    """Wrap a subterm derivation in congruence nodes along ``path``."""
    if not path:
        return inner
    kind, i = path[0]
    if kind == "op":
        children = tuple(
            _embed(body, path[1:], inner) if j == i else FRefl(body)
            for j, (_, body) in enumerate(whole.args, start=1)
        )
        return FCongOp(whole.name, whole.sort_args, children)
    children = tuple(
        _embed(a, path[1:], inner) if j == i else FRefl(a)
        for j, a in enumerate(whole.args, start=1)
    )
    return FCongClone(whole.element, whole.arity_ctx, whole.arity_sort, children)


# --------------------------------------------------------------------------
# Primitive steps: (new subterm, derivation at the subterm) or None
# --------------------------------------------------------------------------


def beta_step(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """app(abs(x. body), a) ~ body[a]; None outside the lambda calculus."""
    lam = free.presentation.calculus
    match t:
        case FreeOp(name=name, sort_args=(A, B), args=((_, fun), (_, arg))) if (
            lam is not None and name == lam.app and _is_abs(lam, fun)
        ):
            body = fun.args[0][1]
            reduced = free_instantiate_last(body, ctx, arg)
            return reduced, FAxiom(lam.beta, (A, B), (FRefl(body), FRefl(arg)))
    return None


def eta_expand_step(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """t ~ abs(x. app(t', x)) at an arrow sort, t not an abstraction."""
    lam = free.presentation.calculus
    if lam is None or not (sort.former == "=>" and len(sort.args) == 2) or _is_abs(lam, t):
        return None
    A, B = sort.args
    binder = Context((A,))
    lifted = free_rename(t, weakening(ctx, binder))
    body = FreeOp(lam.app, (A, B), ((Context(()), lifted), (Context(()), FreeVar(len(ctx) + 1))))
    expanded = FreeOp(lam.abs, (A, B), ((binder, body),))
    return expanded, FSym(FAxiom(lam.eta, (A, B), (FRefl(t),)))


def var_collapse_step(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """<e>(args) ~ args[i] when e is the i-th variable of its arity.

    Suppressed at sorts with base completion, where the variable element's
    canonical form is the normal shape rather than a redex.
    """
    if not isinstance(t, CloneApp):
        return None
    if base_completion_needed(free, t.arity_sort):
        return None
    base = free.base
    for i in range(1, len(t.arity_ctx) + 1):
        if t.arity_ctx.sort_at(i) != t.arity_sort:
            continue
        if base.term_eq(t.arity_ctx, t.arity_sort, t.element, base.var(t.arity_ctx, i)):
            return t.args[i - 1], FVarLaw(i, t.arity_ctx, t.args)
    return None


def merge_step(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Absorb element-application arguments into the element:
    <f>(..., <g>(ts), ...) ~ <f[s]>(shared arguments)."""
    if not isinstance(t, CloneApp) or not any(isinstance(a, CloneApp) for a in t.args):
        return None
    base = free.base
    shared: list[FreeTerm] = []
    shared_sorts: list[Sort] = []

    def slot(term, sort):
        shared.append(term)
        shared_sorts.append(sort)
        return len(shared)

    entries = []
    for a, slot_sort in zip(t.args, t.arity_ctx):
        if isinstance(a, CloneApp):
            positions = tuple(slot(x, s) for x, s in zip(a.args, a.arity_ctx))
            entries.append(("elem", a, positions))
        else:
            entries.append(("var", slot(a, slot_sort)))
    new_ctx = Context(tuple(shared_sorts))
    shared_args = tuple(shared)

    children = []
    comps = []
    for entry in entries:
        if entry[0] == "var":
            _, pos = entry
            comps.append(base.var(new_ctx, pos))
            children.append(FSym(FVarLaw(pos, new_ctx, shared_args)))
        else:
            _, a, positions = entry
            mapping = dict(zip(range(1, len(a.arity_ctx) + 1), positions))
            remapped = base.subst(
                a.element,
                Substitution(
                    new_ctx, a.arity_ctx, tuple(base.var(new_ctx, mapping[p]) for p in
                                                range(1, len(a.arity_ctx) + 1))
                ),
            )
            comps.append(remapped)
            expand_args = FCongClone(
                a.element, a.arity_ctx, a.arity_sort,
                tuple(FSym(FVarLaw(p, new_ctx, shared_args)) for p in positions),
            )
            collapse = FSubstLaw(
                a.element, a.arity_ctx, a.arity_sort,
                tuple(base.var(new_ctx, p) for p in positions),
                new_ctx, shared_args,
            )
            children.append(FTrans(expand_args, collapse))
    step1 = FCongClone(t.element, t.arity_ctx, t.arity_sort, tuple(children))
    step2 = FSubstLaw(
        t.element, t.arity_ctx, t.arity_sort, tuple(comps), new_ctx, shared_args
    )
    merged = base.subst(t.element, Substitution(new_ctx, t.arity_ctx, tuple(comps)))
    return CloneApp(merged, new_ctx, t.arity_sort, shared_args), FTrans(step1, step2)


def drop_unused_step(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Remove argument positions the element never mentions."""
    if not isinstance(t, CloneApp) or len(t.args) == 0:
        return None
    used = set(element_use_order(t.element))
    kept = [p for p in range(1, len(t.args) + 1) if p in used]
    if len(kept) == len(t.args):
        return None
    base = free.base
    new_ctx = Context(tuple(t.arity_ctx.sort_at(p) for p in kept))
    new_args = tuple(t.args[p - 1] for p in kept)
    mapping = {p: j for j, p in enumerate(kept, start=1)}
    reduced = reindex_element(t.element, mapping)
    comps = tuple(base.var(t.arity_ctx, p) for p in kept)
    # <e>(args) ~ <reduced>(<var_p>(args)...) backwards, then collapse each
    law = FSubstLaw(reduced, new_ctx, t.arity_sort, comps, t.arity_ctx, t.args)
    cong = FCongClone(
        reduced, new_ctx, t.arity_sort,
        tuple(FVarLaw(p, t.arity_ctx, t.args) for p in kept),
    )
    new_term = CloneApp(reduced, new_ctx, t.arity_sort, new_args)
    return new_term, FTrans(FSym(law), cong)


def split_step(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Give each maximal non-variable subterm s of the element at a function
    sort an argument of its own: <e>(args) ~ <e'>(args, <s>(args)), where
    e' has a fresh position in place of s."""
    if not isinstance(t, CloneApp) or not isinstance(t.element, FoOp) or not t.element.args:
        return None
    n, found = len(t.arity_ctx), []
    reduced = _split_element(free.base.presentation.signature, t.element, n, found)
    if not found:
        return None
    new_ctx = t.arity_ctx + Context(tuple(s for _, s in found))
    comps = tuple(FoVar(p) for p in range(1, n + 1)) + tuple(e for e, _ in found)
    new_args = t.args + tuple(CloneApp(e, t.arity_ctx, s, t.args) for e, s in found)
    # <e>(args) ~ <e'>(<var_p>(args)..., <s>(args)...) backwards, then collapse
    law = FSubstLaw(reduced, new_ctx, t.arity_sort, comps, t.arity_ctx, t.args)
    cong = FCongClone(reduced, new_ctx, t.arity_sort, tuple(
        FVarLaw(p, t.arity_ctx, t.args) if p <= n else FRefl(a)
        for p, a in enumerate(new_args, start=1)
    ))
    return CloneApp(reduced, new_ctx, t.arity_sort, new_args), FTrans(FSym(law), cong)


def _split_element(sig, e: FoOp, n: int, found: list) -> FoOp:
    """``e`` with each maximal non-variable proper subterm at a function sort
    replaced by position n + j, the j-th (subterm, sort) appended to ``found``."""
    args = []
    for a, s in zip(e.args, sig.arity(e.name, e.sort_args)[0]):
        if isinstance(a, FoOp) and s.args:
            found.append((a, s))
            a = FoVar(n + len(found))
        elif isinstance(a, FoOp) and a.args:
            a = _split_element(sig, a, n, found)
        args.append(a)
    return FoOp(e.name, e.sort_args, tuple(args))


def reindex_element(e, mapping: dict[int, int]):
    """A base element with its positions renamed by ``mapping``."""
    if isinstance(e, int):
        return mapping[e]
    if isinstance(e, FoVar):
        return FoVar(mapping[e.index])
    if isinstance(e, FoOp):
        return FoOp(e.name, e.sort_args, tuple(reindex_element(a, mapping) for a in e.args))
    raise NormalizationError(f"cannot reindex element {e!r}")


def reorder_step(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Bring arguments into first-use order and merge duplicate arguments."""
    if not isinstance(t, CloneApp) or len(t.args) == 0:
        return None
    base = free.base
    use = element_use_order(t.element)
    if set(use) != set(range(1, len(t.args) + 1)):
        return None  # drop-unused runs first
    kept: list[int] = []
    new_index: dict[int, int] = {}
    for p in use:
        for j, q in enumerate(kept, start=1):
            if t.arity_ctx.sort_at(p) == t.arity_ctx.sort_at(q) and raw_eq(
                base, ctx, t.arity_ctx.sort_at(p), t.args[p - 1], t.args[q - 1]
            ):
                new_index[p] = j
                break
        else:
            kept.append(p)
            new_index[p] = len(kept)
    if kept == list(range(1, len(t.args) + 1)):
        return None
    new_ctx = Context(tuple(t.arity_ctx.sort_at(p) for p in kept))
    new_args = tuple(t.args[p - 1] for p in kept)
    comps = tuple(base.var(new_ctx, new_index[p]) for p in range(1, len(t.args) + 1))
    new_element = base.subst(t.element, Substitution(new_ctx, t.arity_ctx, comps))
    cong = FCongClone(
        t.element, t.arity_ctx, t.arity_sort,
        tuple(
            FSym(FVarLaw(new_index[p], new_ctx, new_args))
            for p in range(1, len(t.args) + 1)
        ),
    )
    law = FSubstLaw(t.element, t.arity_ctx, t.arity_sort, comps, new_ctx, new_args)
    return CloneApp(new_element, new_ctx, t.arity_sort, new_args), FTrans(cong, law)


def complete_neutral_step(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """m ~ <var_1>(m): wrap a bare neutral so the element can take its
    canonical (e.g. state-table) form."""
    one = Context((sort,))
    return (
        CloneApp(free.base.var(one, 1), one, sort, (t,)),
        FSym(FVarLaw(1, one, (t,))),
    )


def _canonical_element(free: FreeAlgebra, t: CloneApp) -> CloneApp:
    e = free.base.canonical(t.arity_ctx, t.arity_sort, t.element)
    if e == t.element:
        return t
    return CloneApp(e, t.arity_ctx, t.arity_sort, t.args)


# --------------------------------------------------------------------------
# The witnessed normalizer
#
# Big-step normalization on syntax (Altenkirch & Chapman, "Big-step
# normalisation", JFP 2009), by structural recursion.  Each function returns
# (term, derivation of input ~ term), the derivation None when no step was
# taken; steps under a constructor are wrapped in one congruence node there.
# --------------------------------------------------------------------------


def _then(d, step):
    """d followed by step, either of which may be None (no step)."""
    if d is None:
        return step
    return d if step is None else FTrans(d, step)


def _is_abs(lam, t: FreeTerm) -> bool:
    return isinstance(t, FreeOp) and t.name == lam.abs


def whnf(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Weak head normal form: beta at the head until the head is a variable
    or a canonical element application."""
    d = None
    while True:
        t, step = _head_beta(free, ctx, t)
        d = _then(d, step)
        if not isinstance(t, CloneApp):
            return t, d
        t, step = head_canon(free, ctx, t)
        d = _then(d, step)
        if isinstance(t, CloneApp):
            return t, d


def _head_beta(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Beta at the head until the head is a variable or an element
    application, which is left as it stands."""
    lam, d = free.presentation.calculus, None
    while isinstance(t, FreeOp) and t.name == lam.app:
        (_, fun), (_, arg) = t.args
        if not _is_abs(lam, fun):
            head, step = whnf(free, ctx, fun)
            if step is not None:
                d = _then(d, FCongOp(lam.app, t.sort_args, (step, FRefl(arg))))
            if head is not fun:
                t = FreeOp(lam.app, t.sort_args, ((EMPTY, head), (EMPTY, arg)))
            if not _is_abs(lam, head):
                return t, d
        t, step = beta_step(free, ctx, t)
        d = _then(d, step)
    return t, d


def head_canon(free: FreeAlgebra, ctx: Context, t: CloneApp):
    """An element application's collapse loop, the one canonicalizer of both
    normalizers: collapse a variable element, drop
    unused positions or split off function-sort subterms of the element;
    else bring the arguments to head form, then merge element-application
    arguments into the element and reorder.

    Head form is the normal form (an abstraction) at a function sort, and a
    normal neutral, never completed, at the base sort; a base-sort element
    application, also one that beta reaches, is merged as it stands.  A
    stuck conditional at a function sort is thus an abstraction before any
    merge and stays apart from its parent.  The result is a canonical
    element application, or the term a variable element collapsed to."""
    d = None
    for _ in range(10_000):
        t = _canonical_element(free, t)
        step = (var_collapse_step(free, ctx, t) or drop_unused_step(free, ctx, t)
                or split_step(free, ctx, t))
        if step is None:
            args, children = [], []
            for a, s in zip(t.args, t.arity_ctx):
                if s.args:
                    a, da = norm(free, ctx, s, a)
                else:
                    a, da = _head_beta(free, ctx, a)
                    if not isinstance(a, CloneApp):
                        a, dn = norm_neutral(free, ctx, a)
                        da = _then(da, dn)
                args.append(a)
                children.append(da)
            if any(c is not None for c in children):
                d = _then(d, FCongClone(t.element, t.arity_ctx, t.arity_sort, tuple(
                    FRefl(a) if c is None else c for a, c in zip(args, children)
                )))
            if any(a is not b for a, b in zip(args, t.args)):
                t = CloneApp(t.element, t.arity_ctx, t.arity_sort, tuple(args))
            step = merge_step(free, ctx, t) or reorder_step(free, ctx, t)
            if step is None:
                return t, d
        t, d = step[0], _then(d, step[1])
        if not isinstance(t, CloneApp):
            return t, d
    raise NormalizationError("canonicalization did not stabilize")


def norm(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """Eta-long beta-normal form of ``t`` at ``sort``."""
    t, d = whnf(free, ctx, t)
    if sort.former == "=>" and len(sort.args) == 2:
        lam = free.presentation.calculus
        if not _is_abs(lam, t):
            t, step = norm_neutral(free, ctx, t)
            d = _then(d, step)
            t, step = eta_expand_step(free, ctx, sort, t)
            d = _then(d, step)
        ((binder, body),) = t.args
        normal, step = norm(free, ctx + binder, sort.args[1], body)
        if step is not None:
            d = _then(d, FCongOp(lam.abs, t.sort_args, (step,)))
        if normal is not body:
            t = FreeOp(lam.abs, t.sort_args, ((binder, normal),))
        return t, d
    if isinstance(t, CloneApp):
        return t, d
    t, step = norm_neutral(free, ctx, t)
    d = _then(d, step)
    if base_completion_needed(free, sort):
        t, step = complete_neutral_step(free, ctx, sort, t)
        d = _then(d, step)
        t, step = head_canon(free, ctx, t)
        d = _then(d, step)
    return t, d


def norm_neutral(free: FreeAlgebra, ctx: Context, t: FreeTerm):
    """Normalize the arguments along a spine whose head is in weak head
    normal form: a variable or a canonical element application."""
    app = free.presentation.calculus.app
    if not (isinstance(t, FreeOp) and t.name == app):
        return t, None
    (_, fun), (_, arg) = t.args
    head, df = norm_neutral(free, ctx, fun)
    normal, da = norm(free, ctx, t.sort_args[0], arg)
    if head is not fun or normal is not arg:
        t = FreeOp(app, t.sort_args, ((EMPTY, head), (EMPTY, normal)))
    if df is None and da is None:
        return t, None
    return t, FCongOp(app, t.sort_args, (df or FRefl(head), da or FRefl(normal)))


def normalize_with_trace(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """Eta-long beta-normal form plus a derivation of input ~ output, in the
    lambda calculus (else NotLambdaCalculus); ``t`` must have ``sort`` in ``ctx``."""
    free.presentation.lambda_calculus()
    check_input(free, ctx, sort, t)
    nf, d = norm(free, ctx, sort, t)
    return nf, FRefl(t) if d is None else d


# --------------------------------------------------------------------------
# Equality verdicts
# --------------------------------------------------------------------------


@dataclass
class EqVerdict:
    status: str  # "equal" | "not_equal" | "unknown"
    witness: object = None  # derivation of t ~ u when equal
    # not_equal evidence: two distinct model values, else two distinct NbE normal forms
    certificate: object = None

    def __bool__(self):
        return self.status == "equal"


def free_equal(
    free: FreeAlgebra,
    ctx: Context,
    sort: Sort,
    t: FreeTerm,
    u: FreeTerm,
    mode: str = "normalize",
    budget: int = 2000,
    model_hom=None,
) -> EqVerdict:
    """Decide t ~ u with a witness.

    normalize mode compares the witnessed normal forms and chains the two
    witnesses.  When the forms differ, "not_equal" needs evidence:
    distinct values under ``model_hom``, else distinct NbE normal forms
    (without an NbE domain the verdict is "unknown").  NbE normal forms that
    agree while the witnessed forms differ raise NormalizationError; without
    the lambda calculus it is "unknown".

    search mode first compares the NbE normal forms: distinct forms mean no
    proof exists, and the verdict is "unknown" at once, with no witness and
    no certificate (search mode never answers "not_equal").  Equal forms,
    or a surface that is not the lambda calculus or a base with no NbE
    domain, go to a bounded bidirectional best-first search, so every
    "equal" witness is the search's; exhaustion yields the first-class
    verdict "unknown".  Both terms must have ``sort`` in ``ctx``; otherwise
    FreeSortError is raised.
    """
    check_input(free, ctx, sort, t)
    check_input(free, ctx, sort, u)
    if raw_eq(free.base, ctx, sort, t, u):
        return EqVerdict("equal", FRefl(t))
    if mode == "normalize":
        if free.presentation.calculus is None:  # no normalizer: no evidence either way
            return EqVerdict("unknown")
        nt, dt = norm(free, ctx, sort, t)
        nu, du = norm(free, ctx, sort, u)
        if raw_eq(free.base, ctx, sort, nt, nu):
            return EqVerdict("equal", FTrans(dt or FRefl(t), FSym(du or FRefl(u))))
        if model_hom is not None:
            values = (model_hom(ctx, sort, t), model_hom(ctx, sort, u))
            if values[0] != values[1]:
                return EqVerdict("not_equal", certificate=values)
        forms = _nbe_forms(free, ctx, sort, t, u)
        if forms is None:  # no base domain: no evidence either way
            return EqVerdict("unknown")
        if raw_eq(free.base, ctx, sort, *forms):
            raise NormalizationError(
                f"witnessed normal forms {nt} and {nu} differ, but NbE finds the terms equal"
            )
        return EqVerdict("not_equal", certificate=forms)
    if mode == "search":
        forms = _nbe_forms(free, ctx, sort, t, u)
        if forms is not None and not raw_eq(free.base, ctx, sort, *forms):
            return EqVerdict("unknown")  # no proof exists to find
        found = _search_equal(free, ctx, sort, t, u, budget)
        if found is None:
            return EqVerdict("unknown")
        return EqVerdict("equal", found)
    raise CloneError(f"unknown equality mode {mode!r}")


def _nbe_forms(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm, u: FreeTerm):
    """The NbE normal forms of ``t`` and ``u``; None when the surface is not
    the lambda calculus or the base has no normalization domain."""
    if free.presentation.calculus is None:
        return None
    from .nbe import NbeError, nbe_for

    try:
        engine = nbe_for(free)
    except NbeError:
        return None
    return engine.normalize(ctx, sort, t), engine.normalize(ctx, sort, u)


def _moves_here(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm) -> list:
    """The single steps at the root of ``t``: (new term, local derivation).
    Derivation None marks a silent canonical-representative swap."""
    moves = [step(free, ctx, t) for step in
             (beta_step, var_collapse_step, merge_step, drop_unused_step, reorder_step)]
    moves.append(eta_expand_step(free, ctx, sort, t))
    if isinstance(t, CloneApp):
        canon = _canonical_element(free, t)
        if canon is not t:
            moves.append((canon, None))
    elif base_completion_needed(free, sort):
        moves.append(complete_neutral_step(free, ctx, sort, t))
    return [m for m in moves if m is not None]


def _visit_moves(free, t, size: int, sub: FreeTerm, c: Context, s: Sort, path: tuple, out: list):
    """Append (whole new term, path, step) for the steps at every position
    of ``sub``, the subterm at ``path`` of ``t``, whose size is ``size``;
    the step's derivation is still to be embedded at ``path`` of ``t``."""
    for new_sub, deriv in _moves_here(free, c, s, sub):
        new = _replace(t, path, new_sub)
        out.append((new, path, _Step(deriv, new, size)))
    if isinstance(sub, FreeOp):
        arity = free.presentation.signature.arity(sub.name, sub.sort_args)
        for i, ((binder, body), (_, bsort)) in enumerate(zip(sub.args, arity.binders), start=1):
            _visit_moves(free, t, size, body, c + binder, bsort, path + (("op", i),), out)
    elif isinstance(sub, CloneApp):
        for i, a in enumerate(sub.args, start=1):
            _visit_moves(free, t, size, a, c, sub.arity_ctx.sort_at(i), path + (("clone", i),), out)


class _Step:
    """A step of the free search: its local derivation, and as ``step[1]``,
    the only item ``_best_first`` reads, the size change from a term of size
    ``size`` to ``new``.  The change is counted only when read, on a push,
    since most steps reach a term seen before."""

    __slots__ = ("deriv", "new", "size")

    def __init__(self, deriv, new, size):
        self.deriv, self.new, self.size = deriv, new, size

    def __getitem__(self, i):
        if i != 1:
            raise IndexError(i)
        return free_size(self.new) - self.size


def _search_equal(free, ctx, sort, t, u, budget):
    """``firstorder._best_first`` over single steps at every position.  A
    newly reached term meets the first term of the other side, in order of
    insertion, that is ``raw_eq`` to it: equal up to the base's equality,
    for which no canonical key exists.  Only the steps of the returned
    proof are embedded into whole terms."""

    def moves(term, size):
        out: list = []
        _visit_moves(free, term, size, term, ctx, sort, (), out)
        return out

    def meet(new, theirs):
        return next((o for o in theirs if raw_eq(free.base, ctx, sort, new, o)), None)

    found = _best_first(t, free_size(t), u, free_size(u), moves, budget, meet)
    if found is None:
        return None
    return FTrans(_chain(found[0], t), FSym(_chain(found[1], u)))


def _chain(trail, start):
    """The steps of a search trail chained into one derivation from
    ``start``; a silent canonical-representative swap adds no step."""
    d = None
    for before, path, step, _ in trail:
        if step.deriv is not None:
            e = _embed(before, path, step.deriv)
            d = e if d is None else FTrans(d, e)
    return FRefl(start) if d is None else d
