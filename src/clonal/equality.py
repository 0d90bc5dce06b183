"""Witnessed equality for free algebras of the binding-lambda presentation.

Two procedures produce checkable proof objects:

  * a compositional normalizer (``norm`` and its helpers ``whnf``,
    ``head_canon`` and ``norm_neutral``) that computes a term's eta-long
    beta-normal form by structural recursion and returns the derivation of
    term ~ normal form built bottom-up: beta and eta are
    presentation-equation instances, element applications are collapsed
    with the variable- and substitution-collapse laws, and steps under a
    constructor sit under one congruence node;
  * a bidirectional best-first search over the same steps, applied at any
    position.

Canonical element applications keep the element in base-canonical form,
with a variable at every proper subterm of a function sort, applied to
pairwise-distinct non-element arguments listed in first-use order, with
every position used.  ``head_canon`` is the one canonicalizer: the semantic
normalizer (``nbe``) reads back through it and ``check_normal`` accepts its
fixed points; normalize-mode ``free_equal`` cross-checks the two routes.

Base clones whose canonical form rewrites a bare variable (global state
turns x into its state table) get the matching treatment here: bare
neutrals at the base sort are completed into an element application, and
variable elements at that sort are never collapsed back.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .clones import CloneError, Substitution, weakening
from .firstorder import FoOp, FoVar
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
    FreeSortError,
    FreeTerm,
    FreeVar,
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
    """app(abs(x. body), a) ~ body[a]."""
    match t:
        case FreeOp(name="app", sort_args=(A, B), args=((_, fun), (_, arg))) if isinstance(
            fun, FreeOp
        ) and fun.name == "abs":
            body = fun.args[0][1]
            reduced = free_instantiate_last(body, ctx, arg)
            return reduced, FAxiom("beta", (A, B), (FRefl(body), FRefl(arg)))
    return None


def eta_expand_step(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """t ~ abs(x. app(t', x)) at an arrow sort, t not an abstraction."""
    if not (sort.former == "=>" and len(sort.args) == 2):
        return None
    if isinstance(t, FreeOp) and t.name == "abs":
        return None
    A, B = sort.args
    binder = Context((A,))
    lifted = free_rename(t, weakening(ctx, binder))
    body = FreeOp(
        "app", (A, B), ((Context(()), lifted), (Context(()), FreeVar(len(ctx) + 1)))
    )
    expanded = FreeOp("abs", (A, B), ((binder, body),))
    return expanded, FSym(FAxiom("eta", (A, B), (FRefl(t),)))


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


def _is_abs(t: FreeTerm) -> bool:
    return isinstance(t, FreeOp) and t.name == "abs"


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
    d = None
    while isinstance(t, FreeOp) and t.name == "app":
        (_, fun), (_, arg) = t.args
        if not _is_abs(fun):
            head, step = whnf(free, ctx, fun)
            if step is not None:
                d = _then(d, FCongOp("app", t.sort_args, (step, FRefl(arg))))
            if head is not fun:
                t = FreeOp("app", t.sort_args, ((EMPTY, head), (EMPTY, arg)))
            if not _is_abs(head):
                return t, d
        t, step = beta_step(free, ctx, t)
        d = _then(d, step)
    return t, d


def head_canon(free: FreeAlgebra, ctx: Context, t: CloneApp):
    """An element application's collapse loop, the one canonicalizer of both
    normalizers and of ``check_normal``: collapse a variable element, drop
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
        if not _is_abs(t):
            t, step = norm_neutral(free, ctx, t)
            d = _then(d, step)
            t, step = eta_expand_step(free, ctx, sort, t)
            d = _then(d, step)
        ((binder, body),) = t.args
        normal, step = norm(free, ctx + binder, sort.args[1], body)
        if step is not None:
            d = _then(d, FCongOp("abs", t.sort_args, (step,)))
        if normal is not body:
            t = FreeOp("abs", t.sort_args, ((binder, normal),))
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
    if not (isinstance(t, FreeOp) and t.name == "app"):
        return t, None
    (_, fun), (_, arg) = t.args
    head, df = norm_neutral(free, ctx, fun)
    normal, da = norm(free, ctx, t.sort_args[0], arg)
    if head is not fun or normal is not arg:
        t = FreeOp("app", t.sort_args, ((EMPTY, head), (EMPTY, normal)))
    if df is None and da is None:
        return t, None
    return t, FCongOp("app", t.sort_args, (df or FRefl(head), da or FRefl(normal)))


def normalize_with_trace(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """Eta-long beta-normal form plus a derivation of input ~ output."""
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
    agree while the witnessed forms differ raise NormalizationError.  search mode
    runs a bounded bidirectional best-first search; exhaustion yields the
    first-class verdict "unknown".  Both terms must have ``sort`` in
    ``ctx``; otherwise FreeSortError is raised.
    """
    for side in (t, u):
        got = free.check(ctx, side)
        if got != sort:
            raise FreeSortError(f"term has sort {got}, expected {sort}")
    if raw_eq(free.base, ctx, sort, t, u):
        return EqVerdict("equal", FRefl(t))
    if mode == "normalize":
        nt, dt = normalize_with_trace(free, ctx, sort, t)
        nu, du = normalize_with_trace(free, ctx, sort, u)
        if raw_eq(free.base, ctx, sort, nt, nu):
            return EqVerdict("equal", FTrans(dt, FSym(du)))
        if model_hom is not None:
            values = (model_hom(ctx, sort, t), model_hom(ctx, sort, u))
            if values[0] != values[1]:
                return EqVerdict("not_equal", certificate=values)
        from .nbe import NbeError, nbe_for

        try:
            engine = nbe_for(free)
        except NbeError:  # no base domain: no evidence either way
            return EqVerdict("unknown")
        forms = (engine.normalize(ctx, sort, t), engine.normalize(ctx, sort, u))
        if raw_eq(free.base, ctx, sort, *forms):
            raise NormalizationError(
                f"witnessed normal forms {nt} and {nu} differ, but NbE finds the terms equal"
            )
        return EqVerdict("not_equal", certificate=forms)
    if mode == "search":
        found = _search_equal(free, ctx, sort, t, u, budget)
        if found is None:
            return EqVerdict("unknown")
        return EqVerdict("equal", found)
    raise CloneError(f"unknown equality mode {mode!r}")


def _local_moves(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    moves = []
    for builder in (beta_step, var_collapse_step, merge_step, drop_unused_step, reorder_step):
        res = builder(free, ctx, t)
        if res is not None:
            moves.append(res)
    res = eta_expand_step(free, ctx, sort, t)
    if res is not None:
        moves.append(res)
    if (
        base_completion_needed(free, sort)
        and not isinstance(t, CloneApp)
    ):
        moves.append(complete_neutral_step(free, ctx, sort, t))
    return moves


def _all_moves(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm):
    """Single steps at every position of ``t``: (whole new term, path, local
    derivation), the derivation still to be embedded at ``path`` of ``t``.
    Derivation None marks a silent canonical-representative swap."""
    out: list = []
    _visit_moves(free, t, t, ctx, sort, (), out)
    return out


def _visit_moves(free, t, sub: FreeTerm, c: Context, s: Sort, path: tuple, out: list):
    for new_sub, deriv in _local_moves(free, c, s, sub):
        out.append((_replace(t, path, new_sub), path, deriv))
    if isinstance(sub, FreeOp):
        arity = free.presentation.signature.arity(sub.name, sub.sort_args)
        for i, ((binder, body), (_, bsort)) in enumerate(zip(sub.args, arity.binders), start=1):
            _visit_moves(free, t, body, c + binder, bsort, path + (("op", i),), out)
    elif isinstance(sub, CloneApp):
        canon = _canonical_element(free, sub)
        if canon is not sub:
            out.append((_replace(t, path, canon), path, None))
        for i, a in enumerate(sub.args, start=1):
            _visit_moves(free, t, a, c, sub.arity_ctx.sort_at(i), path + (("clone", i),), out)


def _search_equal(free, ctx, sort, t, u, budget):
    # parents: term -> (predecessor, path, local derivation), None at the start;
    # only the steps of the returned proof are embedded into whole terms
    parents = [{t: None}, {u: None}]
    seq = itertools.count()
    heap = [(free_size(t), next(seq), 0, t), (free_size(u), next(seq), 1, u)]
    popped = 0
    while heap and popped < budget:
        _, _, which, current = heapq.heappop(heap)
        popped += 1
        for new, path, deriv in _all_moves(free, ctx, sort, current):
            if new in parents[which]:
                continue
            parents[which][new] = (current, path, deriv)
            other = next(
                (o for o in parents[1 - which] if raw_eq(free.base, ctx, sort, new, o)),
                None,
            )
            if other is not None:
                left_end, right_end = (new, other) if which == 0 else (other, new)
                left = _chain(_trace_nodes(parents[0], left_end), t)
                right = _chain(_trace_nodes(parents[1], right_end), u)
                return FTrans(left, FSym(right))
            heapq.heappush(heap, (free_size(new), next(seq), which, new))
    return None


def _trace_nodes(parent_map, node):
    steps = []
    while parent_map[node] is not None:
        node, path, deriv = parent_map[node]
        if deriv is not None:
            steps.append(_embed(node, path, deriv))
    steps.reverse()
    return steps


def _chain(nodes, start):
    if not nodes:
        return FRefl(start)
    d = nodes[0]
    for n in nodes[1:]:
        d = FTrans(d, n)
    return d
