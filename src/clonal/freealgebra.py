"""The free algebra of a second-order presentation on a base clone.

Raw free terms are built from variables, elements of the base clone applied
to argument terms, and the presentation's operators.  The equational theory
is represented by checkable proof trees whose rules are:

  * congruence for base-clone applications and for operators;
  * presentation equations instantiated by metasubstitution, with pairwise
    premises;
  * the variable-collapse law  f = var_i  applied:  <var_i>(t_1..t_n) ~ t_i;
  * the substitution-collapse law
      <f>(<s_1>(ts), ..., <s_k>(ts)) ~ <f[s]>(ts);

plus reflexivity, symmetry, and transitivity.  Those three, and the loop
over premises, are the rules every equational theory shares: the checker is
a ``firstorder._Kernel``, as the first-order checker is, and adds only its
term sorts, its comparison of middle terms and the rules above.  So a long
transitivity chain is walked with a loop, as in the first-order kernel.
The checker checks every base element with the base clone's ``check`` at
its declared arity.  Base elements are stored as raw representatives;
wherever the checker compares terms it uses the base clone's own equality,
so a proof never depends on the representative chosen inside an element
application.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .clones import Clone, CloneError, CloneHom, Renaming, Substitution, under_binders, weakening
from .firstorder import (
    FoOp,
    FoVar,
    TmClone,
    Verdict,
    _Kernel,
    _compositions,
    _fo_of_size,
    fo_size,
)
from .secondorder import (
    Algebra,
    CloneApp,
    FreeOp,
    FreeSortError,
    FreeTerm,
    FreeVar,
    SoPresentation,
    _TermChecker,
)
from .sorts import EMPTY, Context, Sort


# --------------------------------------------------------------------------
# Terms (the classes are ``secondorder``'s, the syntax layer's)
# --------------------------------------------------------------------------


def free_size(t: FreeTerm) -> int:
    """Node count; a clone application costs the size of its element plus
    its arguments."""
    match t:
        case FreeVar():
            return 1
        case CloneApp(element=e, args=args):
            return _element_size(e) + sum(free_size(a) for a in args)
        case FreeOp(args=args):
            return 1 + sum(free_size(b) for _, b in args)
    raise FreeSortError(f"not a free term: {t!r}")


def _element_size(e) -> int:
    if isinstance(e, (FoVar, FoOp)):
        return fo_size(e)
    return 1


def check_input(free: "FreeAlgebra", ctx: Context, sort: Sort, t: FreeTerm) -> None:
    """Raise FreeSortError unless ``t`` is a term of ``free`` at (ctx; sort)."""
    got = free.check(ctx, t)
    if got != sort:
        raise FreeSortError(f"term has sort {got}, expected {sort}")


def free_rename(t: FreeTerm, ren: Renaming) -> FreeTerm:
    match t:
        case FreeVar(index=i):
            j = ren.apply(i)
            return t if j == i else FreeVar(j)
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return CloneApp(e, actx, asort, tuple(free_rename(a, ren) for a in args))
        case FreeOp(name=name, sort_args=sort_args, args=args):
            return FreeOp(name, sort_args, under_binders(args, ren, free_rename))
    raise FreeSortError(f"not a free term: {t!r}")


def free_subst(t: FreeTerm, sigma: Substitution) -> FreeTerm:
    """Structural substitution: variables look up, clone applications and
    operators are homomorphic, with lifting under binders.  The identity
    substitution returns ``t`` itself."""
    comps = sigma.components
    if len(sigma.source) == len(comps) and all(
        type(c) is FreeVar and c.index == i for i, c in enumerate(comps, start=1)
    ):
        return t
    return _free_subst(t, sigma)


def _free_subst(t: FreeTerm, sigma: Substitution) -> FreeTerm:
    match t:
        case FreeVar(index=j):
            return sigma.component(j)
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return CloneApp(e, actx, asort, tuple(_free_subst(a, sigma) for a in args))
        case FreeOp(name=name, sort_args=sort_args, args=args):
            lifted = under_binders(args, sigma, _free_subst, free_rename, FreeVar)
            return FreeOp(name, sort_args, lifted)
    raise FreeSortError(f"not a free term: {t!r}")


def free_instantiate_last(t: FreeTerm, ctx: Context, arg: FreeTerm) -> FreeTerm:
    """``free_subst(t, Substitution(ctx, ctx + binder, (x1, ..., xn, arg)))``
    for a one-sort ``binder``: the last variable of ``t``'s context becomes
    ``arg``, with no lift of the identity part under binders.

    In de Bruijn levels, variable i <= n is kept as the same object, variable
    n+1 becomes ``arg`` weakened past the binders crossed so far (once per
    distinct binder context), and a variable bound inside ``t`` moves down
    one index."""
    return _instantiate_last(t, ctx, arg, EMPTY, {EMPTY: arg})


def _instantiate_last(t: FreeTerm, ctx: Context, arg: FreeTerm, extra: Context, weakened: dict):
    match t:
        case FreeVar(index=i):
            n = len(ctx)
            if i <= n:
                return t
            if i > n + 1:
                return FreeVar(i - 1)
            a = weakened.get(extra)
            if a is None:
                a = weakened[extra] = free_rename(arg, weakening(ctx, extra))
            return a
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            return CloneApp(e, actx, asort, tuple(
                _instantiate_last(a, ctx, arg, extra, weakened) for a in args
            ))
        case FreeOp(name=name, sort_args=sort_args, args=args):
            out = []
            for binder, body in args:
                inner = extra + binder if binder else extra
                out.append((binder, _instantiate_last(body, ctx, arg, inner, weakened)))
            return FreeOp(name, sort_args, tuple(out))
    raise FreeSortError(f"not a free term: {t!r}")


def free_metasubst(free, t, metactx, ctx: Context, sides: tuple) -> FreeTerm:
    """``interpret_term(free, t, metactx, EMPTY, ctx, sides)`` for a side
    ``t`` of an equation, built as a free term directly: ``sides[i]`` is a
    term over ``ctx`` extended by metavariable i+1's parameters.  A
    metavariable applied to exactly the variables it is declared over is its
    side itself; one applied to one argument outside any binder (``m1[m2]``)
    is ``free_instantiate_last``; one with no parameters under a binder is
    its side weakened past the binder; any other goes through ``free_subst``.
    An operator is built as ``free.interpret`` builds it."""
    return _metasubst(free, t, metactx, EMPTY, ctx, sides)


def _metasubst(free, t, metactx, xi: Context, ctx: Context, sides: tuple) -> FreeTerm:
    if type(t) is FreeVar:
        return FreeVar(len(ctx) + t.index)
    if type(t) is FreeOp:
        bodies = tuple(
            _metasubst(free, body, metactx, xi + binder, ctx, sides) for binder, body in t.args
        )
        return free.interpret(t.name, t.sort_args, ctx + xi, bodies)
    i, args = t.element.index, t.args  # t is metavariable i applied to args
    params, side = metactx.decl(i).ctx, sides[i - 1]
    if xi == params and all(type(a) is FreeVar and a.index == j for j, a in enumerate(args, 1)):
        return side
    if not xi and len(args) == 1:
        return free_instantiate_last(side, ctx, _metasubst(free, args[0], metactx, xi, ctx, sides))
    if not args:
        return free_rename(side, weakening(ctx, xi))
    head = tuple(FreeVar(j) for j in range(1, len(ctx) + 1))
    tail = tuple(_metasubst(free, a, metactx, xi, ctx, sides) for a in args)
    return free_subst(side, Substitution(ctx + xi, ctx + params, head + tail))


# --------------------------------------------------------------------------
# The clone-with-algebra
# --------------------------------------------------------------------------


class FreeAlgebra(Algebra, Clone):
    """The free algebra of ``presentation`` on ``base``: simultaneously a
    clone (raw free terms up to the presentation's equations) and an algebra
    (operators build syntax).

    ``term_eq`` compares normal forms by evaluation (``nbe.nbe_normalize``);
    ``equality.free_equal`` decides equality with a witness.
    """

    def __init__(self, presentation: SoPresentation, base: Clone):
        if presentation.signature.sort_set != base.sort_set:
            raise CloneError("presentation and base clone sort sets differ")
        self.presentation = presentation
        self.base = base
        self.sort_set = base.sort_set
        self.terms = _TermChecker(base, presentation.signature)

    @property
    def clone(self) -> "FreeAlgebra":
        """The algebra's carrier clone: itself (a property, so that a free
        algebra holds no reference cycle)."""
        return self

    # Clone interface ---------------------------------------------------

    def var(self, ctx: Context, i: int) -> FreeTerm:
        ctx.sort_at(i)
        return FreeVar(i)

    def subst(self, t: FreeTerm, sigma: Substitution) -> FreeTerm:
        return free_subst(t, sigma)

    def term_eq(self, ctx, sort, t, u) -> bool:
        if t is u or t == u:  # equality is reflexive: no normalization needed
            return True
        if self.presentation.calculus is None:  # no normalizer; raw_eq is sound
            return raw_eq(self.base, ctx, sort, t, u)
        from .nbe import nbe_for  # nbe imports this module

        engine = nbe_for(self)
        return engine.normalize(ctx, sort, t) == engine.normalize(ctx, sort, u)

    def enumerate_terms(self, ctx: Context, sort: Sort, depth: int, limit: int | None = None) -> list:
        return enumerate_free_terms(self, ctx, sort, max_depth=depth, limit=limit)

    def check(self, ctx: Context, t: FreeTerm) -> Sort:
        return self.terms.sort(ctx, t)

    # Algebra interface --------------------------------------------------

    def interpret(self, name, sort_args, ctx, args):
        arity = self.presentation.signature.arity(name, sort_args)
        return FreeOp(
            name, sort_args, tuple((bc, a) for (bc, _), a in zip(arity.binders, args))
        )

    # Unit ----------------------------------------------------------------

    def unit(self, ctx: Context, sort: Sort, t) -> FreeTerm:
        """The inclusion of the base clone: t becomes the element t applied
        to the variables of its context."""
        return CloneApp(t, ctx, sort, tuple(FreeVar(i) for i in range(1, len(ctx) + 1)))


def raw_eq(base: Clone, ctx: Context, sort: Sort, t: FreeTerm, u: FreeTerm) -> bool:
    """Structural equality that compares base elements with the base clone's
    own equality (insensitive to the representative inside an element).
    Every clone's ``term_eq`` is reflexive, so equal terms and elements skip
    it: an element that diverges under ``RewriteEq`` equals itself here,
    where ``term_eq`` would raise."""
    if t is u or t == u:
        return True
    match (t, u):
        case (FreeVar(index=i), FreeVar(index=j)):
            return i == j
        case (CloneApp() as a, CloneApp() as b):
            if a.arity_ctx != b.arity_ctx or a.arity_sort != b.arity_sort:
                return False
            if a.element != b.element and not base.term_eq(
                a.arity_ctx, a.arity_sort, a.element, b.element
            ):
                return False
            return all(
                raw_eq(base, ctx, s, x, y)
                for x, y, s in zip(a.args, b.args, a.arity_ctx)
            )
        case (FreeOp() as a, FreeOp() as b):
            if a.name != b.name or a.sort_args != b.sort_args or len(a.args) != len(b.args):
                return False
            for (bc1, x), (bc2, y) in zip(a.args, b.args):
                if bc1 != bc2:
                    return False
                if not raw_eq(base, ctx + bc1, sort, x, y):
                    return False
            return True
    return False


class UnitHom(CloneHom):
    """eta : X -> F X, sending an element to itself applied to variables."""

    def __init__(self, free: FreeAlgebra):
        super().__init__(free.base, free)
        self.free = free

    def apply(self, ctx, sort, t):
        return self.free.unit(ctx, sort, t)


def unit_hom(free: FreeAlgebra) -> UnitHom:
    return UnitHom(free)


class FoldHom(CloneHom):
    """The unique algebra map F X -> Y extending f : X -> Y.clone.

    Variables go to variables, an element application becomes f of the
    element substituted at the folded arguments, and operator nodes are
    interpreted in the target algebra.
    """

    def __init__(self, free: FreeAlgebra, target: Algebra, f: CloneHom):
        super().__init__(free, target.clone)
        self.free = free
        self.target_algebra = target
        self.f = f

    def apply(self, ctx: Context, sort: Sort, t: FreeTerm):
        y = self.target_algebra.clone
        match t:
            case FreeVar(index=i):
                return y.var(ctx, i)
            case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
                folded = tuple(
                    self.apply(ctx, s, a) for a, s in zip(args, actx)
                )
                mapped = self.f.apply(actx, asort, e)
                return y.subst(mapped, Substitution(ctx, actx, folded))
            case FreeOp(name=name, sort_args=sort_args, args=args):
                arity = self.free.presentation.signature.arity(name, sort_args)
                folded = tuple(
                    self.apply(ctx + binder, bsort, body)
                    for (binder, body), (_, bsort) in zip(args, arity.binders)
                )
                return self.target_algebra.interpret(name, sort_args, ctx, folded)
        raise FreeSortError(f"not a free term: {t!r}")


def fold_hom(free: FreeAlgebra, target: Algebra, f: CloneHom) -> FoldHom:
    if f.source is not free.base:
        raise CloneError("fold requires a homomorphism out of the base clone")
    # terms are plain data, so a structurally matching clone object works;
    # only a sort-set mismatch is outright wrong
    if f.target.sort_set != target.clone.sort_set:
        raise CloneError("fold target sort set differs from the algebra's")
    return FoldHom(free, target, f)


# --------------------------------------------------------------------------
# Equational proof objects
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FRefl:
    term: FreeTerm


@dataclass(frozen=True)
class FSym:
    child: "FreeDerivation"


@dataclass(frozen=True)
class FTrans:
    left: "FreeDerivation"
    right: "FreeDerivation"


@dataclass(frozen=True)
class FCongClone:
    """Congruence at a base-element application."""

    element: object
    arity_ctx: Context
    arity_sort: Sort
    children: tuple["FreeDerivation", ...]


@dataclass(frozen=True)
class FCongOp:
    name: str
    sort_args: tuple[Sort, ...]
    children: tuple["FreeDerivation", ...]


@dataclass(frozen=True)
class FAxiom:
    """A presentation equation with one premise per metavariable; premise i
    proves lhs-instantiation_i ~ rhs-instantiation_i over the extended
    context."""

    equation: str
    sort_args: tuple[Sort, ...]
    children: tuple["FreeDerivation", ...]


@dataclass(frozen=True)
class FVarLaw:
    """<var_i>(t_1..t_n) ~ t_i."""

    index: int
    arg_ctx: Context
    args: tuple[FreeTerm, ...]


@dataclass(frozen=True)
class FSubstLaw:
    """<f>(<s_1>(ts), ..., <s_k>(ts)) ~ <f[s]>(ts)."""

    element: object
    element_ctx: Context  # arity context of f (targets of s)
    element_sort: Sort
    subst_components: tuple  # base-clone terms s_i over arg_ctx
    arg_ctx: Context  # shared arity context of the argument tuple
    args: tuple[FreeTerm, ...]


FreeDerivation = FRefl | FSym | FTrans | FCongClone | FCongOp | FAxiom | FVarLaw | FSubstLaw


def enumerate_free_terms(
    free: FreeAlgebra,
    ctx: Context,
    sort: Sort,
    max_depth: int | None = None,
    max_size: int | None = None,
    limit: int | None = None,
) -> list[FreeTerm]:
    """Deterministic, duplicate-free enumeration of well-sorted free terms.

    Exactly one of ``max_depth`` / ``max_size`` must be given.  Operator
    schemas and binder sorts are instantiated at the sorts of height <= 1;
    base-clone elements range over contexts of length <= 2 over the same
    sorts.  ``limit`` caps every intermediate pool; it goes with
    ``max_depth`` only.
    """
    if (max_depth is None) == (max_size is None):
        raise CloneError("specify exactly one of max_depth / max_size")
    if limit is not None and max_size is not None:
        raise CloneError("limit caps a max_depth enumeration; max_size takes none")
    binder_sorts = free.sort_set.sorts_up_to_height(1)
    sig = free.presentation.signature
    op_instances = []  # (name, sort arguments, arity, binder contexts)
    for name, sort_args in sig.instances(binder_sorts):
        arity = sig.arity(name, sort_args)
        op_instances.append((name, sort_args, arity, tuple(bc for bc, _ in arity.binders)))

    base_ops = None
    if max_size is not None and isinstance(free.base, TmClone):
        base_sig = free.base.presentation.signature
        base_ops = [(o, sa, *base_sig.arity(o, sa)) for o, sa in base_sig.instances(binder_sorts)]
    shapes = (free, free.sort_set.contexts_up_to(2, binder_sorts), op_instances, base_ops)
    if max_depth is not None:
        return _free_upto(ctx, sort, max_depth, shapes, limit, {})

    exact: dict = {}
    base_exact: dict = {}  # arity context -> its (sort, size) table, this call only
    result: list[FreeTerm] = []
    for n in range(1, max_size + 1):
        result.extend(_free_of_size(ctx, sort, n, shapes, exact, base_exact))
    return list(dict.fromkeys(result))


def _full(out: list, limit) -> bool:
    return limit is not None and len(out) >= 2 * limit


def _free_upto(c: Context, s: Sort, d: int, shapes: tuple, limit, memo: dict) -> list[FreeTerm]:
    """enumerate_free_terms at (c, s) and depth ``d``; ``shapes`` is the
    algebra, the element contexts and the operator instances, and ``memo``
    memoizes each (context, sort, depth)."""
    key = (c, s, d)
    if key in memo:
        return memo[key]
    free, element_contexts, op_instances, _ = shapes
    out: list[FreeTerm] = [FreeVar(i) for i in range(1, len(c) + 1) if c.sort_at(i) == s]
    if d > 0:
        for actx in element_contexts:
            if _full(out, limit):
                break
            elements = free.base.enumerate_terms(actx, s, d - 1, limit=limit)
            pools = [_free_upto(c, a, d - 1, shapes, limit, memo) for a in actx]
            for e in elements:
                for combo in itertools.product(*pools):
                    out.append(CloneApp(e, actx, s, combo))
                    if _full(out, limit):
                        break
                if _full(out, limit):
                    break
        for name, sort_args, arity, binders in op_instances:
            if arity.result != s or _full(out, limit):
                continue
            pools = [_free_upto(c + bc, bs, d - 1, shapes, limit, memo) for bc, bs in arity.binders]
            for combo in itertools.product(*pools):
                out.append(FreeOp(name, sort_args, tuple(zip(binders, combo))))
                if _full(out, limit):
                    break
    res = list(dict.fromkeys(out))
    if limit is not None:
        res = res[:limit]
    memo[key] = res
    return res


def _free_of_size(c: Context, s: Sort, n: int, shapes: tuple, exact: dict,
                  base_exact: dict) -> list[FreeTerm]:
    """The free terms at (c, s) with exactly ``n`` nodes; ``shapes`` is as in
    ``_free_upto``, with the base operator instances of a term clone last
    (None for a variable-like base).  ``exact`` memoizes each (context,
    sort, size), and ``base_exact`` each arity context's element table."""
    key = (c, s, n)
    if key in exact:
        return exact[key]
    free, element_contexts, op_instances, base_ops = shapes
    out: list[FreeTerm] = []
    if n == 1:
        out.extend(FreeVar(i) for i in range(1, len(c) + 1) if c.sort_at(i) == s)
    for actx in element_contexts:
        k = len(actx)
        if k == 0:
            out.extend(CloneApp(e, actx, s, ())
                       for e in _base_elements_of_size(free, actx, s, n, base_ops, base_exact))
            continue
        for esize in range(1, n - k + 1):
            elements = _base_elements_of_size(free, actx, s, esize, base_ops, base_exact)
            if not elements:
                continue
            for split in _compositions(n - esize, k):
                pools = [_free_of_size(c, a, m, shapes, exact, base_exact)
                         for a, m in zip(actx, split)]
                for e in elements:
                    for combo in itertools.product(*pools):
                        out.append(CloneApp(e, actx, s, combo))
    for name, sort_args, arity, binders in op_instances:
        if arity.result != s:
            continue
        k = len(arity.binders)
        if k == 0 or n < 1 + k:
            continue
        for split in _compositions(n - 1, k):
            pools = [_free_of_size(c + bc, bs, m, shapes, exact, base_exact)
                     for (bc, bs), m in zip(arity.binders, split)]
            for combo in itertools.product(*pools):
                out.append(FreeOp(name, sort_args, tuple(zip(binders, combo))))
    res = list(dict.fromkeys(out))
    exact[key] = res
    return res


def _base_elements_of_size(free, actx: Context, s: Sort, n: int, base_ops, base_exact: dict):
    """The base elements at (actx, s) of size ``n``."""
    if base_ops is not None:
        return _fo_of_size(s, n, actx, base_ops, base_exact.setdefault(actx, {}))
    # variable-like bases: elements are the positions, each of size 1
    if n == 1:
        return free.base.enumerate_terms(actx, s, 0)
    return []


def check_free_derivation(free: FreeAlgebra, ctx: Context, d: FreeDerivation) -> Verdict:
    """Accept iff every node instantiates one of the construction's rules.

    Where two terms must coincide (transitivity middles, conclusions) they
    are compared by raw_eq, so base-element representatives may differ by
    base-provable equalities.
    """
    return _FreeChecker(free).go(d, ctx, ())


class _FreeChecker(_Kernel):
    """One check_free_derivation call over a free algebra: terms are sorted
    by the algebra's ``check`` (its sort checker ``terms`` keeps the
    elements that passed) and middle terms compared by raw_eq."""

    def __init__(self, free: FreeAlgebra):
        super().__init__()
        self.free = free
        self.base = free.base
        self.sig = free.presentation.signature

    def term_sort(self, ctx: Context, t: FreeTerm) -> Sort:
        return self.free.check(ctx, t)

    def same(self, ctx: Context, sort: Sort, t: FreeTerm, u: FreeTerm) -> bool:
        return raw_eq(self.base, ctx, sort, t, u)

    def cong_clone(self, node: FCongClone, ctx: Context, path) -> Verdict:
        e, actx, asort, children = node.element, node.arity_ctx, node.arity_sort, node.children
        if len(children) != len(actx):
            return Verdict(False, error="clone congruence arity mismatch", path=path)
        try:
            self.free.terms.element(actx, asort, e)
        except FreeSortError as err:
            return Verdict(False, error=str(err), path=path)
        sides = self.premises("clone congruence", children, itertools.repeat(ctx), actx, path)
        if isinstance(sides, Verdict):
            return sides
        ls, rs = sides
        return Verdict(
            True, CloneApp(e, actx, asort, tuple(ls)), CloneApp(e, actx, asort, tuple(rs)), asort
        )

    def cong_op(self, node: FCongOp, ctx: Context, path) -> Verdict:
        name, sort_args, children = node.name, node.sort_args, node.children
        try:
            arity = self.sig.arity(name, sort_args)
        except CloneError as e:
            return Verdict(False, error=str(e), path=path)
        if len(children) != len(arity.binders):
            return Verdict(False, error="operator congruence arity mismatch", path=path)
        binders = [b for b, _ in arity.binders]
        sides = self.premises(
            "operator congruence", children, [ctx + b for b in binders],
            [s for _, s in arity.binders], path,
        )
        if isinstance(sides, Verdict):
            return sides
        ls, rs = sides
        return Verdict(
            True,
            FreeOp(name, sort_args, tuple(zip(binders, ls))),
            FreeOp(name, sort_args, tuple(zip(binders, rs))),
            arity.result,
        )

    def axiom(self, node: FAxiom, ctx: Context, path) -> Verdict:
        eq_name, children = node.equation, node.children
        try:
            schema = self.free.presentation.equation(eq_name)
            metactx, eq_sort, lhs, rhs = schema.instantiate(node.sort_args)
        except CloneError as e:
            return Verdict(False, error=str(e), path=path)
        if len(children) != len(metactx):
            return Verdict(False, error=f"axiom {eq_name} needs {len(metactx)} premises", path=path)
        sides = self.premises(
            "axiom", children, [ctx + d.ctx for d in metactx], [d.sort for d in metactx], path
        )
        if isinstance(sides, Verdict):
            return sides
        ls, rs = sides
        return Verdict(
            True,
            free_metasubst(self.free, lhs, metactx, ctx, tuple(ls)),
            free_metasubst(self.free, rhs, metactx, ctx, tuple(rs)),
            eq_sort,
        )

    def var_law(self, node: FVarLaw, ctx: Context, path) -> Verdict:
        i, actx, args = node.index, node.arg_ctx, node.args
        if len(args) != len(actx) or not 1 <= i <= len(actx):
            return Verdict(False, error="variable-collapse arity mismatch", path=path)
        sides = self.premises(  # the arguments are reflexivity premises
            "variable-collapse", map(FRefl, args), itertools.repeat(ctx), actx, path
        )
        if isinstance(sides, Verdict):
            return sides
        sort = actx.sort_at(i)
        return Verdict(True, CloneApp(self.base.var(actx, i), actx, sort, args), args[i - 1], sort)

    def subst_law(self, node: FSubstLaw, ctx: Context, path) -> Verdict:
        f, ectx, esort = node.element, node.element_ctx, node.element_sort
        comps, actx, args = node.subst_components, node.arg_ctx, node.args
        if len(comps) != len(ectx) or len(args) != len(actx):
            return Verdict(False, error="substitution-collapse arity mismatch", path=path)
        try:
            self.free.terms.element(ectx, esort, f)
            for j, s in enumerate(comps, start=1):
                self.free.terms.element(actx, ectx.sort_at(j), s)
        except FreeSortError as err:
            return Verdict(False, error=str(err), path=path)
        sides = self.premises(
            "substitution-collapse", map(FRefl, args), itertools.repeat(ctx), actx, path
        )
        if isinstance(sides, Verdict):
            return sides
        inner = tuple(
            CloneApp(s, actx, ectx.sort_at(j), args) for j, s in enumerate(comps, start=1)
        )
        composed = self.base.subst(f, Substitution(actx, ectx, comps))
        return Verdict(
            True, CloneApp(f, ectx, esort, inner), CloneApp(composed, actx, esort, args), esort
        )

    rules = {
        FRefl: _Kernel.refl,
        FSym: _Kernel.sym,
        FTrans: _Kernel.trans,
        FCongClone: cong_clone,
        FCongOp: cong_op,
        FAxiom: axiom,
        FVarLaw: var_law,
        FSubstLaw: subst_law,
    }
