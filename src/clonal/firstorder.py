"""First-order signatures, terms, equational logic, rewriting, presented clones.

Operators are declared as schemas: a schema with no sort parameters is an
ordinary operator, while e.g. an if-then-else family indexed by its result
sort carries one parameter, instantiated lazily at the sorts in use.  Terms
store the chosen sort arguments on every operator node, so checking never
has to infer them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field

from .clones import Clone, CloneError, Signature, SortChecker, SortError, Substitution
from .sorts import (
    Context,
    Sort,
    SortSet,
    SortVar,
    instantiate_sort,
    match_sort,
    stored_hash,
)


class FoSortError(SortError):
    """Ill-sorted first-order term; carries the path to the offending node."""


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FoVar:
    index: int  # 1-based position in the context

    def __str__(self) -> str:
        return f"x{self.index}"


@stored_hash
@dataclass(frozen=True)
class FoOp:
    """An operator node.  Its hash (``stored_hash``) and node count
    (``fo_size``) are computed on first use and stored on the node, so a
    term is hashed once however often it is probed, and terms that are never
    hashed cost nothing extra."""

    name: str
    sort_args: tuple[Sort, ...]
    args: tuple["FoTerm", ...]

    _size = None

    def __str__(self) -> str:
        inst = "" if not self.sort_args else "[" + ",".join(map(str, self.sort_args)) + "]"
        return f"{self.name}{inst}({', '.join(map(str, self.args))})"


FoTerm = FoVar | FoOp


def fo_size(t: FoTerm) -> int:
    """Node count, stored on each operator node once computed."""
    if isinstance(t, FoVar):
        return 1
    n = t._size
    if n is None:
        n = 1 + sum(fo_size(a) for a in t.args)
        object.__setattr__(t, "_size", n)
    return n


# --------------------------------------------------------------------------
# Signatures and presentations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FoOpSchema:
    """An operator family: concrete when ``params`` is empty."""

    name: str
    params: tuple[str, ...]
    arg_sorts: tuple  # sort templates, may contain SortVar
    result: object  # sort template

    def arity(self, sort_args: tuple[Sort, ...]) -> tuple[Context, Sort]:
        if len(sort_args) != len(self.params):
            raise FoSortError(
                f"operator {self.name} expects {len(self.params)} sort arguments, "
                f"got {len(sort_args)}"
            )
        binding = dict(zip(self.params, sort_args))
        args = Context(tuple(instantiate_sort(s, binding) for s in self.arg_sorts))
        return args, instantiate_sort(self.result, binding)


@dataclass(frozen=True)
class FoSignature(Signature, SortChecker):
    """``FoOpSchema``s by name; also the node case of first-order terms for
    the shared sort checker, so ``sig.sort(ctx, t)`` is the sort of ``t``."""

    error = FoSortError

    def node(self, ctx: Context, t: FoTerm):
        if type(t) is FoVar:
            return self.variable(ctx, t.index)
        if type(t) is FoOp:
            args = t.args
            arg_ctx, result = self.arity(t.name, t.sort_args)
            if len(args) != len(arg_ctx.entries):
                raise FoSortError(
                    f"operator {t.name} expects {len(arg_ctx)} arguments, got {len(args)}"
                )
            return result, tuple(zip(args, itertools.repeat(ctx), arg_ctx.entries))
        raise FoSortError(f"not a first-order term: {t!r}")


@dataclass(frozen=True)
class FoEquationSchema:
    """A named equation family; both sides share the declared arity."""

    name: str
    params: tuple[str, ...]
    ctx: tuple  # sort templates
    sort: object  # sort template
    lhs: FoTerm  # may mention SortVar inside operator sort_args
    rhs: FoTerm
    # each instance built so far, by sort arguments; shared by every caller
    _instances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def instantiate(self, sort_args: tuple[Sort, ...]) -> tuple[Context, Sort, FoTerm, FoTerm]:
        found = self._instances.get(sort_args)
        if found is not None:
            return found
        if len(sort_args) != len(self.params):
            raise FoSortError(f"equation {self.name} expects {len(self.params)} sort arguments")
        binding = dict(zip(self.params, sort_args))
        ctx = Context(tuple(instantiate_sort(s, binding) for s in self.ctx))
        sort = instantiate_sort(self.sort, binding)
        found = ctx, sort, _subst_sorts(self.lhs, binding), _subst_sorts(self.rhs, binding)
        self._instances[sort_args] = found
        return found


def _subst_sorts(t: FoTerm, binding: dict[str, Sort]) -> FoTerm:
    if isinstance(t, FoVar):
        return t
    return FoOp(
        t.name,
        tuple(instantiate_sort(s, binding) for s in t.sort_args),
        tuple(_subst_sorts(a, binding) for a in t.args),
    )


@dataclass(frozen=True)
class FoPresentation:
    """A signature with named equations.  ``_lemmas`` holds the conclusion
    of each lemma the kernel has accepted against this presentation, keyed
    by the value (context, proof), and ``convergent_system`` the system that
    decides it, once found; like a stored hash, neither is a field for
    ``==``, ``hash``, ``repr`` or pickles."""

    name: str
    signature: FoSignature
    equations: tuple[FoEquationSchema, ...]
    _by_name: dict = field(init=False, repr=False, compare=False)
    _lemmas: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_name: dict = {}
        for e in self.equations:
            by_name.setdefault(e.name, e)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_lemmas", {})

    def __getstate__(self):
        return {"name": self.name, "signature": self.signature, "equations": self.equations}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @functools.cached_property
    def convergent_system(self) -> "RewriteSystem | None":
        """The first candidate system that passes ``check_convergence`` and
        whose presentation has this one's operators and equations (its name
        may differ), so that distinct normal forms under it mean not
        provable; None when no candidate does.  The candidates are the
        oriented axioms, then the stock theory's system when
        ``theories.stock_theory`` recognizes this presentation."""
        for rs in _candidate_systems(self):
            if rs is not None and rs.presentation.same_theory(self) and rs.convergence.ok:
                return rs
        return None

    def same_theory(self, other: "FoPresentation") -> bool:
        """The same operators and equations, whatever the two are named."""
        return (
            self.signature.operators == other.signature.operators
            and self.equations == other.equations
        )

    def equation(self, name: str) -> FoEquationSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise FoSortError(f"unknown equation {name!r}") from None

    def check_well_formed(self, sorts: list[Sort] | None = None):
        """Both sides of every equation re-check at the declared arity."""
        pool = sorts if sorts is not None else self.signature.sort_set.base_sorts()
        for schema in self.equations:
            for combo in itertools.product(pool, repeat=len(schema.params)):
                ctx, sort, lhs, rhs = schema.instantiate(combo)
                for side in (lhs, rhs):
                    got = fo_check_term(self.signature, ctx, side)
                    if got != sort:
                        raise FoSortError(
                            f"equation {schema.name} side has sort {got}, declared {sort}"
                        )


# --------------------------------------------------------------------------
# Checking, substitution, enumeration
# --------------------------------------------------------------------------


def fo_check_term(sig: FoSignature, ctx: Context, t: FoTerm) -> Sort:
    """Return the sort of ``t`` in ``ctx``, or raise with the failing path."""
    return sig.sort(ctx, t)


def fo_subst(t: FoTerm, sigma: Substitution) -> FoTerm:
    """Simultaneous substitution, homomorphic on operator nodes."""
    match t:
        case FoVar(index=j):
            return sigma.component(j)
        case FoOp(name=name, sort_args=sort_args, args=args):
            return FoOp(name, sort_args, tuple(fo_subst(a, sigma) for a in args))
    raise FoSortError(f"not a first-order term: {t!r}")


def enumerate_fo_terms(
    sig: FoSignature,
    ctx: Context,
    sort: Sort,
    depth: int,
    limit: int | None = None,
) -> list[FoTerm]:
    """All well-sorted terms of depth <= ``depth``, duplicate-free, in a
    deterministic order (variables first, then operator layers).

    Operator schemas are instantiated at the sorts of ``ctx``, ``sort`` and
    the base sorts; ``limit`` caps every intermediate pool, keeping budgeted
    runs cheap.
    """
    pool = list(dict.fromkeys(list(ctx) + [sort] + sig.sort_set.base_sorts()))
    instances = [(n, sa, *sig.arity(n, sa)) for n, sa in sig.instances(pool)]

    return _fo_upto(sort, depth, ctx, instances, limit, {})


def _fo_upto(s: Sort, d: int, ctx: Context, instances: list, limit, by_depth: dict) -> list[FoTerm]:
    """enumerate_fo_terms at (s, d); ``by_depth`` memoizes each (sort, depth)."""
    key = (s, d)
    if key in by_depth:
        return by_depth[key]
    out = [FoVar(i) for i in range(1, len(ctx) + 1) if ctx.sort_at(i) == s]
    if d > 0:
        for name, sort_args, arg_ctx, result in instances:
            if result != s:
                continue
            if limit is not None and len(out) >= limit:
                break
            pools = [_fo_upto(a, d - 1, ctx, instances, limit, by_depth) for a in arg_ctx]
            for combo in itertools.product(*pools):
                out.append(FoOp(name, sort_args, combo))
                if limit is not None and len(out) >= 2 * limit:
                    break
    dedup = list(dict.fromkeys(out))
    if limit is not None:
        dedup = dedup[:limit]
    by_depth[key] = dedup
    return dedup


def enumerate_fo_terms_by_size(
    sig: FoSignature,
    ctx: Context,
    sort: Sort,
    size: int,
) -> list[FoTerm]:
    """All well-sorted terms with at most ``size`` nodes, deterministic and
    duplicate-free."""
    pool = list(dict.fromkeys(list(ctx) + [sort] + sig.sort_set.base_sorts()))
    instances = [(n, sa, *sig.arity(n, sa)) for n, sa in sig.instances(pool)]

    exact: dict[tuple[Sort, int], list[FoTerm]] = {}
    result: list[FoTerm] = []
    for n in range(1, size + 1):
        result.extend(_fo_of_size(sort, n, ctx, instances, exact))
    return list(dict.fromkeys(result))


def _fo_of_size(s: Sort, n: int, ctx: Context, instances: list, exact: dict) -> list[FoTerm]:
    """The terms of sort ``s`` with exactly ``n`` nodes; ``exact`` memoizes
    each (sort, size)."""
    key = (s, n)
    if key in exact:
        return exact[key]
    out: list[FoTerm] = []
    if n == 1:
        out.extend(FoVar(i) for i in range(1, len(ctx) + 1) if ctx.sort_at(i) == s)
    if n >= 1:
        for name, sort_args, arg_ctx, result in instances:
            if result != s:
                continue
            k = len(arg_ctx)
            if k == 0:
                if n == 1:
                    out.append(FoOp(name, sort_args, ()))
                continue
            for split in _compositions(n - 1, k):
                pools = [_fo_of_size(a, m, ctx, instances, exact) for a, m in zip(arg_ctx, split)]
                for combo in itertools.product(*pools):
                    out.append(FoOp(name, sort_args, combo))
    exact[key] = out
    return out


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` positives."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# --------------------------------------------------------------------------
# Equational-logic derivations
# --------------------------------------------------------------------------

# Derivation nodes store their hash (``stored_hash``): a lemma's proof keys
# the presentation's table of accepted lemmas, and is looked up there at
# every firing.


@stored_hash
@dataclass(frozen=True)
class FoRefl:
    term: FoTerm


@stored_hash
@dataclass(frozen=True)
class FoSym:
    child: "FoDerivation"


@stored_hash
@dataclass(frozen=True)
class FoTrans:
    left: "FoDerivation"
    right: "FoDerivation"


@stored_hash
@dataclass(frozen=True)
class FoCong:
    op: str
    sort_args: tuple[Sort, ...]
    children: tuple["FoDerivation", ...]


@stored_hash
@dataclass(frozen=True)
class FoAxiom:
    """An equation instance: children derive the substituted terms pairwise.

    Child i proves t'_i ~ u'_i; the conclusion substitutes the t'_i into the
    left side of the cited equation and the u'_i into the right side.
    """

    equation: str
    sort_args: tuple[Sort, ...]
    children: tuple["FoDerivation", ...]


@stored_hash
@dataclass(frozen=True)
class FoLemma:
    """Birkhoff's substitution rule on a proved equation: ``proof`` derives
    l ~ r : s in ``ctx``, child i proves u_i ~ v_i at sort ctx_i, and the
    node concludes l[u] ~ r[v] : s.  The kernel checks ``proof`` once per
    presentation; a rejection inside it is reported under position 0, and
    the children keep positions 1..n, as an axiom's do."""

    ctx: Context
    proof: "FoDerivation"
    children: tuple["FoDerivation", ...]


FoDerivation = FoRefl | FoSym | FoTrans | FoCong | FoAxiom | FoLemma


@dataclass
class Verdict:
    """A kernel's answer: an accepted derivation's conclusion lhs ~ rhs at
    ``sort``, or a rejection with its error and the derivation path.  Both
    the first-order and the free-algebra kernels return it; both are a
    ``_Kernel``, whose one reflexivity, symmetry, transitivity and premise
    loop they share."""

    ok: bool
    lhs: FoTerm | None = None
    rhs: FoTerm | None = None
    sort: Sort | None = None
    error: str | None = None
    path: tuple[int, ...] = ()

    def __bool__(self):
        return self.ok


class _Kernel:
    """The equational rules every kernel shares, for one check call.

    A kernel class gives ``term_sort(ctx, t)`` (raising CloneError on an
    ill-sorted term), ``same(ctx, sort, t, u)`` for transitivity's middle
    terms, and ``rules``: a class-level table from node class to a plain
    function ``rule(kernel, node, ctx, path)``, so that no instance refers
    to itself.  Each node is checked in its own context.  Paths: symmetry's
    child is 1, transitivity's sides are 1 and 2, and premise i is i."""

    rules: dict = {}

    def __init__(self):
        self.sorts: dict = {}  # (term, context) -> sort of each well-sorted refl term

    def go(self, node, ctx: Context, path) -> Verdict:
        rule = self.rules.get(type(node))
        if rule is None:
            return Verdict(False, error=f"unknown node {node!r}", path=path)
        return rule(self, node, ctx, path)

    def refl(self, node, ctx: Context, path) -> Verdict:
        t = node.term
        sort = self.sorts.get((t, ctx))
        if sort is None:
            try:
                sort = self.sorts[t, ctx] = self.term_sort(ctx, t)
            except CloneError as e:
                return Verdict(False, error=f"refl of ill-sorted term: {e}", path=path)
        return Verdict(True, t, t, sort)

    def sym(self, node, ctx: Context, path) -> Verdict:
        sub = self.go(node.child, ctx, path + (1,))
        if not sub.ok:
            return sub
        return Verdict(True, sub.rhs, sub.lhs, sub.sort)

    def trans(self, node, ctx: Context, path) -> Verdict:
        """A chain of transitivity nodes nested to the left, as traces and
        searches build it, walked with a loop rather than one recursive
        call per link; the paths and the order of checks are the recursive
        walk's, so a rejection is the same."""
        link = type(node)
        links = []
        while type(node) is link:
            links.append(node)
            node = node.left
        acc = self.go(node, ctx, path + (1,) * len(links))
        for depth in range(len(links) - 1, -1, -1):
            if not acc.ok:
                return acc
            here = path + (1,) * depth
            rv = self.go(links[depth].right, ctx, here + (2,))
            if not rv.ok:
                return rv
            if not self.same(ctx, acc.sort, acc.rhs, rv.lhs):
                return Verdict(
                    False,
                    error=f"transitivity middle terms disagree: {acc.rhs} vs {rv.lhs}",
                    path=here,
                )
            acc = Verdict(True, acc.lhs, rv.rhs, acc.sort)
        return acc

    def premises(self, rule: str, children, ctxs, sorts, path):
        """Check child i in context ctxs_i at sort sorts_i: the lists of the
        children's left and right sides, or the first rejection."""
        lefts, rights = [], []
        for i, (c, cx, want) in enumerate(zip(children, ctxs, sorts), start=1):
            sub = self.go(c, cx, path + (i,))
            if not sub.ok:
                return sub
            if sub.sort != want:
                return Verdict(
                    False,
                    error=f"{rule} child {i} has sort {sub.sort}, expected {want}",
                    path=path + (i,),
                )
            lefts.append(sub.lhs)
            rights.append(sub.rhs)
        return lefts, rights


def _best_first(t, t_size: int, u, u_size: int, moves, budget: int, meet):
    """Bidirectional best-first search (Pohl 1971) from t and u: the one loop
    of ``prove_fo_equal`` and of ``free_equal``'s search mode.

    One heap holds both frontiers, smallest term first, then first pushed;
    at most ``budget`` terms are popped.  ``moves(term, size)`` yields (new,
    path, step), ``step[1]`` the size change; ``meet(new, theirs)`` is the
    term of the other side's parent map that a newly reached term meets, or
    None.  Returns the trails of (before, path, step, after) from t and from
    u to the meeting terms, or None."""
    parents = ({t: None}, {u: None})  # term -> (before, path, step), None at a start
    seq = itertools.count()
    heap = [(t_size, next(seq), 0, t), (u_size, next(seq), 1, u)]
    popped, push = 0, heapq.heappush
    while heap and popped < budget:
        size, _, which, current = heapq.heappop(heap)
        popped += 1
        mark, theirs = parents[which].setdefault, parents[1 - which]
        for new, path, step in moves(current, size):
            link = (current, path, step)
            if mark(new, link) is not link:
                continue  # seen before
            other = meet(new, theirs)
            if other is not None:
                ends = (new, other) if which == 0 else (other, new)
                return _trail(parents[0], ends[0]), _trail(parents[1], ends[1])
            push(heap, (size + step[1], next(seq), which, new))
    return None


def _trail(parents: dict, term) -> list[tuple]:
    trail = []
    while parents[term] is not None:
        before, path, step = parents[term]
        trail.append((before, path, step, term))
        term = before
    trail.reverse()
    return trail


def check_fo_derivation(pres: FoPresentation, ctx: Context, d: FoDerivation) -> Verdict:
    """Accept iff every node is a correct instance of an equational-logic rule.

    Rejection carries the path (child indices) to the first bad node.
    """
    return _FoChecker(pres).go(d, ctx, ())


def _proved(pres: FoPresentation, ctx: Context, proof: FoDerivation, path) -> Verdict:
    """The conclusion of ``proof`` in ``ctx``, checked once per presentation:
    an accepted conclusion is kept in ``pres._lemmas`` under the value
    (ctx, proof), which is sound because both are frozen.  A rejection is
    never kept, so it is found again, at ``path``, on every call."""
    key = (ctx, proof)
    found = pres._lemmas.get(key)
    if found is None:
        v = _FoChecker(pres).go(proof, ctx, path)
        if not v.ok:
            return v
        found = pres._lemmas[key] = (v.lhs, v.rhs, v.sort)
    return Verdict(True, *found)


class _FoChecker(_Kernel):
    """One check_fo_derivation call over a presentation: terms are sorted
    by the shared sort checker (``FoSignature.node``) and middle terms
    compared by ``==``."""

    def __init__(self, pres: FoPresentation):
        super().__init__()
        self.pres = pres
        self.sig = pres.signature

    def term_sort(self, ctx: Context, t: FoTerm) -> Sort:
        return self.sig.sort(ctx, t)

    def same(self, ctx, sort, t: FoTerm, u: FoTerm) -> bool:
        return t == u

    def cong(self, node: FoCong, ctx: Context, path) -> Verdict:
        name, sort_args, children = node.op, node.sort_args, node.children
        try:
            arg_ctx, result = self.sig.arity(name, sort_args)
        except FoSortError as e:
            return Verdict(False, error=str(e), path=path)
        if len(children) != len(arg_ctx):
            return Verdict(False, error=f"congruence arity mismatch for {name}", path=path)
        sides = self.premises("congruence", children, itertools.repeat(ctx), arg_ctx, path)
        if isinstance(sides, Verdict):
            return sides
        lefts, rights = sides
        return Verdict(
            True, FoOp(name, sort_args, tuple(lefts)), FoOp(name, sort_args, tuple(rights)), result
        )

    def axiom(self, node: FoAxiom, ctx: Context, path) -> Verdict:
        eq_name, children = node.equation, node.children
        try:
            schema = self.pres.equation(eq_name)
            eq_ctx, eq_sort, lhs, rhs = schema.instantiate(node.sort_args)
        except FoSortError as e:
            return Verdict(False, error=str(e), path=path)
        if len(children) != len(eq_ctx):
            return Verdict(
                False, error=f"axiom {eq_name} needs {len(eq_ctx)} substituted positions", path=path
            )
        return self.instance("axiom", children, ctx, eq_ctx, lhs, rhs, eq_sort, path)

    def lemma(self, node: FoLemma, ctx: Context, path) -> Verdict:
        lemma_ctx, children = node.ctx, node.children
        if len(children) != len(lemma_ctx):
            return Verdict(
                False, error=f"lemma needs {len(lemma_ctx)} substituted positions", path=path
            )
        v = _proved(self.pres, lemma_ctx, node.proof, path + (0,))
        if not v.ok:
            return v
        return self.instance("lemma", children, ctx, lemma_ctx, v.lhs, v.rhs, v.sort, path)

    def instance(self, what, children, ctx, inst_ctx, lhs, rhs, sort, path) -> Verdict:
        """lhs[u] ~ rhs[v] : sort, where child i proves u_i ~ v_i at sort
        inst_ctx_i; both sides are instantiated through _instance_term
        tables, one shared by the two sides when every u_i is v_i."""
        sides = self.premises(what, children, itertools.repeat(ctx), inst_ctx, path)
        if isinstance(sides, Verdict):
            return sides
        lefts, rights = sides
        ltable = {FoVar(i): u for i, u in enumerate(lefts, start=1)}
        rtable = ltable if lefts == rights else {
            FoVar(i): v for i, v in enumerate(rights, start=1)
        }
        return Verdict(True, _instance_term(lhs, ltable), _instance_term(rhs, rtable), sort)

    rules = {
        FoRefl: _Kernel.refl,
        FoSym: _Kernel.sym,
        FoTrans: _Kernel.trans,
        FoCong: cong,
        FoAxiom: axiom,
        FoLemma: lemma,
    }


# --------------------------------------------------------------------------
# Rewriting
# --------------------------------------------------------------------------


MAX_REWRITE_STEPS = 10_000  # rewrites before normalizing gives up


class RewriteDivergence(Exception):
    """Rewriting ``term`` found no normal form.  ``trace`` holds the steps a
    traced run made: all MAX_REWRITE_STEPS of them at the step ceiling; when
    the term was or grew deeper than Python's recursion limit first
    (innermost, on a term growing at its root), those made until then.  An
    untraced run's is empty.  The message renders ``term`` by a loop, down to
    RENDER_DEPTH levels, so reporting a deep term does not recurse."""

    def __init__(self, term, trace, too_deep=False):
        why = "term deeper than the recursion limit" if too_deep else "step ceiling exceeded"
        super().__init__(f"{why} while rewriting {_render(term)}")
        self.trace = trace


RENDER_DEPTH = 40  # levels of a term a RewriteDivergence message shows; "..." below


def _render(t: FoTerm) -> str:
    """``str(t)`` for a term at most RENDER_DEPTH levels deep; an operator
    node below that depth prints as "...".  Written as a loop over a stack of
    subterms and closing text."""
    out = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        term, depth = item
        if type(term) is not FoOp:
            out.append(str(term))
        elif depth == RENDER_DEPTH:
            out.append("...")
        else:
            inst = "" if not term.sort_args else "[" + ",".join(map(str, term.sort_args)) + "]"
            out.append(f"{term.name}{inst}(")
            stack.append(")")
            for i in range(len(term.args) - 1, -1, -1):
                stack.append((term.args[i], depth + 1))
                if i:
                    stack.append(", ")
    return "".join(out)


@dataclass(frozen=True)
class RewriteStep:
    path: tuple[int, ...]
    equation: str
    sort_args: tuple[Sort, ...]
    instantiation: tuple[FoTerm, ...]  # one term per equation-context entry
    forward: bool
    before: FoTerm
    after: FoTerm
    # the fired rule and its certificate when it is a derived rule; None for an axiom
    derived: tuple[FoEquationSchema, FoDerivation] | None = None


@dataclass(frozen=True)
class RewriteSystem:
    """Oriented equations of a presentation, used as a rewrite procedure.

    The rules are the presentation's equations read left to right, followed
    by the ``derived`` rules: each is an equation schema paired with a
    derivation of ``lhs ~ rhs`` from the presentation's axioms, replayed by
    the kernel at construction, which keeps its conclusion on the
    presentation.  A derived-rule step therefore converts to a lemma node
    citing that proof, so every trace replays against the presentation
    alone without checking the proof again.  Derived rules are
    sort-monomorphic and carry names distinct from the axioms; a rule whose
    left side is a bare variable is rejected, so every rule is filed under
    the head symbol of its left side, in firing order; a subterm is tried
    only against the rules of its head.
    """

    presentation: FoPresentation
    derived: tuple[tuple[FoEquationSchema, FoDerivation], ...] = ()
    _rules: tuple = field(init=False, repr=False, compare=False)
    _by_head: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rules = tuple((schema, None) for schema in self.presentation.equations)
        if self.derived:
            self._certify()
            rules += self.derived
        by_head: dict[str, list] = {}
        for schema, proof in rules:
            if isinstance(schema.lhs, FoVar):
                raise CloneError(f"rule {schema.name} has a bare variable as its left side")
            by_head.setdefault(schema.lhs.name, []).append((schema, proof))
        object.__setattr__(self, "_rules", rules)
        object.__setattr__(self, "_by_head", {k: tuple(v) for k, v in by_head.items()})

    def _certify(self):
        axioms = {schema.name for schema in self.presentation.equations}
        for schema, proof in self.derived:
            if schema.params:
                raise CloneError(f"derived rule {schema.name} has sort parameters")
            if schema.name in axioms:
                raise CloneError(f"derived rule {schema.name} reuses an axiom's name")
            v = _proved(self.presentation, Context(schema.ctx), proof, ())
            if not v.ok:
                raise CloneError(f"derived rule {schema.name}: proof rejected: {v.error}")
            if (v.lhs, v.rhs, v.sort) != (schema.lhs, schema.rhs, schema.sort):
                raise CloneError(
                    f"derived rule {schema.name}: proof concludes {v.lhs} ~ {v.rhs}, "
                    f"not {schema.lhs} ~ {schema.rhs}"
                )

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "convergence"}

    def rules(self) -> tuple[tuple[FoEquationSchema, FoDerivation | None], ...]:
        """Every rule in firing order, with its proof (None for an axiom)."""
        return self._rules

    @functools.cached_property
    def convergence(self) -> "Convergence":
        """``check_convergence(self)``, computed on first use and kept on
        the system; it is not a field, so ``==``, ``hash``, ``repr`` and
        pickles leave it out."""
        return check_convergence(self)


def match_fo(pattern: FoTerm, term: FoTerm, var_binding: dict, sort_binding: dict) -> bool:
    """Match a (possibly schematic) pattern against a concrete term.

    Pattern variables bind subterms; repeated variables must match equal
    subterms.  Sort parameters inside operator instances are matched too.
    """
    match pattern:
        case FoVar(index=i):
            seen = var_binding.get(i)
            if seen is None:
                var_binding[i] = term
                return True
            return seen == term
        case FoOp(name=name, sort_args=psorts, args=pargs):
            if not isinstance(term, FoOp) or term.name != name:
                return False
            if len(psorts) != len(term.sort_args) or len(pargs) != len(term.args):
                return False
            for ps, ts in zip(psorts, term.sort_args):
                if not match_sort(ps, ts, sort_binding):
                    return False
            return all(
                match_fo(p, a, var_binding, sort_binding) for p, a in zip(pargs, term.args)
            )
    return False


def _root_step(rs: RewriteSystem, sub: FoOp):
    """The first rule, in firing order, that fires at the root of ``sub``:
    (schema, proof, sort arguments, instantiation, replacement), or None.
    Every rewriting path chooses its rule here."""
    for schema, proof in rs._by_head.get(sub.name, ()):
        var_binding: dict = {}
        sort_binding: dict = {}
        if not match_fo(schema.lhs, sub, var_binding, sort_binding):
            continue
        if set(var_binding) != {i for i in range(1, len(schema.ctx) + 1)}:
            continue  # underdetermined instance; cannot fire as a rule
        sort_args = tuple(sort_binding[p] for p in schema.params)
        eq_ctx, _, _, rhs = schema.instantiate(sort_args)
        components = tuple(var_binding[i] for i in range(1, len(eq_ctx) + 1))
        new_sub = fo_subst(rhs, Substitution(Context(()), eq_ctx, components))
        return schema, proof, sort_args, components, new_sub
    return None


def rewrite_normalize(
    rs: RewriteSystem,
    t: FoTerm,
    strategy: str = "innermost",
) -> tuple[FoTerm, list[RewriteStep]]:
    """Rewrite to a form containing no redex; the step trace witnesses the
    equality and converts to a checkable derivation via steps_to_derivation.

    Innermost rewrites the leftmost innermost redex first, by the engine
    ``innermost_normal_form`` runs; outermost rewrites the first redex in
    pre-order (Baader & Nipkow, *Term Rewriting and All That*, 1998).  A
    term growing at its root meets the step ceiling outermost and the
    recursion limit innermost; both raise RewriteDivergence."""
    if strategy not in ("innermost", "outermost"):
        raise CloneError(f"unknown strategy {strategy!r}")
    run = _Rewriter(rs, t, None)
    try:
        if strategy == "innermost":
            return run.norm(t, None), run.trace
        while (found := _outermost(rs, run.whole, None)) is not None:
            run.record(*found)
            run.count(1)
        return run.whole, run.trace
    except RecursionError:
        raise RewriteDivergence(t, run.trace, too_deep=True) from None


def _outermost(rs: RewriteSystem, t: FoTerm, frames):
    """The first redex of ``t`` in pre-order: the rule fired there and the
    redex's frames (as ``_Rewriter`` keeps them), or None."""
    if isinstance(t, FoVar):
        return None
    fired = _root_step(rs, t)
    if fired is not None:
        return fired, frames
    for i, a in enumerate(t.args, start=1):
        found = _outermost(rs, a, (frames, t, t.args[: i - 1], i))
        if found is not None:
            return found
    return None


def innermost_normal_form(rs: RewriteSystem, t: FoTerm, memo: dict) -> FoTerm:
    """``rewrite_normalize(rs, t, "innermost")[0]``, without the trace.

    ``memo`` maps each subterm met to its normal form and the number of
    rewrites the traced run spends reaching it; the caller owns it.  Memo
    hits add their count, so the total is the traced run's length; when it
    reaches MAX_REWRITE_STEPS, this raises RewriteDivergence where the traced
    run does, with an empty trace."""
    try:
        return _Rewriter(rs, t, memo).norm(t, None)
    except RecursionError:
        raise RewriteDivergence(t, [], too_deep=True) from None


class _Rewriter:
    """One rewriting run from ``start``: untraced with a memo, or traced.

    ``norm``, the one innermost normalizer, normalizes a term's arguments
    left to right, then rewrites at its root with the rule ``_root_step``
    picks and normalizes the result again: leftmost-innermost order, so the
    memoized normal form is the traced one even for a non-confluent system.
    Each argument is normalized under a frame (enclosing frames, enclosing
    node, its arguments so far, hole index), from which a traced step builds
    its path and whole term in time linear in the depth."""

    def __init__(self, rs: RewriteSystem, start: FoTerm, memo: dict | None):
        self.rs = rs
        self.start = start
        self.memo = memo
        self.steps = 0
        self.trace: list[RewriteStep] = []
        self.whole = start  # the whole term after the last traced step

    def count(self, n: int) -> None:
        self.steps += n
        if self.steps >= MAX_REWRITE_STEPS:
            raise RewriteDivergence(self.start, self.trace)

    def record(self, fired, frames) -> None:
        """Trace the step ``fired`` makes in the hole ``frames`` describe."""
        schema, proof, sort_args, inst, after = fired
        path = []
        while frames is not None:
            frames, node, left, i = frames
            path.append(i)
            after = FoOp(node.name, node.sort_args, (*left, after, *node.args[i:]))
        derived = None if proof is None else (schema, proof)
        self.trace.append(RewriteStep(
            tuple(reversed(path)), schema.name, sort_args, inst, True, self.whole, after, derived))
        self.whole = after

    def norm(self, term: FoTerm, frames) -> FoTerm:
        memo = self.memo
        seen = []  # (term met, rewrites done before meeting it), for the memo
        while isinstance(term, FoOp):
            if memo is not None:
                done = memo.get(term)
                if done is not None:
                    term, n = done
                    self.count(n)
                    break
                seen.append((term, self.steps))
            normed: list = []
            for i, a in enumerate(term.args, start=1):
                normed.append(self.norm(a, (frames, term, normed, i)))
            args = tuple(normed)
            if args != term.args:
                term = FoOp(term.name, term.sort_args, args)
                if memo is not None:
                    done = memo.get(term)
                    if done is not None:
                        term, n = done
                        self.count(n)
                        break
                    seen.append((term, self.steps))
            fired = _root_step(self.rs, term)
            if fired is None:
                break
            if memo is None:
                self.record(fired, frames)
            self.count(1)
            term = fired[4]
        for s, before in seen:
            memo[s] = (term, self.steps - before)
        return term


def _wrap_congruence(whole: FoTerm, path: tuple[int, ...], inner: FoDerivation) -> FoDerivation:
    if not path:
        return inner
    i = path[0]
    children = tuple(
        _wrap_congruence(a, path[1:], inner) if j == i else FoRefl(a)
        for j, a in enumerate(whole.args, start=1)
    )
    return FoCong(whole.name, whole.sort_args, children)


def _instance_term(t: FoTerm, table: dict) -> FoTerm:
    """The instance of ``t`` under the substitution ``table`` starts with
    (each variable mapped to its term).  Every subterm instantiated is filed
    in ``table``, so equal subterms are instantiated once and share one
    instance."""
    got = table.get(t)
    if got is None:
        args = tuple([_instance_term(a, table) for a in t.args])
        got = table[t] = FoOp(t.name, t.sort_args, args)
    return got


def step_to_derivation(step: RewriteStep) -> FoDerivation:
    """One step as a derivation of before ~ after.  A derived rule's step
    cites the rule's own proof in a lemma node, which the kernel checks
    against the presentation once, not once per firing."""
    children = tuple(FoRefl(t) for t in step.instantiation)
    if step.derived is None:
        node: FoDerivation = FoAxiom(step.equation, step.sort_args, children)
    else:
        schema, proof = step.derived
        if len(children) != len(schema.ctx):
            raise CloneError(
                f"step instantiates {schema.name} with {len(children)} terms "
                f"for an equation context of length {len(schema.ctx)}"
            )
        node = FoLemma(Context(schema.ctx), proof, children)
    if not step.forward:
        node = FoSym(node)
    return _wrap_congruence(step.before, step.path, node)


def steps_to_derivation(start: FoTerm, steps: list[RewriteStep]) -> FoDerivation:
    """Chain a step trace into a single derivation of start ~ end."""
    if not steps:
        return FoRefl(start)
    d = step_to_derivation(steps[0])
    for s in steps[1:]:
        d = FoTrans(d, step_to_derivation(s))
    return d


# --------------------------------------------------------------------------
# Convergence: termination by the path order, confluence by critical pairs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPair:
    """An overlap of rule ``outer``'s left side, at ``path``, with rule
    ``inner``'s, renamed apart: ``peak`` rewrites to ``left`` by ``outer``
    at its root and to ``right`` by ``inner`` at ``path``.  ``ctx`` is the
    two rules' contexts, ``inner``'s after ``outer``'s; ``join`` derives
    left ~ right in it through the two reducts' common normal form."""

    outer: str
    inner: str
    path: tuple[int, ...]
    ctx: Context
    peak: FoTerm
    left: FoTerm
    right: FoTerm
    join: FoDerivation


@dataclass(frozen=True)
class Convergence:
    """``check_convergence``'s verdict: ``ok`` when the system terminates
    and is confluent, so each term has one normal form and two terms are
    provably equal exactly when their normal forms are equal.  Otherwise
    ``reason`` names the first rule or critical pair that fails.  When
    ``ok``, ``pairs`` holds every critical pair, joined, in the order
    checked."""

    ok: bool
    reason: str | None = None
    pairs: tuple[CriticalPair, ...] = ()


def check_convergence(rs: RewriteSystem) -> Convergence:
    """Check that ``rs`` is terminating and confluent.

    Termination: each rule's left side binds every variable of its context
    (so the rule fires on every match) and is greater than its right side
    in the lexicographic path order with the empty precedence
    (``lpo_greater``).  Confluence: by Newman's lemma, local confluence
    suffices, and by the critical pair lemma every critical pair must join
    (Knuth & Bendix 1970; Baader & Nipkow, *Term Rewriting and All That*,
    1998, ch. 5.4 and 6).  Each rule's left side, renamed apart, is unified
    (``unify_fo``) with each non-variable subterm of each left side, except
    a rule's own at the root.  Both reducts are normalized by the traced
    engine and joined as trans(left trace, sym(right trace)); the pair
    joins when the kernel accepts that join against the system's
    presentation, and it concludes left ~ right.  A system with a rule that
    has sort parameters is not checked."""
    rules = [schema for schema, _ in rs.rules()]
    for schema in rules:
        if schema.params:
            return Convergence(False, f"rule {schema.name} has sort parameters; not checked")
    for schema in rules:
        ctx, _, lhs, rhs = schema.instantiate(())
        if _variables(lhs) != set(range(1, len(ctx) + 1)):
            return Convergence(False, f"rule {schema.name}: {lhs} does not bind every variable "
                                      f"of its context {ctx}, so it cannot fire")
        if not lpo_greater(lhs, rhs):
            return Convergence(False, f"rule {schema.name} is not oriented: {lhs} -> {rhs} does "
                                      f"not decrease in the path order")
    pairs = []
    for outer in rules:
        o_ctx, _, o_lhs, o_rhs = outer.instantiate(())
        apart = [_renamed_apart(inner, len(o_ctx)) for inner in rules]
        for path, sub in _op_positions(o_lhs):
            for inner, (i_ctx, i_lhs, i_rhs) in zip(rules, apart):
                if inner is outer and not path:
                    continue
                mgu = unify_fo(sub, i_lhs)
                if mgu is None:
                    continue
                peak = _resolve(o_lhs, mgu)
                left = _resolve(o_rhs, mgu)
                right = _replace_at(peak, path, _resolve(i_rhs, mgu))
                ctx = Context(o_ctx.entries + i_ctx.entries)
                where = f"critical pair of {outer.name} and {inner.name} at {path}, peak {peak}"
                try:
                    l_nf, l_steps = rewrite_normalize(rs, left)
                    r_nf, r_steps = rewrite_normalize(rs, right)
                except RewriteDivergence as e:
                    return Convergence(False, f"{where}: {e}")
                join = FoTrans(steps_to_derivation(left, l_steps),
                               FoSym(steps_to_derivation(right, r_steps)))
                v = check_fo_derivation(rs.presentation, ctx, join)
                if not (v.ok and (v.lhs, v.rhs) == (left, right)):
                    return Convergence(False, f"{where}: {left} and {right} do not join; their "
                                              f"normal forms are {l_nf} and {r_nf}")
                pairs.append(CriticalPair(outer.name, inner.name, path, ctx, peak, left, right,
                                          join))
    return Convergence(True, pairs=tuple(pairs))


def lpo_greater(s: FoTerm, t: FoTerm) -> bool:
    """s >lpo t in the lexicographic path order with the empty precedence
    (Baader & Nipkow 1998, def. 5.4.12): t is a variable of s other than s;
    or some argument of s is t or greater than it; or s and t have the same
    operator (name and sort arguments), s is greater than every argument of
    t, and the arguments of s are lexicographically greater than those of
    t.  Distinct operators are incomparable."""
    if type(s) is not FoOp:
        return False
    if type(t) is not FoOp:
        return t.index in _variables(s)
    if any(a == t or lpo_greater(a, t) for a in s.args):
        return True
    if (s.name, s.sort_args, len(s.args)) != (t.name, t.sort_args, len(t.args)):
        return False
    if not all(lpo_greater(s, b) for b in t.args):
        return False
    for a, b in zip(s.args, t.args):
        if a != b:
            return lpo_greater(a, b)
    return False


def unify_fo(s: FoTerm, t: FoTerm) -> dict[int, FoTerm] | None:
    """A most general unifier of two first-order terms (Robinson 1965), as
    a map from variable index to term in which no bound variable occurs; or
    None when the terms do not unify.  Sorts are not consulted: operator
    nodes unify only with the same name, sort arguments and arity."""
    binding: dict[int, FoTerm] = {}
    todo = [(s, t)]
    while todo:
        a, b = (_walk(e, binding) for e in todo.pop())
        if a == b:
            continue
        if type(b) is FoVar:
            a, b = b, a
        if type(a) is FoVar:
            if a.index in _variables(_resolve(b, binding)):
                return None
            binding[a.index] = b
        elif (a.name, a.sort_args, len(a.args)) == (b.name, b.sort_args, len(b.args)):
            todo.extend(zip(a.args, b.args))
        else:
            return None
    return {i: _resolve(e, binding) for i, e in binding.items()}


def _walk(t: FoTerm, binding: dict) -> FoTerm:
    while type(t) is FoVar and t.index in binding:
        t = binding[t.index]
    return t


def _resolve(t: FoTerm, binding: dict) -> FoTerm:
    """``t`` with each bound variable replaced by its binding, resolved."""
    t = _walk(t, binding)
    if type(t) is FoVar:
        return t
    return FoOp(t.name, t.sort_args, tuple([_resolve(a, binding) for a in t.args]))


def _variables(t: FoTerm) -> set[int]:
    """The indices of the variables of ``t``."""
    found, stack = set(), [t]
    while stack:
        e = stack.pop()
        if type(e) is FoVar:
            found.add(e.index)
        else:
            stack.extend(e.args)
    return found


def _op_positions(t: FoTerm) -> list[tuple[tuple[int, ...], FoOp]]:
    """(path, subterm) for each operator node of ``t``, in pre-order."""
    out, stack = [], [((), t)]
    while stack:
        path, e = stack.pop()
        if type(e) is FoOp:
            out.append((path, e))
            stack.extend((path + (i,), a) for i, a in reversed(list(enumerate(e.args, 1))))
    return out


def _renamed_apart(schema: FoEquationSchema, shift: int) -> tuple[Context, FoTerm, FoTerm]:
    """The context and sides of a rule without sort parameters, each
    variable index raised by ``shift``."""
    ctx, _, lhs, rhs = schema.instantiate(())
    table = {FoVar(i): FoVar(i + shift) for i in range(1, len(ctx) + 1)}
    return ctx, _instance_term(lhs, table), _instance_term(rhs, table)


def _replace_at(t: FoOp, path: tuple[int, ...], new: FoTerm) -> FoTerm:
    if not path:
        return new
    i = path[0]
    args = t.args[: i - 1] + (_replace_at(t.args[i - 1], path[1:], new),) + t.args[i:]
    return FoOp(t.name, t.sort_args, args)


def _candidate_systems(pres: FoPresentation):
    """The systems that may decide ``pres``, in order: its oriented axioms,
    unless they cannot form a system, then the system of the stock theory
    that ``pres`` is (None when it is none)."""
    from .theories import stock_theory

    try:
        # built on a copy, so that the system kept on ``pres`` does not
        # point back at it
        yield RewriteSystem(FoPresentation(pres.name, pres.signature, pres.equations))
    except CloneError:
        pass  # an equation's left side is a bare variable
    theory = stock_theory(pres)
    yield None if theory is None else theory.rewrite_system


# --------------------------------------------------------------------------
# Bounded proof search
# --------------------------------------------------------------------------


# Inside one prove_fo_equal call terms are plain tuples, so hashing,
# equality and construction run in C: a variable is its index, and an
# operator node is (head, *args), where head numbers one (name, sort
# arguments, arity) triple in the call's _Heads table.  The encoding is
# isomorphic to the terms: two encodings are equal exactly when the terms are.


class _Heads:
    """The operator heads met in one search, numbered in order of meeting."""

    def __init__(self):
        self.ids: dict = {}
        self.keys: list = []

    def encode(self, t: FoTerm):
        if isinstance(t, FoVar):
            return t.index
        key = (t.name, t.sort_args, len(t.args))
        head = self.ids.get(key)
        if head is None:
            head = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return (head, *map(self.encode, t.args))

    def decode(self, e) -> FoTerm:
        if type(e) is int:
            return FoVar(e)
        name, sort_args, _ = self.keys[e[0]]
        return FoOp(name, sort_args, tuple(map(self.decode, e[1:])))


def _enc_size(e) -> int:
    if type(e) is int:
        return 1
    n = 1
    for i in range(1, len(e)):
        n += _enc_size(e[i])
    return n


def _size_change(pat, other) -> tuple[int, tuple]:
    """How much rewriting an instance of ``pat`` to ``other`` grows the term:
    a constant, plus (variable, factor) pairs, one per variable occurring a
    different number of times on the two sides, to scale by the size of its
    instantiation."""
    count: dict = {}
    grow = _count_nodes(other, 1, count) + _count_nodes(pat, -1, count)
    return grow, tuple((i, k) for i, k in count.items() if k)


def _count_nodes(e, sign: int, count: dict) -> int:
    """``sign`` times the operator nodes of ``e``; adds ``sign`` to the count
    of each variable occurrence."""
    if type(e) is int:
        count[e] = count.get(e, 0) + sign
        return 0
    return sign + sum(_count_nodes(a, sign, count) for a in e[1:])


def _enc_match(pat, term, binding: dict) -> bool:
    """match_fo on encodings, for patterns whose sort arguments are concrete:
    equal heads then mean equal names, sort arguments and arities."""
    if type(pat) is int:
        seen = binding.get(pat)
        if seen is None:
            binding[pat] = term
            return True
        return seen == term
    if type(term) is int or term[0] != pat[0]:
        return False
    for i in range(1, len(pat)):
        if not _enc_match(pat[i], term[i], binding):
            return False
    return True


def _enc_subst(e, components: tuple):
    if type(e) is int:
        return components[e - 1]
    return (e[0], *[_enc_subst(a, components) for a in e[1:]])


def _subterms(t: FoTerm) -> list[FoTerm]:
    out = [t]
    if isinstance(t, FoOp):
        for a in t.args:
            out.extend(_subterms(a))
    return list(dict.fromkeys(out))


def prove_fo_equal(
    pres: FoPresentation,
    ctx: Context,
    t: FoTerm,
    u: FoTerm,
    max_nodes: int = 2000,
    instance_sorts: list[Sort] | None = None,
) -> FoDerivation | None:
    """Bidirectional best-first search for a derivation of t ~ u, after a
    decision by normal forms.

    When the presentation has a convergent system (``convergent_system``,
    certified by ``check_convergence``), both sides are normalized first,
    untraced, with one memo: distinct normal forms mean that no derivation
    exists, and the answer is None at once, with no search.  Equal normal
    forms, a presentation without such a system, and a side that reaches
    no normal form within the rewriting ceilings all go to the search, so
    every proof it returns is the search's own.

    Moves are equation instances applied at any position, in either
    direction; smaller intermediate terms are explored first, so proofs
    made of contractions are found quickly while expansion steps remain
    reachable within the budget.  Returns a checkable derivation, or None:
    "not provable" when the decision refused the pair, otherwise "unknown",
    the node budget exhausted.  Underdetermined variables in backward
    applications are instantiated from context variables and subterms of
    the two endpoints.

    The search runs on terms encoded as plain tuples, with a table of
    operator heads built for this call.  Each equation instance is compiled
    once per call, in both directions, to an encoded pattern and other
    side, and filed under the head of its pattern; a bare-variable pattern
    is filed under every head.  The root moves of a subterm (every instance
    in both directions, with each completion of its binding from the pool)
    are memoized per call and shared by every position and popped term where
    that subterm occurs.  The frontier loop is ``_best_first``, which the
    free algebra's search runs too; here a move carries its size change as
    its entry 1, and a term meets the other side when it is in it.  The
    parent links hold encodings, and only the steps of the returned proof
    are decoded to terms.  Nothing outlives the call.
    """
    if t == u:
        return FoRefl(t)
    decider = pres.convergent_system
    if decider is not None:
        memo: dict = {}  # shared by the two sides, dropped after the call
        try:
            if innermost_normal_form(decider, t, memo) != innermost_normal_form(decider, u, memo):
                return None  # distinct normal forms of a convergent system: no proof exists
        except RewriteDivergence:
            pass  # no normal form within the ceilings: search as without a decider
    if instance_sorts is None:
        instance_sorts = list(
            dict.fromkeys(list(ctx) + pres.signature.sort_set.base_sorts())
        )
    heads = _Heads()
    start, goal = heads.encode(t), heads.encode(u)
    pool = [
        heads.encode(p)
        for p in dict.fromkeys(
            [FoVar(i) for i in range(1, len(ctx) + 1)] + _subterms(t) + _subterms(u)
        )
    ]

    # (pattern, other side, context length, size change, equation, sort
    # arguments, direction), in the order instance, then direction
    rules = []
    for schema in pres.equations:
        for combos in itertools.product(instance_sorts, repeat=len(schema.params)):
            eq_ctx, _, lhs, rhs = schema.instantiate(combos)
            lhs, rhs = heads.encode(lhs), heads.encode(rhs)
            n = len(eq_ctx)
            rules.append((lhs, rhs, n, _size_change(lhs, rhs), schema.name, combos, True))
            rules.append((rhs, lhs, n, _size_change(rhs, lhs), schema.name, combos, False))
    by_head = [
        [r for r in rules if type(r[0]) is int or r[0][0] == head]
        for head in range(len(heads.keys))
    ]
    var_rules = [r for r in rules if type(r[0]) is int]

    memo: dict = {}

    def root_moves(sub) -> list[tuple]:
        """Every one-step rewrite of ``sub`` at its root, as (replacement,
        its size minus the size of sub, equation, sort arguments,
        instantiation, direction), in the order instance, then direction,
        then instantiation."""
        moves = memo.get(sub)
        if moves is not None:
            return moves
        moves = memo[sub] = []
        for pat, other, n, (grow, scaled), name, combos, forward in (
            var_rules if type(sub) is int else by_head[sub[0]]
        ):
            binding: dict = {}
            if not _enc_match(pat, sub, binding):
                continue
            missing = [i for i in range(1, n + 1) if i not in binding]
            for combo in itertools.product(pool, repeat=len(missing)):
                binding.update(zip(missing, combo))
                components = tuple([binding[i] for i in range(1, n + 1)])
                change = grow
                for i, k in scaled:
                    change += k * _enc_size(components[i - 1])
                moves.append(
                    (_enc_subst(other, components), change, name, combos, components, forward)
                )
        return moves

    def neighbours(term, size) -> list[tuple]:
        out: list = []
        _place_moves(term, (), (), root_moves, out)
        return out

    found = _best_first(start, _enc_size(start), goal, _enc_size(goal), neighbours, max_nodes,
                        lambda new, theirs: new if new in theirs else None)
    if found is None:
        return None
    left, right = ([
        RewriteStep(path, name, combos, tuple(map(heads.decode, components)), forward,
                    heads.decode(before), heads.decode(after))
        for before, path, (_, _, name, combos, components, forward), after in trail
    ] for trail in found)
    if not right:
        return steps_to_derivation(t, left)
    back = FoSym(steps_to_derivation(u, right))
    return FoTrans(steps_to_derivation(t, left), back) if left else back


def _place_moves(sub, path: tuple, frames: tuple, root_moves, out: list) -> None:
    """Append (new term, path, move) for each root move of ``sub`` and of its
    subterms, outermost first; ``frames`` holds the (prefix, suffix) of each
    enclosing node, innermost first, to rebuild the whole term."""
    for move in root_moves(sub):
        new = move[0]
        for prefix, suffix in frames:
            new = prefix + (new,) + suffix
        out.append((new, path, move))
    if type(sub) is not int:
        for i in range(1, len(sub)):
            _place_moves(sub[i], path + (i,), ((sub[:i], sub[i + 1:]),) + frames, root_moves, out)


# --------------------------------------------------------------------------
# Presented clones
# --------------------------------------------------------------------------


class EqStrategy:
    """How a presented clone decides term equality: by default, two terms
    are equal when their ``canonical`` forms are."""

    def equal(self, clone: "TmClone", ctx: Context, sort: Sort, t: FoTerm, u: FoTerm) -> bool:
        return self.canonical(clone, ctx, sort, t) == self.canonical(clone, ctx, sort, u)

    def canonical(self, clone: "TmClone", ctx: Context, sort: Sort, t: FoTerm) -> FoTerm:
        return t


class StructuralEq(EqStrategy):
    """Syntactic equality; only sound when the presentation has no equations."""


class RewriteEq(EqStrategy):
    """Normalize with the oriented rules, then compare.  Decides the
    presented equality exactly when the system is confluent and terminating,
    which ``RewriteSystem.convergence`` checks; otherwise equal normal
    forms still mean provably equal, but distinct ones need not mean
    unequal.

    Normal forms are innermost, from ``innermost_normal_form``, untraced,
    with one memo per ``canonical``/``equal`` call."""

    def __init__(self, system: RewriteSystem):
        self.system = system

    def canonical(self, clone, ctx, sort, t):
        return innermost_normal_form(self.system, t, {})

    def equal(self, clone, ctx, sort, t, u):
        memo: dict = {}  # shared by both sides, dropped after the call
        nf = innermost_normal_form(self.system, t, memo)
        return nf == innermost_normal_form(self.system, u, memo)


class SearchEq(EqStrategy):
    """Bounded proof search; 'unknown' counts as not equal."""

    def __init__(self, max_nodes: int = 2000):
        self.max_nodes = max_nodes

    def equal(self, clone, ctx, sort, t, u):
        return prove_fo_equal(clone.presentation, ctx, t, u, self.max_nodes) is not None


class CanonicalEq(EqStrategy):
    """Equality via a supplied complete canonical-form function."""

    def __init__(self, fn):
        self.fn = fn

    def canonical(self, clone, ctx, sort, t):
        return self.fn(ctx, sort, t)


class TmClone(Clone):
    """The clone of terms over a presentation, up to its equations.

    Terms are represented by raw syntax; the equality strategy decides the
    quotient.  A rewrite strategy must be built on this very presentation
    (checked at construction); its derived rules are certified from it.
    """

    def __init__(self, presentation: FoPresentation, strategy: EqStrategy | None = None):
        self.sort_set = presentation.signature.sort_set
        self.presentation = presentation
        if strategy is None:
            if presentation.equations:
                raise CloneError(
                    "presentation has equations; pick an equality strategy explicitly"
                )
            strategy = StructuralEq()
        if isinstance(strategy, StructuralEq) and presentation.equations:
            raise CloneError("structural equality is only valid with no equations")
        if isinstance(strategy, RewriteEq) and strategy.system.presentation is not presentation:
            raise CloneError("rewrite strategy must orient this presentation's own equations")
        self.strategy = strategy

    def var(self, ctx: Context, i: int) -> FoTerm:
        ctx.sort_at(i)
        return FoVar(i)

    def subst(self, t: FoTerm, sigma: Substitution) -> FoTerm:
        return fo_subst(t, sigma)

    def term_eq(self, ctx, sort, t, u) -> bool:
        return self.strategy.equal(self, ctx, sort, t, u)

    def canonical(self, ctx, sort, t) -> FoTerm:
        return self.strategy.canonical(self, ctx, sort, t)

    def enumerate_terms(
        self, ctx: Context, sort: Sort, depth: int, limit: int | None = None
    ) -> list[FoTerm]:
        return enumerate_fo_terms(self.presentation.signature, ctx, sort, depth, limit=limit)

    def check(self, ctx: Context, t: FoTerm) -> Sort:
        return self.presentation.signature.sort(ctx, t)


def tm_clone(presentation: FoPresentation, strategy: EqStrategy | None = None) -> TmClone:
    return TmClone(presentation, strategy)


# --------------------------------------------------------------------------
# Stock presentations
# --------------------------------------------------------------------------

TY = SortSet("ty", ("b",), ("=>",))
BASE = Sort("b")


def put_name(value) -> str:
    return f"put_{value}"


def _put(value, t: FoTerm) -> FoOp:
    return FoOp(put_name(value), (), (t,))


def _get(*ts: FoTerm) -> FoOp:
    return FoOp("get", (), tuple(ts))


def global_state_presentation(values: tuple) -> FoPresentation:
    """Global state over a finite value set: one get, one put per value,
    and the three interaction equation families."""
    if not values:
        raise CloneError("global state needs at least one value")
    k = len(values)
    ops = [FoOpSchema("get", (), tuple(BASE for _ in range(k)), BASE)]
    ops += [FoOpSchema(put_name(v), (), (BASE,), BASE) for v in values]

    x = FoVar(1)
    eqs = [
        FoEquationSchema(
            "get_put", (), (BASE,), BASE, _get(*(_put(v, x) for v in values)), x
        )
    ]
    xs = tuple(FoVar(i) for i in range(1, k + 1))
    for i, v in enumerate(values, start=1):
        eqs.append(
            FoEquationSchema(
                f"put_get_{v}", (), tuple(BASE for _ in range(k)), BASE,
                _put(v, _get(*xs)), _put(v, xs[i - 1]),
            )
        )
    for vi in values:
        for vj in values:
            eqs.append(
                FoEquationSchema(
                    f"put_put_{vi}_{vj}", (), (BASE,), BASE,
                    _put(vi, _put(vj, x)), _put(vj, x),
                )
            )
    return FoPresentation(f"global_state_{k}", FoSignature(TY, tuple(ops)), tuple(eqs))


def gs_canonical_form(values: tuple, ctx: Context, sort: Sort, t: FoTerm) -> FoTerm:
    """Complete canonical form for global-state terms at the base sort:
    the state table rendered as get(put_{w_1}(a_1), ..., put_{w_k}(a_k)).

    The table reading: in state v, the term ends in state w with result
    atom a.  Two terms are provably equal iff their tables agree, so this
    decides the presented equality (unlike plain oriented rewriting).
    """
    if sort != BASE:
        return t
    tbl = _state_table(t, values, {put_name(v): v for v in values})
    return _get(*(_put(w, atom) for w, atom in (tbl[v] for v in values)))


def _state_table(term: FoTerm, values: tuple, label: dict) -> dict:
    """Initial state -> (final state, result atom) for a global-state term;
    ``label`` maps each put operator to its value."""
    match term:
        case FoVar():
            return {v: (v, term) for v in values}
        case FoOp(name="get", args=args):
            ts = [_state_table(a, values, label) for a in args]
            return {v: ts[i][v] for i, v in enumerate(values)}
        case FoOp(name=name, args=(arg,)) if name in label:
            inner = _state_table(arg, values, label)
            return {v: inner[label[name]] for v in values}
    raise FoSortError(f"not a global-state base term: {term}")


def gs_expand_witness(
    values: tuple, pres: FoPresentation, t: FoTerm
) -> tuple[FoTerm, FoDerivation]:
    """Canonicalize a base global-state term with a checkable derivation.

    Returns (get(put_{w_1}(a_1), ..., put_{w_k}(a_k)), proof that the input
    equals it).  The three proof shapes are: completing a bare atom to a
    get of puts; pushing a put through an expanded argument; and an outer
    get absorbing the puts of its expanded branches.
    """
    return _expand_state(t, values, {put_name(v): v for v in values})


def _complete_state(term: FoTerm) -> FoDerivation:
    # term ~ get(put_v1(term), ..., put_vk(term)), read right to left
    return FoSym(FoAxiom("get_put", (), (FoRefl(term),)))


def _expand_state(term: FoTerm, values: tuple, label: dict) -> tuple[FoTerm, FoDerivation]:
    """gs_expand_witness of ``term``; ``label`` maps each put operator to its
    value."""
    match term:
        case FoVar():
            return _get(*(_put(v, term) for v in values)), _complete_state(term)
        case FoOp(name="get", args=args):
            subs = [_expand_state(a, values, label) for a in args]
            # get(t_1..t_k) ~ get(T_1..T_k) by congruence on the branches
            d = FoCong("get", (), tuple(s[1] for s in subs))
            ts = tuple(s[0] for s in subs)
            cur = FoOp("get", (), ts)
            # ~ get(put_v1(cur), ..., put_vk(cur)), then select branch j
            # inside each put and collapse the double put
            d = FoTrans(d, _complete_state(cur))
            branch_ds = []
            branches = []
            for j, v in enumerate(values, start=1):
                # put_v(get(T_1..T_k)) ~ put_v(T_j)
                step1 = FoAxiom(f"put_get_{v}", (), tuple(FoRefl(s) for s in ts))
                tj = ts[j - 1]
                # put_v(T_j) ~ put_v(put_{u_jj}(b_jj)): T_j is itself a get
                # of puts, so this is another branch selection
                step2 = FoAxiom(f"put_get_{v}", (), tuple(FoRefl(a) for a in tj.args))
                inner = tj.args[j - 1]  # put_{u_jj}(b_jj)
                # put_v(put_u(b)) ~ put_u(b)
                u_val = label[inner.name]
                step3 = FoAxiom(f"put_put_{v}_{u_val}", (), (FoRefl(inner.args[0]),))
                branch_ds.append(FoTrans(FoTrans(step1, step2), step3))
                branches.append(inner)
            d = FoTrans(d, FoCong("get", (), tuple(branch_ds)))
            return FoOp("get", (), tuple(branches)), d
        case FoOp(name=name, args=(arg,)) if name in label:
            w = label[name]
            inner_t, inner_d = _expand_state(arg, values, label)
            # put_w(t) ~ put_w(get(puts)) ~ put_w(put_u(b)) ~ put_u(b)
            d = FoCong(name, (), (inner_d,))
            selected = inner_t.args[values.index(w)]  # put_{u}(b)
            d = FoTrans(
                d, FoAxiom(f"put_get_{w}", (), tuple(FoRefl(a) for a in inner_t.args))
            )
            u_val = label[selected.name]
            d = FoTrans(d, FoAxiom(f"put_put_{w}_{u_val}", (), (FoRefl(selected.args[0]),)))
            # ~ get(put_v(sel), ...) with the double puts collapsed per branch
            d = FoTrans(d, _complete_state(selected))
            collapse = tuple(
                FoAxiom(f"put_put_{v}_{u_val}", (), (FoRefl(selected.args[0]),))
                for v in values
            )
            d = FoTrans(d, FoCong("get", (), collapse))
            return FoOp("get", (), tuple(selected for _ in values)), d
    raise FoSortError(f"not a global-state base term: {term}")


def gs_rewrite_system(values: tuple) -> RewriteSystem:
    """A complete rewrite system for global state: the oriented axioms plus
    derived rules, each certified by joining the state-table witnesses of
    its two sides.

    The derived families, for get over k branches, are: a get in branch i
    selects its own i-th branch; a put of branch i's own value is dropped;
    get(y, ..., y) -> y; and for each w, get(put_w y, ..., y, ..., put_w y)
    with y in branch w collapses to put_w y (for k = 1, put_v y -> y
    instead).  ``check_convergence`` certifies the system: every rule
    decreases in the path order, and every critical pair joins with a join
    the kernel replays.  So all strategies reach the same normal form, and
    two terms share one exactly when they are provably equal.  Without any
    one derived rule, some critical pair does not join.
    """
    pres = global_state_presentation(values)
    k = len(values)

    def rule(name, n_vars, lhs, rhs):
        _, d_lhs = gs_expand_witness(values, pres, lhs)
        _, d_rhs = gs_expand_witness(values, pres, rhs)
        schema = FoEquationSchema(name, (), tuple(BASE for _ in range(n_vars)), BASE, lhs, rhs)
        return schema, FoTrans(d_lhs, FoSym(d_rhs))

    y = FoVar(1)
    ys = [FoVar(j) for j in range(1, k + 1)]
    derived = []
    for i, v in enumerate(values):
        # branch i holds a get of k fresh variables, numbered after ys[:i]
        zs = tuple(FoVar(j) for j in range(i + 1, i + k + 1))
        others = [FoVar(j + k - 1) for j in range(i + 2, k + 1)]
        lhs = _get(*ys[:i], _get(*zs), *others)
        rhs = _get(*ys[:i], zs[i], *others)
        derived.append(rule(f"get_select_{v}", 2 * k - 1, lhs, rhs))
        derived.append(
            rule(f"get_own_put_{v}", k, _get(*ys[:i], _put(v, ys[i]), *ys[i + 1:]), _get(*ys))
        )
    derived.append(rule("get_same", 1, _get(*(y for _ in values)), y))
    if k == 1:
        derived.append(rule(f"put_drop_{values[0]}", 1, _put(values[0], y), y))
    else:
        for i, w in enumerate(values):
            branches = [_put(w, y)] * k
            branches[i] = y
            derived.append(rule(f"get_const_put_{w}", 1, _get(*branches), _put(w, y)))
    return RewriteSystem(pres, tuple(derived))


def gs_clone(values: tuple) -> TmClone:
    """The global-state clone with table-based canonical equality."""
    from .theories import global_state

    return global_state(tuple(values)).clone


def bool_presentation() -> FoPresentation:
    """true, false, and a sort-indexed if-then-else with its two equations."""
    A = SortVar("A")
    ops = (
        FoOpSchema("true", (), (), BASE),
        FoOpSchema("false", (), (), BASE),
        FoOpSchema("ite", ("A",), (BASE, A, A), A),
    )
    y, z = FoVar(1), FoVar(2)
    tru = FoOp("true", (), ())
    fls = FoOp("false", (), ())
    eqs = (
        FoEquationSchema(
            "ite_true", ("A",), (A, A), A, FoOp("ite", (A,), (tru, y, z)), y
        ),
        FoEquationSchema(
            "ite_false", ("A",), (A, A), A, FoOp("ite", (A,), (fls, y, z)), z
        ),
    )
    return FoPresentation("bool", FoSignature(TY, ops), eqs)


def bool_clone() -> TmClone:
    from .theories import booleans

    return booleans().clone


def monoid_presentation() -> FoPresentation:
    """Monosorted monoid presentation, used as a small test fixture."""
    star_set = SortSet("mon", ("*",))
    star = Sort("*")
    ops = (
        FoOpSchema("unit", (), (), star),
        FoOpSchema("mul", (), (star, star), star),
    )
    x1, x2, x3 = FoVar(1), FoVar(2), FoVar(3)

    def mul(a, b):
        return FoOp("mul", (), (a, b))

    unit = FoOp("unit", (), ())
    eqs = (
        FoEquationSchema(
            "assoc", (), (star, star, star), star, mul(mul(x1, x2), x3), mul(x1, mul(x2, x3))
        ),
        FoEquationSchema("unit_left", (), (star,), star, mul(unit, x1), x1),
        FoEquationSchema("unit_right", (), (star,), star, mul(x1, unit), x1),
    )
    return FoPresentation("monoid", FoSignature(star_set, ops), eqs)
