"""The shared sort checker (``clones.SortChecker``) of first-order and free
terms, against the recursive checkers it replaced.  Equation sides are free
terms too, checked with their metavariable context as the base.

The two recursive checkers are kept here as oracles.  Each corpus places
one fault at every position of enumerated terms over the shipped
presentations and bundles; on every case the loop must raise what the
recursion raised, with the same message and path.  An unknown operator or
a wrong count of sort arguments is the one exception: the recursion
reported it at the root, the loop at the node that carries it.
"""

import inspect
import itertools
import sys
from functools import partial
from pathlib import Path

import pytest

from clonal.clones import CloneError, SortChecker
from clonal.firstorder import (
    FoOp,
    FoSortError,
    FoSignature,
    FoVar,
    bool_presentation,
    enumerate_fo_terms,
    fo_check_term,
    global_state_presentation,
    monoid_presentation,
)
from clonal.freealgebra import enumerate_free_terms
from clonal.secondorder import (
    CloneApp,
    FreeOp,
    FreeSortError,
    FreeVar,
    Meta,
    MetaContext,
    MetaDecl,
    _TermChecker,
    free_check_term,
    stlc_presentation,
)
from clonal.sorts import Context, Sort, arrow
from clonal.stlc import pure_stlc, stlc_bool, stlc_gs
from clonal.surface import parse_bundle

B = Sort("b")
BB = arrow(B, B)
E = Context(())
BUNDLES = [
    parse_bundle(p.read_text())
    for p in sorted((Path(__file__).resolve().parent.parent / "src" / "clonal" / "bundles").glob("*.bundle"))
]
CONTEXTS = (E, Context((B,)), Context((BB, B)))


# --------------------------------------------------------------------------
# The recursive checkers, as they were before the shared loop
# --------------------------------------------------------------------------


def _fo_oracle(sig, ctx, t, path=()):
    match t:
        case FoVar(index=i):
            if not 1 <= i <= len(ctx):
                raise FoSortError(f"variable x{i} out of range for {ctx}", path)
            return ctx.sort_at(i)
        case FoOp(name=name, sort_args=sort_args, args=args):
            arg_ctx, result = sig.arity(name, sort_args)
            if len(args) != len(arg_ctx):
                raise FoSortError(
                    f"operator {name} expects {len(arg_ctx)} arguments, got {len(args)}", path
                )
            for i, (a, want) in enumerate(zip(args, arg_ctx), start=1):
                got = _fo_oracle(sig, ctx, a, path + (i,))
                if got != want:
                    raise FoSortError(
                        f"argument {i} of {name} has sort {got}, expected {want}", path + (i,)
                    )
            return result
    raise FoSortError(f"not a first-order term: {t!r}", path)


def _free_oracle(base, sig, ctx, t, path=()):
    match t:
        case FreeVar(index=i):
            if not 1 <= i <= len(ctx):
                raise FreeSortError(f"variable x{i} out of range for {ctx}", path)
            return ctx.sort_at(i)
        case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
            try:
                got = base.check(actx, e)
            except CloneError as err:
                raise FreeSortError(f"element {e} over {actx}: {err}", path) from None
            if got != asort:
                raise FreeSortError(f"element {e} has sort {got}, declared {asort}", path)
            if len(args) != len(actx):
                raise FreeSortError(
                    f"clone application expects {len(actx)} arguments, got {len(args)}", path
                )
            for i, (a, want) in enumerate(zip(args, actx), start=1):
                got = _free_oracle(base, sig, ctx, a, path + (i,))
                if got != want:
                    raise FreeSortError(
                        f"clone argument {i} has sort {got}, expected {want}", path + (i,)
                    )
            return asort
        case FreeOp(name=name, sort_args=sort_args, args=args):
            arity = sig.arity(name, sort_args)
            if len(args) != len(arity.binders):
                raise FreeSortError(f"operator {name} arity mismatch", path)
            for i, ((binder, body), (want_ctx, want_sort)) in enumerate(
                zip(args, arity.binders), start=1
            ):
                if binder != want_ctx:
                    raise FreeSortError(
                        f"argument {i} of {name} binds {binder}, declared {want_ctx}", path + (i,)
                    )
                got = _free_oracle(base, sig, ctx + binder, body, path + (i,))
                if got != want_sort:
                    raise FreeSortError(
                        f"argument {i} of {name} has sort {got}, expected {want_sort}", path + (i,)
                    )
            return arity.result
    raise FreeSortError(f"not a free term: {t!r}", path)


# --------------------------------------------------------------------------
# Terms as trees: children, replacement, one fault per position
# --------------------------------------------------------------------------


def _children(ctx, t):
    """(child, child context) per argument of a node of either language."""
    if isinstance(t, (FoOp, CloneApp)):
        return [(a, ctx) for a in t.args]
    if isinstance(t, FreeOp):
        return [(body, ctx + binder) for binder, body in t.args]
    return []


def _with_args(t, args):
    if isinstance(t, FoOp):
        return FoOp(t.name, t.sort_args, args)
    if isinstance(t, CloneApp):
        return CloneApp(t.element, t.arity_ctx, t.arity_sort, args)
    return type(t)(t.name, t.sort_args, args)


def _replace(t, path, new):
    if not path:
        return new
    i = path[0]
    args = list(t.args)
    if isinstance(t, FreeOp):
        binder, body = args[i - 1]
        args[i - 1] = (binder, _replace(body, path[1:], new))
    else:
        args[i - 1] = _replace(args[i - 1], path[1:], new)
    return _with_args(t, tuple(args))


def _positions(ctx, t, path=()):
    yield path, ctx, t
    for i, (child, cctx) in enumerate(_children(ctx, t), start=1):
        yield from _positions(cctx, child, path + (i,))


def _local_faults(s, metactx_len):
    """Faults made at the node ``s`` itself: a wrong argument count, a wrong
    binder and a bad base element; at a metavariable, an undeclared one and
    one applied at the wrong parameter context or result sort."""
    if getattr(s, "args", None):
        yield _with_args(s, s.args[:-1])
    if isinstance(s, FreeOp):
        for i, (binder, body) in enumerate(s.args):
            args = list(s.args)
            args[i] = (binder + Context((B,)), body)
            yield _with_args(s, tuple(args))
    if isinstance(s, CloneApp):
        for bad in (0, FoVar(len(s.arity_ctx) + 1)):
            yield CloneApp(bad, s.arity_ctx, s.arity_sort, s.args)
    if isinstance(s, CloneApp) and type(s.element) is Meta:
        actx, asort = s.arity_ctx, s.arity_sort
        yield CloneApp(Meta(metactx_len + 1), actx, asort, s.args)
        for wrong in (actx + Context((B,)), Context(tuple(arrow(a, a) for a in actx))):
            if wrong != actx:
                yield CloneApp(s.element, wrong, asort, s.args)
        yield CloneApp(s.element, actx, arrow(asort, asort), s.args)


def _corpus(ctx, t, var, pools, metactx_len=0):
    """One fault per position of ``t``: a variable out of range, each
    variable of the context (of another sort where it differs), each pool
    term (of another sort where it differs), a non-term and the local
    faults of the node there."""
    for path, c, s in _positions(ctx, t):
        subs = [var(len(c) + 1), "junk"]
        subs += [var(i) for i in range(1, len(c) + 1)]
        subs += pools(c)
        subs += _local_faults(s, metactx_len)
        for new in subs:
            yield _replace(t, path, new)


def _arity_faults(ctx, t):
    """(path, term) with an unknown operator, or a wrong number of sort
    arguments, at each operator node of ``t``."""
    for path, _, s in _positions(ctx, t):
        if isinstance(s, (FoOp, FreeOp)):
            yield path, _replace(t, path, type(s)("nosuch", s.sort_args, s.args))
            yield path, _replace(t, path, type(s)(s.name, s.sort_args + (B,), s.args))


def _outcome(check, ctx, t):
    try:
        return ("sort", check(ctx, t))
    except CloneError as e:
        return (type(e), str(e), e.path)


def _raise_sites(e) -> set:
    """(function, line) of the raise that ended each traceback in the
    chain of ``e``."""
    out = set()
    while e is not None:
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        out.add((tb.tb_frame.f_code.co_qualname, tb.tb_lineno))
        e = e.__context__
    return out


def _raise_lines(fn) -> set:
    lines, start = inspect.getsourcelines(fn)
    return {
        (fn.__qualname__, start + k) for k, line in enumerate(lines)
        if line.lstrip().startswith("raise ")
    }


def _branch(t, e) -> str:
    """Which way the loop found the fault ``e`` in ``t``: at the root, at a
    node below it, or as a child of the wrong sort, a leaf or not."""
    if e.message.startswith(("argument", "clone argument")) and " has sort " in e.message:
        sub = t
        for i in e.path:
            sub = sub.args[i - 1][1] if isinstance(sub, FreeOp) else sub.args[i - 1]
        return "inner mismatch" if getattr(sub, "args", None) else "leaf mismatch"
    return "fault below" if e.path else "fault at root"


def _compare(check, oracle, cases, seen):
    """Assert that ``check`` and ``oracle`` agree on every (ctx, term) case;
    collect the raise sites of ``check``'s errors, and the branch of the
    loop that raised them, into ``seen``."""
    n = 0
    for c, t in cases:
        got, want = _outcome(check, c, t), _outcome(oracle, c, t)
        assert got == want, (c, t)
        if got[0] != "sort":
            n += 1
            try:
                check(c, t)
            except CloneError as e:
                seen |= _raise_sites(e) | {_branch(t, e)}
    return n


def _assert_arity_faults(check, oracle, error, cases):
    n = 0
    for c, (path, t) in cases:
        with pytest.raises(CloneError) as want:
            oracle(c, t)
        with pytest.raises(error) as got:
            check(c, t)
        assert want.value.path == () and got.value.path == path
        assert str(want.value) == f"{got.value.message} (at path [])"
        n += 1
    return n


BRANCHES = {"fault at root", "fault below", "leaf mismatch", "inner mismatch"}


def _skeleton_sites(language) -> set:
    """Every rejection branch of the loop, and the raise sites of the
    binder check and of the language's node case."""
    return (
        BRANCHES | _raise_lines(SortChecker.sort) | _raise_lines(SortChecker.bodies)
        | _raise_lines(language.node)
    )


# --------------------------------------------------------------------------
# The corpora
# --------------------------------------------------------------------------


FO_PRESENTATIONS = [bool_presentation(), global_state_presentation(("v1", "v2")),
                    monoid_presentation()] + [b.base for b in BUNDLES if b.base is not None]


class TestFirstOrderCorpus:
    def test_errors_and_paths_equal_the_recursive_checker(self):
        seen: set = set()
        cases = arity = 0
        for pres in FO_PRESENTATIONS:
            sig = pres.signature
            for c in (Context((B,)), Context((B, BB))):
                terms = enumerate_fo_terms(sig, c, B, 2, limit=12)
                other = enumerate_fo_terms(sig, c, BB, 1, limit=4)
                pool = other + [t for t in terms if isinstance(t, FoOp)][:2]
                check, oracle = partial(fo_check_term, sig), partial(_fo_oracle, sig)
                mutants = [
                    (c, m) for t in terms for m in _corpus(c, t, FoVar, lambda _: pool)
                ]
                cases += _compare(check, oracle, mutants, seen)
                faults = [(c, f) for t in terms for f in _arity_faults(c, t)]
                arity += _assert_arity_faults(check, oracle, FoSortError, faults)
        assert cases > 1000 and arity > 100
        # every rejection branch of the loop and of the first-order node case
        assert _skeleton_sites(FoSignature) - _raise_lines(SortChecker.bodies) <= seen


def _meta_terms(free, ctx, sort, size):
    """Equation sides read off enumerated free terms: the k-th distinct
    (arity context, sort) of their clone applications becomes metavariable
    k, with that declaration."""
    decls: dict = {}

    def convert(t):
        if isinstance(t, CloneApp):
            k = decls.setdefault((t.arity_ctx, t.arity_sort), len(decls) + 1)
            return CloneApp(Meta(k), t.arity_ctx, t.arity_sort, tuple(map(convert, t.args)))
        if isinstance(t, FreeOp):
            return FreeOp(t.name, t.sort_args, tuple((b, convert(body)) for b, body in t.args))
        return t

    terms = [convert(t) for t in enumerate_free_terms(free, ctx, sort, max_size=size)]
    return MetaContext(tuple(MetaDecl(c, s) for c, s in decls)), terms


FREE_ALGEBRAS = [pure_stlc(), stlc_bool(), stlc_gs()] + [b.free for b in BUNDLES]


class TestFreeCorpus:
    def test_errors_and_paths_equal_the_recursive_checker(self):
        seen: set = set()
        cases = arity = 0
        for free in FREE_ALGEBRAS:
            check = free.check
            oracle = partial(_free_oracle, free.base, free.presentation.signature)
            pool: dict = {}

            def pools(c):
                if c not in pool:
                    pool[c] = [t for s in (B, BB) for t in
                               enumerate_free_terms(free, c, s, max_size=3)]
                return pool[c]

            for c in CONTEXTS:
                for sort in (B, BB):
                    terms = enumerate_free_terms(free, c, sort, max_size=4)[:30]
                    mutants = [(c, m) for t in terms for m in _corpus(c, t, FreeVar, pools)]
                    cases += _compare(check, oracle, mutants, seen)
                    faults = [(c, f) for t in terms for f in _arity_faults(c, t)]
                    arity += _assert_arity_faults(check, oracle, FreeSortError, faults)
        assert cases > 1000 and arity > 100
        assert _skeleton_sites(_TermChecker) <= seen


class TestSecondOrderCorpus:
    """Equation sides: free terms checked by the same checker with their
    metavariable context as the base, against the free oracle over it."""

    def test_errors_and_paths_equal_the_recursive_checker(self):
        seen: set = set()
        cases = arity = 0
        presentations = [stlc_presentation()] + [b.surface for b in BUNDLES]
        subjects = []
        for pres in presentations:  # the instantiated equation sides
            for combo in itertools.product((B, BB), repeat=2):
                for schema in pres.equations:
                    metactx, _, lhs, rhs = schema.instantiate(combo[: len(schema.params)])
                    subjects.append((pres.signature, metactx, E, [lhs, rhs]))
        for c in CONTEXTS:  # free terms with their elements made metavariables
            for sort in (B, BB):
                metactx, terms = _meta_terms(stlc_bool(), c, sort, 4)
                subjects.append((stlc_presentation().signature, metactx, c, terms[:40]))
        identity = FreeOp("abs", (B, B), ((Context((B,)), FreeVar(1)),))
        for sig, metactx, c, terms in subjects:
            check = partial(free_check_term, metactx, sig)
            oracle = partial(_free_oracle, metactx, sig)
            mutants = [
                (c, m) for t in terms
                for m in _corpus(c, t, FreeVar, lambda _: [identity], len(metactx))
            ]
            cases += _compare(check, oracle, mutants, seen)
            faults = [(c, f) for t in terms for f in _arity_faults(c, t)]
            arity += _assert_arity_faults(check, oracle, FreeSortError, faults)
        assert cases > 1000 and arity > 100
        assert _skeleton_sites(_TermChecker) | _raise_lines(MetaContext.check) <= seen


# --------------------------------------------------------------------------
# Arity faults keep their path
# --------------------------------------------------------------------------


def _put(t):
    return FoOp("put_v1", (), (t,))


class TestArityFaultsKeepTheirPath:
    def test_first_order(self):
        sig = global_state_presentation(("v1", "v2")).signature
        with pytest.raises(FoSortError) as e:
            fo_check_term(sig, Context((B,)), _put(FoOp("nosuch", (), (FoVar(1),))))
        assert str(e.value) == "unknown operator 'nosuch' (at path [1])" and e.value.path == (1,)
        with pytest.raises(FoSortError) as e:
            fo_check_term(sig, Context((B,)), _put(FoOp("put_v1", (B,), (FoVar(1),))))
        assert e.value.path == (1,)
        assert e.value.message == "operator put_v1 expects 0 sort arguments, got 1"

    def test_second_order(self):
        sig = stlc_presentation().signature
        t = FreeOp("abs", (B, B), ((Context((B,)), FreeOp("nosuch", (), ((E, FreeVar(1)),))),))
        with pytest.raises(FreeSortError) as e:
            free_check_term(MetaContext(), sig, E, t)
        assert str(e.value) == "unknown operator 'nosuch' (at path [1])"

    def test_free(self):
        t = FreeOp("abs", (B, B), ((Context((B,)), FreeOp("nosuch", (), ((E, FreeVar(1)),))),))
        with pytest.raises(FreeSortError) as e:
            stlc_bool().check(E, t)
        assert str(e.value) == "unknown operator 'nosuch' (at path [1])" and e.value.path == (1,)
        app = FreeOp("app", (B,), ((E, FreeVar(1)), (E, FreeVar(1))))
        with pytest.raises(FreeSortError) as e:
            stlc_bool().check(Context((B,)), FreeOp("abs", (B, B), ((Context((B,)), app),)))
        assert e.value.message == "operator app expects 2 sort arguments" and e.value.path == (1,)


# --------------------------------------------------------------------------
# Depth: the loop has no recursion limit
# --------------------------------------------------------------------------

DEPTH = 10_000


def _chain(leaf, step):
    t = leaf
    for _ in range(DEPTH):
        t = step(t)
    return t


class TestDeepTerms:
    """Terms far deeper than the recursion limit, checked directly (hashing
    such a term still recurses, so they stay out of the kernel)."""

    def setup_method(self):
        assert sys.getrecursionlimit() < DEPTH

    def test_first_order(self):
        sig = global_state_presentation(("v1", "v2")).signature
        assert fo_check_term(sig, Context((B,)), _chain(FoVar(1), _put)) == B
        with pytest.raises(FoSortError) as e:
            fo_check_term(sig, Context((B,)), _chain(FoVar(2), _put))
        assert e.value.path == (1,) * DEPTH
        assert e.value.message == "variable x2 out of range for [b]"

    def test_second_order(self):
        sig = stlc_presentation().signature
        identity = FreeOp("abs", (B, B), ((Context((B,)), FreeVar(1)),))

        def step(t):
            return FreeOp("app", (B, B), ((E, identity), (E, t)))

        metactx = MetaContext((MetaDecl(E, B),))
        m1 = CloneApp(Meta(1), E, B, ())
        assert free_check_term(metactx, sig, E, _chain(m1, step)) == B
        with pytest.raises(FreeSortError) as e:
            free_check_term(metactx, sig, E, _chain(identity, step))
        assert e.value.path == (2,) * DEPTH
        assert e.value.message == "argument 2 of app has sort b => b, expected b"

    def test_free(self):
        free = stlc_bool()
        sig = free.presentation.signature
        identity = FreeOp("abs", (B, B), ((Context((B,)), FreeVar(1)),))

        def step(t):
            return FreeOp("app", (B, B), ((E, identity), (E, t)))

        true = CloneApp(FoOp("true", (), ()), E, B, ())
        assert free.check(E, _chain(true, step)) == B
        assert free_check_term(free.base, sig, E, _chain(true, step)) == B
        with pytest.raises(FreeSortError) as e:
            free.check(E, _chain(FreeVar(1), step))
        assert e.value.path == (2,) * DEPTH
        assert e.value.message == "variable x1 out of range for <>"
