"""Normalization by evaluation for free algebras of the lambda calculus.

Terms are evaluated into a semantic domain: functions at arrow sorts
(Kripke-style: such a value is a Python callable ``v(ren, arg)``, applied
through a renaming into the current context) and a pluggable base domain at
the base sort.  Reification reads back eta-long beta-normal forms;
reflection injects neutral terms as values.

Base domains supplied here:

  * variables      -- base values are bare neutral terms;
  * booleans       -- base values are boolean terms over neutral atoms,
                      so a stuck conditional remains a value;
  * global state   -- base values are state tables: for every initial state,
                      a final state and a neutral result.

A free algebra's domain comes from the descriptor of its base clone
(``free.base.theory.domain``, see ``clonal.theories``).  ``nbe_for`` builds
an engine on that domain, which costs a few microseconds; a caller that
normalizes many terms builds one and keeps it.  It reads the operators'
names from the surface's ``calculus``, and refuses other surfaces.

The boolean read-back canonicalizes element applications with
``equality.head_canon``, the collapse loop of the witnessed normalizer
(``equality.norm``), so both normalizers share one canonical shape.  This one
emits no witness and is the faster of the two, so the stock free algebras
decide ``term_eq`` with it.  ``check_normal`` accepts exactly the witnessed
normalizer's fixed points: the terms ``equality.norm`` returns unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clones import CloneError, Renaming, identity_renaming, weakening
from .equality import head_canon, norm, reindex_element
from .firstorder import FoOp, FoVar, put_name
from .freealgebra import (
    CloneApp,
    FreeAlgebra,
    FreeOp,
    FreeTerm,
    FreeVar,
    check_input,
    free_rename,
)
from .sorts import Context, Sort


class NbeError(CloneError):
    pass


def rename_value(domain, sort: Sort, v, ren: Renaming):
    if sort.former == "=>" and len(sort.args) == 2:
        return lambda r2, a: v(ren.compose(r2), a)
    return domain.rename_base(v, ren)


# --------------------------------------------------------------------------
# Base domains
# --------------------------------------------------------------------------


class VariableDomain:
    """Base clone of variables: base values are neutral terms."""

    def atom(self, nbe, ctx, sort, neutral):
        return neutral

    def rename_base(self, v, ren):
        return free_rename(v, ren)

    def eval_element(self, nbe, ctx, element, actx, asort, arg_values):
        return arg_values[element - 1]

    def reify_base(self, nbe, ctx, sort, v) -> FreeTerm:
        return v


@dataclass(frozen=True)
class BoolVal:
    """A boolean term whose variables index ``atoms``."""

    term: object  # FoTerm over atom positions
    atoms: tuple  # neutral free terms


class BoolDomain:
    """Base values are boolean element applications over atoms, read back
    through ``head_canon``."""

    def __init__(self):
        self.true = FoOp("true", (), ())
        self.false = FoOp("false", (), ())

    def atom(self, nbe, ctx, sort, neutral):
        return BoolVal(FoVar(1), (neutral,))

    def rename_base(self, v: BoolVal, ren):
        return BoolVal(v.term, tuple(free_rename(a, ren) for a in v.atoms))

    def ite(self, nbe, ctx, result_sort: Sort, cond: BoolVal, tv, ev):
        if cond.term == self.true:
            return tv
        if cond.term == self.false:
            return ev
        if not result_sort.args:
            return self._combine(ctx, result_sort, cond, tv, ev)
        # stuck conditional at an arrow sort: read the branches back and
        # reflect the stuck element application as a neutral
        A = result_sort
        n_t = nbe.reify(ctx, A, tv)
        n_e = nbe.reify(ctx, A, ev)
        k = len(cond.atoms)
        element = FoOp("ite", (A,), (cond.term, FoVar(k + 1), FoVar(k + 2)))
        actx = Context(tuple(nbe.base_sort for _ in range(k)) + (A, A))
        raw = CloneApp(element, actx, A, cond.atoms + (n_t, n_e))
        return nbe.reflect(ctx, A, head_canon(nbe.free, ctx, raw)[0])

    def _combine(self, ctx, sort, cond: BoolVal, tv: BoolVal, ev: BoolVal):
        atoms = list(cond.atoms)

        def embed(v: BoolVal):
            mapping = {i: _position(atoms, a) for i, a in enumerate(v.atoms, start=1)}
            return reindex_element(v.term, mapping)

        t_t, e_t = embed(tv), embed(ev)  # the condition's atoms are already in place
        return BoolVal(FoOp("ite", (sort,), (cond.term, t_t, e_t)), tuple(atoms))

    def eval_element(self, nbe, ctx, element, actx, asort, arg_values):
        match element:
            case FoVar(index=i):
                return arg_values[i - 1]
            case FoOp(name="true"):
                return BoolVal(self.true, ())
            case FoOp(name="false"):
                return BoolVal(self.false, ())
            case FoOp(name="ite", sort_args=(A,), args=(c, t, u)):
                return self.ite(
                    nbe, ctx, A,
                    self.eval_element(nbe, ctx, c, actx, nbe.base_sort, arg_values),
                    self.eval_element(nbe, ctx, t, actx, A, arg_values),
                    self.eval_element(nbe, ctx, u, actx, A, arg_values),
                )
        raise NbeError(f"unknown boolean element node {element!r}")

    def reify_base(self, nbe, ctx, sort, v: BoolVal) -> FreeTerm:
        if isinstance(v.term, FoVar):
            return v.atoms[v.term.index - 1]
        raw = CloneApp(v.term, Context(tuple(sort for _ in v.atoms)), sort, v.atoms)
        return head_canon(nbe.free, ctx, raw)[0]


def _position(atoms: list, a) -> int:
    """The 1-based position of ``a`` in ``atoms``, appended when new."""
    if a not in atoms:
        atoms.append(a)
    return atoms.index(a) + 1


@dataclass(frozen=True)
class GsVal:
    """A state table: branch i gives (final state, neutral result) for the
    i-th initial state."""

    branches: tuple  # of (value label, neutral FreeTerm)


class GsDomain:
    """Base values are state tables over neutral results."""

    def __init__(self, values: tuple):
        self.values = values
        self.put_index = {put_name(v): j for j, v in enumerate(values)}

    def atom(self, nbe, ctx, sort, neutral):
        return GsVal(tuple((v, neutral) for v in self.values))

    def rename_base(self, v: GsVal, ren):
        return GsVal(tuple((w, free_rename(m, ren)) for w, m in v.branches))

    def eval_element(self, nbe, ctx, element, actx, asort, arg_values) -> GsVal:
        match element:
            case FoVar(index=i):
                return arg_values[i - 1]
            case FoOp(name="get", args=args):
                # in initial state i, the i-th branch runs
                return GsVal(tuple(
                    self.eval_element(nbe, ctx, a, actx, asort, arg_values).branches[i]
                    for i, a in enumerate(args)
                ))
            case FoOp(name=name, args=(arg,)) if name in self.put_index:
                inner = self.eval_element(nbe, ctx, arg, actx, asort, arg_values)
                j = self.put_index[name]
                return GsVal(tuple(inner.branches[j] for _ in self.values))
        raise NbeError(f"unknown state element node {element!r}")

    def reify_base(self, nbe, ctx, sort, v: GsVal) -> FreeTerm:
        atoms: list = []
        puts = [FoOp(put_name(w), (), (FoVar(_position(atoms, m)),)) for w, m in v.branches]
        element = FoOp("get", (), tuple(puts))
        actx = Context(tuple(sort for _ in atoms))
        return CloneApp(element, actx, sort, tuple(atoms))


# --------------------------------------------------------------------------
# The evaluator
# --------------------------------------------------------------------------


class Nbe:
    """Evaluator and read-back for one free algebra."""

    def __init__(self, free: FreeAlgebra, domain):
        self.free = free
        self.domain = domain
        self.lam = free.presentation.lambda_calculus()
        bases = free.sort_set.base_sorts()
        if len(bases) != 1:
            raise NbeError("normalization by evaluation needs exactly one base sort")
        (self.base_sort,) = bases

    # evaluation ----------------------------------------------------------
    #
    # ``ctx`` is the semantic context: every value in ``env`` lives there,
    # one (sort, value) entry per variable of the term being evaluated.

    def eval(self, ctx: Context, t: FreeTerm, env: tuple):
        match t:
            case FreeVar(index=i):
                return env[i - 1][1]
            case FreeOp(name=self.lam.app, args=((_, fun), (_, arg))):
                vf = self.eval(ctx, fun, env)
                va = self.eval(ctx, arg, env)
                return vf(identity_renaming(ctx), va)
            case FreeOp(name=self.lam.abs, sort_args=(A, _), args=((_, body),)):
                def closure(ren: Renaming, a, __body=body, __env=env, __A=A):
                    renamed = tuple(
                        (s, rename_value(self.domain, s, v, ren)) for s, v in __env
                    )
                    return self.eval(ren.source, __body, renamed + ((__A, a),))

                return closure
            case CloneApp(element=e, arity_ctx=actx, arity_sort=asort, args=args):
                arg_values = tuple(self.eval(ctx, a, env) for a in args)
                return self.domain.eval_element(self, ctx, e, actx, asort, arg_values)
        raise NbeError(f"cannot evaluate {t!r}")

    # read-back -----------------------------------------------------------

    def reflect(self, ctx: Context, sort: Sort, neutral: FreeTerm):
        if sort.former == "=>" and len(sort.args) == 2:
            A, B = sort.args

            def stuck(ren: Renaming, a, __n=neutral, __A=A, __B=B):
                new_ctx = ren.source
                fun, arg = free_rename(__n, ren), self.reify(new_ctx, __A, a)
                applied = FreeOp(self.lam.app, (__A, __B), ((Context(()), fun), (Context(()), arg)))
                return self.reflect(new_ctx, __B, applied)

            return stuck
        return self.domain.atom(self, ctx, sort, neutral)

    def reify(self, ctx: Context, sort: Sort, value) -> FreeTerm:
        if sort.former == "=>" and len(sort.args) == 2:
            A, B = sort.args
            extended = ctx + Context((A,))
            fresh = self.reflect(extended, A, FreeVar(len(ctx) + 1))
            body = self.reify(extended, B, value(weakening(ctx, Context((A,))), fresh))
            return FreeOp(self.lam.abs, (A, B), ((Context((A,)), body),))
        return self.domain.reify_base(self, ctx, sort, value)

    # entry point ----------------------------------------------------------

    def normalize(self, ctx: Context, sort: Sort, t: FreeTerm) -> FreeTerm:
        env = tuple(
            (ctx.sort_at(i), self.reflect(ctx, ctx.sort_at(i), FreeVar(i)))
            for i in range(1, len(ctx) + 1)
        )
        return self.reify(ctx, sort, self.eval(ctx, t, env))


def _base_name(base) -> str:
    """A base clone as messages name it: its presentation, and its tier when
    it has a theory."""
    presentation = getattr(base, "presentation", None)
    name = presentation.name if presentation is not None else type(base).__name__
    return name if base.theory is None else f"{name} (tier {base.theory.tier})"


def nbe_for(free: FreeAlgebra) -> Nbe:
    """An engine for ``free`` on its base theory's domain."""
    theory = free.base.theory
    if theory is None or theory.domain is None:
        raise NbeError(f"no normalization domain registered for base {_base_name(free.base)}")
    return Nbe(free, theory.domain)


def nbe_normalize(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm) -> FreeTerm:
    """Eta-long beta-normal form computed by evaluation.  ``t`` must have
    ``sort`` in ``ctx``; otherwise FreeSortError is raised."""
    check_input(free, ctx, sort, t)
    return nbe_for(free).normalize(ctx, sort, t)


# --------------------------------------------------------------------------
# Normal forms
# --------------------------------------------------------------------------


@dataclass
class NormalVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def check_normal(free: FreeAlgebra, ctx: Context, sort: Sort, t: FreeTerm) -> NormalVerdict:
    """Is ``t`` an eta-long beta-normal form of ``sort`` in ``ctx``?

    Normal forms are the fixed points of the witnessed normalizer: ``t`` is
    normal exactly when ``equality.norm`` returns it as it stands.  On a
    normal form no step fires and no derivation is built; a term that is not
    normal costs its normalization, and the verdict names the form it
    normalizes to."""
    free.presentation.lambda_calculus()
    try:
        got = free.check(ctx, t)
    except CloneError as e:
        return NormalVerdict(False, f"ill-sorted: {e}")
    if got != sort:
        return NormalVerdict(False, f"sort {got}, expected {sort}")
    nf = norm(free, ctx, sort, t)[0]
    if nf is not t:
        return NormalVerdict(False, f"not normal: normalizes to {nf}")
    return NormalVerdict(True)
