"""Seeded input generators and readers of clonal's terms.

The generators build reference terms (see reference.py) from a
``random.Random`` alone, so the inputs never depend on the order in which
clonal enumerates anything.  The readers turn clonal's public term
constructors (FreeVar, CloneApp, FreeOp, FoVar, FoOp) back into reference
terms, and the writers go the other way for inputs that the surface syntax
cannot express.
"""

from __future__ import annotations

import itertools

from reference import B, arrow

BB = arrow(B, B)
LABELS = ("v1", "v2")


class Fresh:
    """Binder names y1, y2, ... that never clash with context names."""

    def __init__(self):
        self.count = itertools.count(1)

    def __call__(self) -> str:
        return f"y{next(self.count)}"


def _vars_of(ctx, sort):
    return [("var", x) for x, s in ctx if s == sort]


def gen_lambda(rng, ctx, sort, size: int, fresh: Fresh, consts: bool, base_only: bool = False):
    """A term of ``sort`` with about ``size`` nodes over the lambda calculus,
    with booleans when ``consts``; with ``base_only``, every conditional and
    every redex binder is at the base sort.  Beta-redexes are frequent so
    that normalization has work to do."""
    leaves = _vars_of(ctx, sort)
    if consts and sort == B:
        leaves += [("true",), ("false",)]
    if size <= 1 and leaves:
        return rng.choice(leaves)
    if sort != B and (size <= 2 or rng.random() < 0.4):
        _, dom, cod = sort
        y = fresh()
        return ("abs", y, dom,
                gen_lambda(rng, ctx + [(y, dom)], cod, size - 1, fresh, consts, base_only))
    kinds = ["redex", "redex", "app"]
    if consts and (sort == B or not base_only):
        kinds.append("ite")
    kind = rng.choice(kinds)
    if kind == "ite":
        third = max(1, (size - 1) // 3)
        return (
            "ite",
            gen_lambda(rng, ctx, B, third, fresh, consts, base_only),
            gen_lambda(rng, ctx, sort, third, fresh, consts, base_only),
            gen_lambda(rng, ctx, sort, third, fresh, consts, base_only),
        )
    dom = B if base_only else rng.choice((B, B, BB))
    half = max(1, (size - 2) // 2)
    if kind == "app":
        heads = _vars_of(ctx, arrow(dom, sort))
        if heads:
            return ("app", rng.choice(heads),
                    gen_lambda(rng, ctx, dom, half, fresh, consts, base_only))
    y = fresh()
    body = gen_lambda(rng, ctx + [(y, dom)], sort, half, fresh, consts, base_only)
    return ("app", ("abs", y, dom, body), gen_lambda(rng, ctx, dom, half, fresh, consts, base_only))


def gen_state(rng, names, size: int, fresh: Fresh, binders: bool = True):
    """A base-sort global-state term over the base variables ``names``;
    with ``binders``, some subterms are beta-redexes."""
    if size <= 1:
        return ("var", rng.choice(names))
    r = rng.random()
    if r < 0.4:
        half = max(1, (size - 1) // 2)
        return ("get", gen_state(rng, names, half, fresh, binders),
                gen_state(rng, names, size - 1 - half, fresh, binders))
    if r < 0.8 or not binders:
        return ("put", rng.choice(LABELS), gen_state(rng, names, size - 1, fresh, binders))
    y = fresh()
    half = max(1, (size - 2) // 2)
    body = gen_state(rng, names + [y], half, fresh, binders)
    return ("app", ("abs", y, B, body), gen_state(rng, names, half, fresh, binders))


def gen_monoid(rng, names, size: int):
    if size <= 1:
        return rng.choice([("var", x) for x in names] + [("unit",)])
    left = rng.randint(1, size - 1)
    return ("mul", gen_monoid(rng, names, left), gen_monoid(rng, names, size - 1 - left))


def positions(t, path=()):
    """Every (path, subterm) of a first-order reference term."""
    yield path, t
    if t[0] in ("get", "mul"):
        for i, u in enumerate(t[1:], start=1):
            yield from positions(u, path + (i,))
    elif t[0] == "put":
        yield from positions(t[2], path + (2,))


def replace(t, path, new):
    if not path:
        return new
    i = path[0]
    return t[:i] + (replace(t[i], path[1:], new),) + t[i + 1:]


# --------------------------------------------------------------------------
# Axiom walks: pairs equal by construction
# --------------------------------------------------------------------------


def monoid_moves(t):
    """One axiom step at the root of ``t``, in either direction."""
    out = [("mul", ("unit",), t), ("mul", t, ("unit",))]
    if t[0] == "mul":
        a, b = t[1], t[2]
        if a == ("unit",):
            out.append(b)
        if b == ("unit",):
            out.append(a)
        if a[0] == "mul":
            out.append(("mul", a[1], ("mul", a[2], b)))
        if b[0] == "mul":
            out.append(("mul", ("mul", a, b[1]), b[2]))
    return out


def state_moves(t, names, rng):
    """One global-state axiom step at the root of ``t``, in either
    direction (get_put, put_get_v, put_put_v_w)."""
    out = [("get", ("put", "v1", t), ("put", "v2", t))]
    if t[0] == "get" and t[1][0] == t[2][0] == "put" and t[1][2] == t[2][2]:
        if (t[1][1], t[2][1]) == LABELS:
            out.append(t[1][2])
    if t[0] == "put":
        v, inner = t[1], t[2]
        i = LABELS.index(v)
        if inner[0] == "get":
            out.append(("put", v, inner[1 + i]))
        if inner[0] == "put":
            out.append(("put", inner[1], inner[2]))
        other = ("var", rng.choice(names))
        branches = [other, other]
        branches[i] = inner
        out.append(("put", v, ("get",) + tuple(branches)))
        out.append(("put", rng.choice(LABELS), t))
    return out


def walk(rng, t, moves, steps: int, max_size: int):
    """Apply ``steps`` random axiom steps at random positions, keeping the
    term below ``max_size`` nodes."""
    for _ in range(steps):
        spots = list(positions(t))
        rng.shuffle(spots)
        for path, sub in spots:
            options = [m for m in moves(sub) if size_of(replace(t, path, m)) <= max_size]
            if options:
                t = replace(t, path, rng.choice(options))
                break
    return t


def size_of(t) -> int:
    if t[0] in ("var", "true", "false", "unit"):
        return 1
    if t[0] == "put":
        return 1 + size_of(t[2])
    if t[0] == "abs":
        return 1 + size_of(t[3])
    return 1 + sum(size_of(u) for u in t[1:])


# --------------------------------------------------------------------------
# Between reference terms and clonal terms
# --------------------------------------------------------------------------


def sort_of(s):
    """A clonal Sort as a reference sort."""
    if not s.args:
        return s.former
    return arrow(sort_of(s.args[0]), sort_of(s.args[1]))


def clonal_sort(s):
    from clonal import Sort

    if s == B:
        return Sort(B)
    return Sort("=>", (clonal_sort(s[1]), clonal_sort(s[2])))


def fo_read(t, args):
    """A clonal first-order term (FoVar/FoOp) as a reference term, its i-th
    variable read as the reference term ``args[i-1]``."""
    from clonal.firstorder import FoVar

    if isinstance(t, FoVar):
        return args[t.index - 1]
    return _op(t.name, [fo_read(a, args) for a in t.args])


def _op(name, args):
    if name.startswith("put_"):
        return ("put", name.removeprefix("put_"), args[0])
    return (name,) + tuple(args)


def free_read(t, names):
    """A clonal free-algebra term as a reference term over ``names``."""
    from clonal.freealgebra import CloneApp, FreeOp, FreeVar

    if isinstance(t, FreeVar):
        return ("var", names[t.index - 1])
    if isinstance(t, CloneApp):
        args = [free_read(a, names) for a in t.args]
        if isinstance(t.element, int):
            return args[t.element - 1]
        return fo_read(t.element, args)
    if isinstance(t, FreeOp):
        if t.name == "app":
            (_, f), (_, a) = t.args
            return ("app", free_read(f, names), free_read(a, names))
        if t.name == "abs":
            ((_, body),) = t.args
            y = f"z{len(names) + 1}"
            return ("abs", y, sort_of(t.sort_args[0]), free_read(body, names + [y]))
    raise ValueError(f"not a free term: {t!r}")


def fo_write(t, names):
    """A first-order reference term as a clonal FoTerm over ``names``."""
    from clonal import Sort
    from clonal.firstorder import FoOp, FoVar

    tag = t[0]
    if tag == "var":
        return FoVar(names.index(t[1]) + 1)
    if tag == "put":
        return FoOp(f"put_{t[1]}", (), (fo_write(t[2], names),))
    sort_args = (Sort(B),) if tag == "ite" else ()
    return FoOp(tag, sort_args, tuple(fo_write(u, names) for u in t[1:]))


def gen_boolean(rng, names, size: int):
    """A base-sort term of the boolean theory alone (no binders)."""
    if size <= 1:
        return rng.choice([("var", x) for x in names] + [("true",), ("false",)])
    third = max(1, (size - 1) // 3)
    return ("ite", gen_boolean(rng, names, third), gen_boolean(rng, names, third),
            gen_boolean(rng, names, size - 1 - 2 * third))


def gen_free_bool(rng, ctx, sort, size: int):
    """A small lambda-with-booleans term built directly from clonal's
    constructors, as the enumerator would list it: clone applications may
    carry arguments their element ignores.  ``ctx`` and ``sort`` are
    reference sorts; the result is a clonal FreeTerm over ``ctx``."""
    from clonal import Context
    from clonal.firstorder import FoOp, FoVar
    from clonal.freealgebra import CloneApp, FreeOp, FreeVar

    def element(arity, want):
        """A boolean-clone element of sort ``want`` over ``arity``."""
        options = [FoVar(j) for j, s in enumerate(arity, start=1) if s == want]
        if want == B:
            options += [FoOp("true", (), ()), FoOp("false", (), ())]
        if options and rng.random() < 0.8:
            return rng.choice(options)
        conds = [FoVar(j) for j, s in enumerate(arity, start=1) if s == B]
        arms = [FoVar(j) for j, s in enumerate(arity, start=1) if s == want] or options
        if not conds or not arms:
            return rng.choice(options) if options else None
        return FoOp("ite", (clonal_sort(want),), (rng.choice(conds), rng.choice(arms),
                                                   rng.choice(arms)))

    def go(c, s, n):
        kinds = [k for k, cost in (("var", 1), ("elem", 1), ("app", 3), ("abs", 1)) if cost <= n]
        if s == B:
            kinds = [k for k in kinds if k != "abs"]
        while True:
            kind = rng.choice(kinds)
            if kind == "var":
                hits = [j for j, t in enumerate(c, start=1) if t == s]
                if hits:
                    return FreeVar(rng.choice(hits))
            elif kind == "elem":
                arity = [rng.choice((B, BB, s)) for _ in range(rng.randint(0, min(2, n - 1)))]
                e = element(arity, s)
                if e is None:
                    continue
                share = max(1, (n - 1) // max(1, len(arity)))
                args = tuple(go(c, a, share) for a in arity)
                return CloneApp(e, Context(tuple(clonal_sort(a) for a in arity)),
                                clonal_sort(s), args)
            elif kind == "app":
                dom = B
                half = max(1, (n - 1) // 2)
                return FreeOp("app", (clonal_sort(dom), clonal_sort(s)), (
                    (Context(()), go(c, arrow(dom, s), half)),
                    (Context(()), go(c, dom, half)),
                ))
            else:
                _, dom, cod = s
                return FreeOp("abs", (clonal_sort(dom), clonal_sort(cod)), (
                    (Context((clonal_sort(dom),)), go(c + [dom], cod, max(1, n - 1))),
                ))

    return go(list(ctx), sort, size)
