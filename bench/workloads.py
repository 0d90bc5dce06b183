"""The three workloads: certify, search and harness.

A workload builds its theories once, at set-up, and then hands out
rounds.  A round is a list of operations of fixed length and make-up,
generated from (seed, round number) alone.  An operation is
``Op(kind, inputs, run, check)``, where ``inputs`` is the text the
run digest is taken over; ``run(tr)`` makes the program calls, each inside
a span named ``<module>.<what>`` after the layer it calls into, and returns
what they produced; ``check(out, tr)`` judges that output apart from the
program (checks.py) and returns None, ``FAILED`` or a description of the
wrong output.  Counts for the traced run are taken in ``check``, outside
the timed calls.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import checks
import reference as R
import terms as T
from reference import B
from terms import BB, LABELS

from clonal import Context, Sort
from clonal.cli import main as cli_main
from clonal.clones import (
    Budget,
    CloneHom,
    ContextExtensionClone,
    ProductClone,
    Substitution,
    check_clone_laws,
    extend_context_hom,
    weaken_hom,
    weakening,
)
from clonal.equality import free_equal, normalize_with_trace
from clonal.firstorder import (
    FoOp,
    FoVar,
    bool_clone,
    check_fo_derivation,
    global_state_presentation,
    gs_clone,
    gs_rewrite_system,
    monoid_presentation,
    prove_fo_equal,
    rewrite_normalize,
    steps_to_derivation,
)
from clonal.freealgebra import (
    CloneApp,
    FreeOp,
    FreeVar,
    check_free_derivation,
    fold_hom,
    raw_eq,
    unit_hom,
)
from clonal.induction import ClonePredicate, assert_conclusion, check_induction_hypotheses
from clonal.jsonio import (
    context_to_json,
    document,
    free_derivation_from_json,
    free_derivation_to_json,
    free_term_to_json,
    load_document,
)
from clonal.nbe import check_normal, nbe_normalize
from clonal.secondorder import check_algebra
from clonal.stlc import bool_model_hom, eval_closed, set_model, stlc_bool
from clonal.surface import parse_context, parse_term, stock_bundle

Op = namedtuple("Op", "kind inputs run check")

E = Context(())
SB = Sort(B)
SBB = Sort("=>", (SB, SB))
XY = ["x", "y"]
CTX_XY = Context((SB, SB))


def nodes(d) -> int:
    """Node count of a derivation tree, first-order or free."""
    n = 1
    for name in ("child", "left", "right"):
        sub = getattr(d, name, None)
        if sub is not None:
            n += nodes(sub)
    for c in getattr(d, "children", ()):
        n += nodes(c)
    return n


def context_text(ctxspec) -> str:
    return ", ".join(f"{x} : {R.show_sort(s)}" for x, s in ctxspec)


def redex(rng, gen, dom, sort, size):
    """A beta-redex of ``sort`` at the root, so that every query has work to
    do and a witness that is not reflexivity.  ``gen(rng, extra context,
    sort, size, fresh)`` makes the body and the argument."""
    fresh = T.Fresh()
    y = fresh()
    body = gen(rng, [(y, dom)], sort, max(1, size // 2), fresh)
    return ("app", ("abs", y, dom, body), gen(rng, [], dom, max(1, size // 2), fresh))


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue().strip()


# --------------------------------------------------------------------------
# certify: interactive queries answered with a certificate
# --------------------------------------------------------------------------


class Certify:
    """Many small independent queries over the stlc, bool and gs theories.

    Per round: 24 certified queries (8 per theory), 8 normalize-mode
    equality pairs, 8 state rewrites with replayed traces, 10 CLI calls
    and 2 CLI state normalizations, which fail while `clonal normalize`
    rewrites pure state terms with the bare rewrite system."""

    theories = {
        # variant: (context, sorts)
        "stlc": ([("x", B), ("f", BB)], [B, BB]),
        "bool": ([("x", B)], [B, BB]),
        "gs": ([("x", B), ("y", B)], [B]),
    }
    # Pure state terms with the same state table; `clonal normalize` must
    # print the same normal form for both.  Fixed, not drawn from the seed.
    state_pairs = [("get x x", "x"), ("get (put v2 x) (put v2 x)", "put v1 (put v2 x)")]

    def __init__(self, out_dir: str):
        self.bundles = {v: stock_bundle(v) for v in ("stlc", "bool", "gs")}
        self.rs = gs_rewrite_system(LABELS)
        self.pres = self.rs.presentation
        free = self.bundles["bool"].free
        model = set_model(presentation=self.bundles["bool"].surface)
        fold = fold_hom(free, model, bool_model_hom(free, model))
        self.model_hom = lambda c, s, t: fold.apply(c, s, t)
        self.docs = [os.path.join(out_dir, f"witness-{i}.json") for i in range(2)]

    # generators ----------------------------------------------------------

    def _term(self, rng, variant, ctxspec, sort, size):
        if variant == "gs":
            names = [x for x, _ in ctxspec]
            gen = lambda r, extra, s, n, f: T.gen_state(r, names + [x for x, _ in extra], n, f)
            return redex(rng, gen, B, B, size)
        # Boolean terms keep conditionals and redex binders at the base
        # sort: the step normalizer's faults with them at function sorts show
        # on some seeds only (README.md, "Known failures").
        consts = base_only = variant == "bool"
        gen = lambda r, extra, s, n, f: T.gen_lambda(r, ctxspec + extra, s, n, f, consts, base_only)
        return redex(rng, gen, B if base_only else rng.choice((B, BB)), sort, size)

    def _meaning(self, variant, ctxspec, t):
        if variant == "gs":
            return R.state_table(t, [x for x, _ in ctxspec], LABELS)
        return R.bool_value(t, ctxspec)

    def round(self, rng) -> list[Op]:
        witnesses: list = []
        ops = []
        for variant in ("stlc", "bool", "gs"):
            ops += [self.query(rng, variant, witnesses) for _ in range(8)]
        ops += [self.equal_pair(rng) for _ in range(8)]
        ops += [self.rewrite(rng) for _ in range(8)]
        ops += [self.cli_normalize(rng, v) for v in ("bool", "bool", "stlc", "gs")]
        ops += [self.cli_equal(rng) for _ in range(2)]
        ops += [self.cli_eval(rng, s) for s in (B, BB)]
        ops += [self.cli_provecheck(witnesses, tamper) for tamper in (False, True)]
        ops += [self.cli_state_normalize(t, u) for t, u in self.state_pairs]
        return ops

    # operations ----------------------------------------------------------

    def query(self, rng, variant, witnesses) -> Op:
        ctxspec, sorts = self.theories[variant]
        ctxspec = ctxspec if variant != "bool" or rng.random() < 0.5 else []
        sort = rng.choice(sorts)
        ast = self._term(rng, variant, ctxspec, sort, rng.randint(6, 14))
        text, ctext = R.show(ast), context_text(ctxspec)
        bundle = self.bundles[variant]
        free = bundle.free
        csort = T.clonal_sort(sort)

        def run(tr):
            with tr.span("surface.parse"):
                ctx, names = parse_context(bundle, ctext)
                term = parse_term(bundle, text, csort, ctx, names)
            with tr.span("nbe.normalize"):
                nf = nbe_normalize(free, ctx, csort, term)
            with tr.span("nbe.check_normal"):
                normal = check_normal(free, ctx, csort, nf)
            with tr.span("equality.trace"):
                step_nf, deriv = normalize_with_trace(free, ctx, csort, term)
            with tr.span("freealgebra.replay"):
                verdict = check_free_derivation(free, ctx, deriv)
            with tr.span("jsonio.roundtrip"):
                data = json.dumps(document("free-derivation", {
                    "context": context_to_json(ctx),
                    "derivation": free_derivation_to_json(deriv),
                }))
                back = free_derivation_from_json(
                    load_document(json.loads(data), "free-derivation")["derivation"])
            return ctx, names, term, nf, normal, step_nf, deriv, verdict, data, back

        def check(out, tr):
            ctx, names, term, nf, normal, step_nf, deriv, verdict, data, back = out
            same = lambda a, b: raw_eq(free.base, ctx, csort, a, b)
            err = (
                (None if normal.ok else f"NbE output is not normal: {normal.reason}")
                or checks.same_meaning(self._meaning(variant, ctxspec, ast),
                                       self._meaning(variant, ctxspec, T.free_read(nf, names)))
                or (None if same(step_nf, nf) else "step normalizer and NbE disagree")
                or checks.witness(verdict, term, nf, same)
                or (None if back == deriv else "jsonio round trip changed the witness")
            )
            if err is None:
                witnesses.append((data, free_term_to_json(term)))
                tr.count("equality.trace_nodes", nodes(deriv))
                tr.count("freealgebra.replay_nodes", nodes(deriv))
                tr.count("jsonio.witness_kb", len(data) / 1000)
            return err

        return Op("query." + variant, (ctext, text), run, check)

    def equal_pair(self, rng) -> Op:
        """Two closed boolean terms; half the time the second is drawn until
        it has the first one's value."""
        gen = lambda: T.gen_lambda(rng, [], B, rng.randint(5, 12), T.Fresh(), True, True)
        t_ast, u_ast = gen(), gen()
        if rng.random() < 0.5:
            for _ in range(50):
                if R.bool_value(u_ast, []) == R.bool_value(t_ast, []):
                    break
                u_ast = gen()
        bundle = self.bundles["bool"]
        free = bundle.free

        def run(tr):
            with tr.span("surface.parse"):
                t = parse_term(bundle, R.show(t_ast), SB)
                u = parse_term(bundle, R.show(u_ast), SB)
            with tr.span("equality.trace"):
                verdict = free_equal(free, E, SB, t, u, mode="normalize",
                                     model_hom=self.model_hom)
            replay = None
            if verdict.witness is not None:
                with tr.span("freealgebra.replay"):
                    replay = check_free_derivation(free, E, verdict.witness)
            return t, u, verdict, replay

        def check(out, tr):
            t, u, verdict, replay = out
            vt, vu = R.bool_value(t_ast, []), R.bool_value(u_ast, [])
            same = lambda a, b: raw_eq(free.base, E, SB, a, b)
            if verdict.status == "equal":
                if vt != vu:
                    return f"equal verdict on terms of values {vt} and {vu}"
                tr.count("freealgebra.replay_nodes", nodes(verdict.witness))
                return checks.witness(replay, t, u, same)
            if verdict.status != "not_equal" or vt == vu:
                return f"verdict {verdict.status} on closed terms of values {vt} and {vu}"
            got = tuple(c[0] for c in verdict.certificate)
            return None if got == (vt[0], vu[0]) else f"certificate {got} for values {vt}, {vu}"

        return Op("equal.normalize", (t_ast, u_ast), run, check)

    def rewrite(self, rng) -> Op:
        """A pure state term and an axiom walk away from it: the completed
        rewrite system must bring both to one normal form, with traces that
        replay against the bare presentation."""
        t_ast = T.gen_state(rng, XY, rng.randint(4, 10), T.Fresh(), binders=False)
        u_ast = T.walk(rng, t_ast, lambda s: T.state_moves(s, XY, rng), 3, 20)
        pair = (T.fo_write(t_ast, XY), T.fo_write(u_ast, XY))

        def run(tr):
            out = []
            for t in pair:
                with tr.span("firstorder.rewrite"):
                    nf, steps = rewrite_normalize(self.rs, t, "innermost")
                with tr.span("firstorder.replay"):
                    deriv = steps_to_derivation(t, steps)
                    verdict = check_fo_derivation(self.pres, CTX_XY, deriv)
                out.append((t, nf, steps, deriv, verdict))
            return out

        def check(out, tr):
            table = R.state_table(t_ast, XY, LABELS)
            for t, nf, steps, deriv, verdict in out:
                err = checks.witness(verdict, t, nf, lambda a, b: a == b) or checks.same_meaning(
                    table, R.state_table(T.fo_read(nf, [("var", x) for x in XY]), XY, LABELS))
                if err:
                    return err
                tr.count("firstorder.rewrite_steps", len(steps))
                tr.count("firstorder.replay_nodes", nodes(deriv))
            if out[0][1] != out[1][1]:
                return f"one state table, two normal forms: {out[0][1]} and {out[1][1]}"
            return None

        return Op("rewrite.gs", (t_ast, u_ast), run, check)

    def cli_normalize(self, rng, variant) -> Op:
        ctxspec, sorts = self.theories[variant]
        sort = rng.choice(sorts)
        ast = self._term(rng, variant, ctxspec, sort, rng.randint(5, 10))
        argv = ["normalize", "--variant", variant, R.show(ast),
                "--context", context_text(ctxspec), "--sort", R.show_sort(sort)]
        names = [x for x, _ in ctxspec]

        def run(tr):
            with tr.span("cli.main"):
                return cli(argv)

        def check(out, tr):
            code, text = out
            if code != 0:
                return f"normalize exited {code}: {text}"
            return checks.same_meaning(
                self._meaning(variant, ctxspec, ast),
                self._meaning(variant, ctxspec, R.parse(text, names)))

        return Op("cli.normalize", argv, run, check)

    def cli_equal(self, rng) -> Op:
        gen = lambda: T.gen_lambda(rng, [], B, rng.randint(4, 9), T.Fresh(), True, True)
        t_ast, u_ast = gen(), gen()
        argv = ["equal", "--variant", "bool", R.show(t_ast), R.show(u_ast)]

        def run(tr):
            with tr.span("cli.main"):
                return cli(argv)

        def check(out, tr):
            code, text = out
            want = "equal" if R.bool_value(t_ast, []) == R.bool_value(u_ast, []) else "not_equal"
            return None if (code, text) == ((0 if want == "equal" else 1), want) else (
                f"equal printed {text!r} (exit {code}), expected {want}")

        return Op("cli.equal", argv, run, check)

    def cli_eval(self, rng, sort) -> Op:
        ast = T.gen_lambda(rng, [], sort, rng.randint(5, 10), T.Fresh(), True)
        argv = ["eval", R.show(ast), "--sort", R.show_sort(sort)]

        def run(tr):
            with tr.span("cli.main"):
                return cli(argv)

        def check(out, tr):
            code, text = out
            return checks.value_text(code, text, sort, R.bool_value(ast, [])[0])

        return Op("cli.eval", argv, run, check)

    def cli_provecheck(self, witnesses, tamper: bool) -> Op:
        """Replay the first query's witness from a file; the tampered copy
        appends a reflexivity step at the input, so its middle terms
        disagree and the kernel must reject it."""
        path = self.docs[int(tamper)]

        def run(tr):
            if not witnesses:
                return None
            data, term_json = witnesses[0]
            if tamper:
                doc = json.loads(data)
                doc["payload"]["derivation"] = {"rule": "trans", "children": [
                    doc["payload"]["derivation"], {"rule": "refl", "term": term_json}]}
                data = json.dumps(doc)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(data)
            with tr.span("cli.main"):
                return cli(["provecheck", "--variant", "stlc", path])

        def check(out, tr):
            if out is None:
                return "no witness to replay"
            code, text = out
            if tamper:
                return None if code == 1 and text.startswith("rejected") else (
                    f"tampered witness: exit {code}, {text!r}")
            return None if (code, text) == (0, "accepted") else f"witness: exit {code}, {text!r}"

        return Op("cli.provecheck", tamper, run, check)

    def cli_state_normalize(self, t_text, u_text) -> Op:
        table = R.state_table(R.parse(t_text, ["x"]), ["x"], LABELS)

        def run(tr):
            outs = []
            for text in (t_text, u_text):
                with tr.span("cli.main"):
                    outs.append(cli(["normalize", "--variant", "gs", text, "--context", "x : b"]))
            return outs

        def check(out, tr):
            return checks.state_normal_forms(out, table)

        return Op("cli.normalize_state", (t_text, u_text), run, check)


# --------------------------------------------------------------------------
# search: bounded proof search
# --------------------------------------------------------------------------


def _found_slow_pair():
    """<false()>(<x1>(abs(_.<false()>))) ~ <x1>(x1) in context x1 : b: a
    pair whose search time grows exponentially with the node budget."""
    false = CloneApp(FoOp("false", (), ()), E, SB, ())
    inner = CloneApp(FoVar(1), Context((SBB,)), SBB,
                     (FreeOp("abs", (SB, SB), ((Context((SB,)), false),)),))
    return CloneApp(FoOp("false", (), ()), Context((SBB,)), SB, (inner,)), CloneApp(
        FoVar(1), Context((SB,)), SB, (FreeVar(1),))


class Search:
    """A few long searches per round: 6 global-state pairs (2 equal by an
    axiom walk, 4 unequal under the reference semantics) and 12 monoid
    pairs (2 equal, 10 unequal) through prove_fo_equal, and 3 drawn
    lambda-with-booleans pairs plus the slow pair through
    free_equal(mode="search")."""

    fo_nodes = 120
    free_budget = 40

    def __init__(self, out_dir: str):
        self.gs = global_state_presentation(LABELS)
        self.monoid = monoid_presentation()
        self.free = stlc_bool()
        self.ctx_x = Context((SB,))
        self.ctx_mon = Context((Sort("*"), Sort("*")))
        self.slow = _found_slow_pair()

    def round(self, rng) -> list[Op]:
        ops = []
        for theory, n_equal, n_unequal in (("gs", 2, 4), ("monoid", 2, 10)):
            ops += [self.fo_pair(rng, theory, True) for _ in range(n_equal)]
            ops += [self.fo_pair(rng, theory, False) for _ in range(n_unequal)]
        ops += [self.free_pair(*self._draw(rng)) for _ in range(3)]
        ops.append(self.free_pair(*self.slow))
        return ops

    def _draw(self, rng):
        return tuple(T.gen_free_bool(rng, [B], B, rng.randint(2, 5)) for _ in range(2))

    def fo_pair(self, rng, theory, equal) -> Op:
        if theory == "gs":
            pres, ctx = self.gs, CTX_XY
            gen = lambda: T.gen_state(rng, XY, 5, T.Fresh(), binders=False)
            moves = lambda s: T.state_moves(s, XY, rng)
            meaning = lambda t: R.state_table(t, XY, LABELS)
        else:
            pres, ctx = self.monoid, self.ctx_mon
            gen = lambda: T.gen_monoid(rng, XY, 5)
            moves = T.monoid_moves
            meaning = R.flatten
        t_ast = gen()
        if equal:
            u_ast = T.walk(rng, t_ast, moves, 2, 12)
        else:
            u_ast = gen()
            while meaning(u_ast) == meaning(t_ast):
                u_ast = gen()
        t, u = T.fo_write(t_ast, XY), T.fo_write(u_ast, XY)

        def run(tr):
            with tr.span("firstorder.search"):
                proof = prove_fo_equal(pres, ctx, t, u, max_nodes=self.fo_nodes)
            if proof is None:
                return None, None
            with tr.span("firstorder.replay"):
                return proof, check_fo_derivation(pres, ctx, proof)

        def check(out, tr):
            proof, verdict = out
            if proof is None:
                return None
            tr.count("firstorder.search_found", 1)
            tr.count("firstorder.replay_nodes", nodes(proof))
            return checks.proof(verdict, t, u, lambda a, b: a == b,
                                meaning(t_ast) == meaning(u_ast))

        return Op(f"search.{theory}", (t_ast, u_ast), run, check)

    def free_pair(self, t, u) -> Op:
        free, ctx = self.free, self.ctx_x

        def run(tr):
            with tr.span("equality.search"):
                verdict = free_equal(free, ctx, SB, t, u, mode="search", budget=self.free_budget)
            if verdict.status != "equal":
                return verdict, None
            with tr.span("freealgebra.replay"):
                return verdict, check_free_derivation(free, ctx, verdict.witness)

        def check(out, tr):
            verdict, replay = out
            if verdict.status == "not_equal":
                return "search mode answered not_equal"
            if replay is None:
                return None
            tr.count("equality.search_found", 1)
            tr.count("freealgebra.replay_nodes", nodes(verdict.witness))
            meaning = lambda s: R.bool_value(T.free_read(s, ["x"]), [("x", B)])
            return checks.proof(replay, t, u, lambda a, b: raw_eq(free.base, ctx, SB, a, b),
                                meaning(t) == meaning(u))

        return Op("search.free", (t, u), run, check)


# --------------------------------------------------------------------------
# harness: the metatheory harnesses at desk scale
# --------------------------------------------------------------------------


class Identity(CloneHom):
    def apply(self, ctx, sort, t):
        return t


class Harness:
    """Per round: 10 clone-law instances (2 on each of the product,
    context-extension, boolean, state and free clones), 4 instances of the
    context-extension universal property, 6 closed evaluations in the set
    model, 3 adequacy groups of 6 closed terms, and one small run each of
    check_clone_laws, check_algebra and the induction harness."""

    def __init__(self, out_dir: str):
        self.bools = bool_clone()
        self.state = gs_clone(LABELS)
        self.free = stlc_bool()
        self.bundle = stock_bundle("bool")
        self.extra = Context((SB,))
        self.clones = {
            "product": ProductClone(self.bools, self.state),
            "extension": ContextExtensionClone(self.bools, self.extra),
            "bool": self.bools,
            "state": self.state,
            "free": self.free,
        }
        self.model = set_model(presentation=self.free.presentation)
        self.fold = fold_hom(self.free, self.model, bool_model_hom(self.free, self.model))
        self.unit = unit_hom(self.free)
        self.free_fold = fold_hom(self.free, self.free, self.unit)
        self.id_hom = Identity(self.bools, self.bools)

    def round(self, rng) -> list[Op]:
        ops = []
        for name in self.clones:
            ops += [self.law_instance(rng, name) for _ in range(2)]
        ops += [self.extension(rng) for _ in range(4)]
        ops += [self.evaluate(rng, s) for s in (B, B, BB, BB, R.arrow(BB, B), R.arrow(B, BB))]
        ops += [self.adequacy(rng) for _ in range(3)]
        ops.append(self.law_run(rng))
        ops.append(self.algebra_run(rng))
        ops.append(self.induction(rng))
        return ops

    # terms of each clone and their reference meaning ---------------------

    def _term(self, rng, name, ctx_names):
        """A term of clone ``name`` over base-sort variables ``ctx_names``."""
        if name == "product":
            return self._term(rng, "bool", ctx_names), self._term(rng, "state", ctx_names)
        if name in ("bool", "extension"):
            names = ctx_names + (["e"] if name == "extension" else [])
            return T.fo_write(T.gen_boolean(rng, names, rng.randint(2, 7)), names)
        if name == "state":
            ast = T.gen_state(rng, ctx_names, rng.randint(2, 7), T.Fresh(), binders=False)
            return T.fo_write(ast, ctx_names)
        return T.gen_free_bool(rng, [B] * len(ctx_names), B, rng.randint(2, 5))

    def _meaning(self, name, term, ctx_names):
        if name == "product":
            return (self._meaning("bool", term[0], ctx_names),
                    self._meaning("state", term[1], ctx_names))
        if name == "state":
            ast = T.fo_read(term, [("var", x) for x in ctx_names])
            return R.state_table(ast, ctx_names, LABELS)
        if name == "free":
            ast = T.free_read(term, ctx_names)
        else:
            names = ctx_names + (["e"] if name == "extension" else [])
            ast = T.fo_read(term, [("var", x) for x in names])
            ctx_names = names
        return R.bool_value(ast, [(x, B) for x in ctx_names])

    def law_instance(self, rng, name) -> Op:
        """t[outer][inner] = t[outer o inner], var_i[outer] = outer_i and
        t[id] = t, over base-sort contexts of lengths 1 to 3."""
        clone = self.clones[name]
        lens = [rng.randint(1, 3) for _ in range(3)]
        g, d, th = ([f"{p}{i}" for i in range(1, n + 1)] for p, n in zip("gdt", lens))
        cg, cd, cth = (Context((SB,) * n) for n in lens)
        t = self._term(rng, name, g)
        outer = Substitution(cd, cg, tuple(self._term(rng, name, d) for _ in g))
        inner = Substitution(cth, cd, tuple(self._term(rng, name, th) for _ in d))
        i = rng.randint(1, len(g))
        eq_span = f"{type(clone).__module__.rsplit('.', 1)[-1]}.term_eq"

        def run(tr):
            with tr.span("clones.subst"):
                two_step = clone.subst(clone.subst(t, outer), inner)
            with tr.span("clones.compose"):
                composed = clone.compose(outer, inner)
            with tr.span("clones.subst"):
                one_step = clone.subst(t, composed)
                var_i = clone.subst(clone.var(cg, i), outer)
                same = clone.subst(t, clone.identity(cg))
            with tr.span(eq_span):
                holds = (
                    clone.term_eq(cth, SB, two_step, one_step),
                    clone.term_eq(cd, SB, var_i, outer.component(i)),
                    clone.term_eq(cg, SB, same, t),
                )
            return two_step, one_step, var_i, same, holds

        def check(out, tr):
            two_step, one_step, var_i, same, holds = out
            if not all(holds):
                return f"{name} clone: law instance fails ({holds})"
            return (
                checks.same_meaning(self._meaning(name, two_step, th),
                                    self._meaning(name, one_step, th))
                or checks.same_meaning(self._meaning(name, var_i, d),
                                       self._meaning(name, outer.component(i), d))
                or checks.same_meaning(self._meaning(name, same, g), self._meaning(name, t, g))
            )

        return Op(f"law.{name}", (t, outer, inner, i), run, check)

    def extension(self, rng) -> Op:
        """Criterion 2's universal property on the boolean clone: g is
        induced by the identity and a closed boolean for the extra entry."""
        n = rng.randint(0, 2)
        g = [f"g{i}" for i in range(1, n + 1)]
        gamma = Context((SB,) * n)
        closed_ast = T.gen_boolean(rng, [], rng.randint(1, 4))
        sigma = Substitution(E, self.extra, (T.fo_write(closed_ast, []),))
        t = T.fo_write(T.gen_boolean(rng, g, rng.randint(1, 6)), g)
        t_ext_ast = T.gen_boolean(rng, g + ["e"], rng.randint(1, 6))
        t_ext = T.fo_write(t_ext_ast, g + ["e"])
        bools = self.bools

        def run(tr):
            with tr.span("clones.hom_apply"):
                hom = extend_context_hom(self.id_hom, self.extra, sigma)
                wk = weaken_hom(bools, self.extra)
                back = hom.apply(gamma, SB, wk.apply(gamma, SB, t))
                fresh = hom.apply(gamma, SB, FoVar(n + 1))
                closed = hom.apply(gamma, SB, t_ext)
            with tr.span("clones.subst"):
                want_fresh = bools.rename(sigma.component(1), weakening(E, gamma))
            with tr.span("firstorder.term_eq"):
                holds = (
                    bools.term_eq(gamma, SB, back, t),
                    bools.term_eq(gamma, SB, fresh, want_fresh),
                )
            return closed, holds

        def check(out, tr):
            closed, holds = out
            if not all(holds):
                return f"extension: universal property fails ({holds})"
            # g(t) for t over gamma + e is t with e read as sigma's value
            e_value = R.bool_value(closed_ast, [])[0]
            want = tuple(
                v for v, point in zip(R.bool_value(t_ext_ast, [(x, B) for x in g + ["e"]]),
                                      itertools.product((R.TT, R.FF), repeat=n + 1))
                if point[-1] == e_value
            )
            got = R.bool_value(T.fo_read(closed, [("var", x) for x in g]), [(x, B) for x in g])
            return checks.same_meaning(want, got)

        return Op("law.extension_hom", (closed_ast, t, t_ext_ast), run, check)

    def evaluate(self, rng, sort) -> Op:
        ast = T.gen_lambda(rng, [], sort, rng.randint(6, 14), T.Fresh(), True)
        text, csort = R.show(ast), T.clonal_sort(sort)

        def run(tr):
            with tr.span("surface.parse"):
                t = parse_term(self.bundle, text, csort)
            with tr.span("stlc.model"):
                return eval_closed(self.free, self.model, csort, t)

        def check(out, tr):
            return checks.same_meaning(R.bool_value(ast, [])[0], out)

        return Op("model.eval", text, run, check)

    def adequacy(self, rng) -> Op:
        asts = [T.gen_lambda(rng, [], B, rng.randint(4, 12), T.Fresh(), True) for _ in range(6)]
        terms = [None] * len(asts)

        def run(tr):
            out = []
            for k, ast in enumerate(asts):
                with tr.span("surface.parse"):
                    terms[k] = parse_term(self.bundle, R.show(ast), SB)
                with tr.span("freealgebra.fold"):
                    value = self.fold.apply(E, SB, terms[k])[0]
                with tr.span("nbe.normalize"):
                    nf = nbe_normalize(self.free, E, SB, terms[k])
                with tr.span("nbe.check_normal"):
                    normal = check_normal(self.free, E, SB, nf)
                out.append((value, nf, normal.ok))
            return out

        def check(out, tr):
            return checks.adequacy(
                [(value, T.free_read(nf, []) if ok else None) for value, nf, ok in out],
                [R.bool_value(a, [])[0] for a in asts])

        return Op("adequacy", asts, run, check)

    def law_run(self, rng) -> Op:
        name = rng.choice(sorted(self.clones))
        clone = self.clones[name]
        budget = Budget(max_context_len=2, max_depth=1, max_sort_height=0, max_terms=4,
                        max_tuples=3, max_context_triples=8, seed=rng.randrange(1 << 30))

        def run(tr):
            with tr.span("clones.laws"):
                return check_clone_laws(clone, budget, subject=name)

        def check(out, tr):
            tr.count("clones.law_instances", sum(law.checked for law in out.laws))
            return None if out.ok else out.summary()

        return Op("laws.clone", (name, budget), run, check)

    def algebra_run(self, rng) -> Op:
        budget = Budget(max_context_len=1, max_depth=0, max_sort_height=1, max_terms=3,
                        max_tuples=3, seed=rng.randrange(1 << 30))

        def run(tr):
            with tr.span("secondorder.algebra_laws"):
                return check_algebra(self.model, budget, subject="set model")

        def check(out, tr):
            return None if out.ok else out.summary()

        return Op("laws.algebra", budget, run, check)

    def induction(self, rng) -> Op:
        """The predicate "normalizes to a form check_normal accepts" over
        the boolean free algebra: hypotheses on generated pools, then the
        conclusion for the fold of the unit."""
        free = self.free
        contexts = [E, Context((SB,))]
        pools, bases = {}, {}
        for c in contexts:
            names = [f"x{i}" for i in range(1, len(c) + 1)]
            for s in (B, BB):
                pools[(c, T.clonal_sort(s))] = [
                    T.gen_free_bool(rng, [B] * len(c), s, rng.randint(1, 4)) for _ in range(4)]
            bases[(c, SB)] = [T.fo_write(T.gen_boolean(rng, names, rng.randint(1, 4)), names)
                              for _ in range(3)]
        pred = ClonePredicate(
            free, lambda c, s, t: check_normal(free, c, s, nbe_normalize(free, c, s, t)).ok)
        budget = Budget(max_terms=4, max_tuples=4)

        def run(tr):
            with tr.span("induction.hypotheses"):
                hyp = check_induction_hypotheses(
                    free, self.unit, pred, contexts, [SB, SBB],
                    lambda c, s: pools.get((c, s), []), lambda c, s: bases.get((c, s), []),
                    budget)
            with tr.span("induction.conclusion"):
                concl = assert_conclusion(free, self.free_fold, pred, contexts, [SB, SBB],
                                          lambda c, s: pools.get((c, s), []), budget)
            return hyp, concl

        def check(out, tr):
            hyp, concl = out
            if not hyp.ok:
                return f"induction hypotheses fail: {hyp.witnesses[:2]}"
            return None if concl.ok else f"induction conclusion fails: {concl.violations[:2]}"

        return Op("induction", (pools, bases), run, check)



WORKLOADS = {"certify": Certify, "search": Search, "harness": Harness}
