"""Command-line entry point.

Subcommands: check, normalize, eval, equal, provecheck, enumerate,
adequacy.  Exit codes: 0 success, 1 check or verdict failure, 2 usage or
parse error (an option the command does not read included), 3 budget
exhaustion.  All outputs are byte-stable across runs; only check samples,
seeded by --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from importlib import resources

from .clones import Budget, CloneError, Substitution, check_clone_laws
from .equality import free_equal, normalize_with_trace
from .firstorder import (
    FoVar,
    RewriteDivergence,
    check_fo_derivation,
    fo_subst,
    innermost_normal_form,
    rewrite_normalize,
    steps_to_derivation,
)
from .freealgebra import (
    CloneApp,
    FreeVar,
    check_free_derivation,
    enumerate_free_terms,
    fold_hom,
    raw_eq,
)
from .jsonio import (
    JsonError,
    context_from_json,
    document,
    field,
    fo_derivation_from_json,
    fo_derivation_to_json,
    free_derivation_from_json,
    free_derivation_to_json,
    free_term_to_json,
    load_document,
)
from .nbe import check_normal, nbe_normalize
from .secondorder import check_algebra
from .sorts import Context, Sort
from .stlc import adequacy_harness, set_model
from .surface import (
    STOCK,
    ParseError,
    TheoryBundle,
    parse_bundle,
    parse_context,
    parse_term,
    render_element,
    render_free,
    sort_text,
    stock_bundle,
)

OK, FAIL, USAGE, EXHAUSTED = 0, 1, 2, 3


def load_bundle(args) -> TheoryBundle:
    if args.bundle:
        with open(args.bundle, encoding="utf-8") as handle:
            return parse_bundle(handle.read())
    return stock_bundle(args.variant)


def bundled_source(variant: str) -> str:
    name = STOCK[variant][0]
    return resources.files("clonal.bundles").joinpath(f"{name}.bundle").read_text()


def _emit(args, human: str, data: dict) -> None:
    print(_to_json(data) if args.json else human)


def _to_json(data, pad: str = "\n") -> str:
    """``json.dumps(data, indent=2)`` for dicts with string keys only.  The
    standard library indents with closures that call each other, which
    leaves a reference cycle per call; this recursion leaves only scalars
    and keys to ``json.dumps``."""
    inner = pad + "  "
    if isinstance(data, dict):
        for k in data:
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
        items, brackets = [f"{json.dumps(k)}: {_to_json(v, inner)}" for k, v in data.items()], "{}"
    elif isinstance(data, (list, tuple)):
        items, brackets = [_to_json(v, inner) for v in data], "[]"
    else:
        return json.dumps(data)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _sort_arg(bundle, args) -> Sort:
    return sort_text(bundle.sort_set, args.sort)


def _context_arg(bundle, args):
    return parse_context(bundle, args.context)


def _model_fold(bundle):
    """The set model and the fold of the free algebra into it, or None when
    the base theory has no set-model homomorphism."""
    if bundle.theory.model_hom is None:
        return None
    model = set_model(presentation=bundle.surface)
    return model, fold_hom(bundle.free, model, bundle.theory.model_hom(model))


def cmd_check(args) -> int:
    bundle = load_bundle(args)
    budget = Budget(
        max_context_len=2,
        max_depth=args.depth,
        max_sort_height=1,
        max_terms=6,
        max_tuples=4,
        max_context_triples=48,
        seed=args.seed,
    )
    reports = []
    bundle.surface.check_well_formed(bundle.sort_set.sorts_up_to_height(1))
    if bundle.base is not None:
        bundle.base.check_well_formed(bundle.sort_set.sorts_up_to_height(1))
        reports.append(check_clone_laws(bundle.base_clone, budget, subject="base clone"))
    reports.append(check_clone_laws(bundle.free, budget, subject="free algebra clone"))
    reports.append(check_algebra(bundle.free, budget, subject="free algebra"))
    ok = all(r.ok for r in reports)
    human = "\n".join(r.summary() for r in reports) + f"\ncheck: {'pass' if ok else 'FAIL'}"
    _emit(args, human, document("check-report", {
        "ok": ok, "reports": [r.to_json() for r in reports],
    }, bundle=bundle.name))
    return OK if ok else FAIL


def _base_only(t):
    """Convert an element-application tree over variables into a base term,
    when the term mentions no operators."""
    match t:
        case FreeVar(index=i):
            return FoVar(i)
        case CloneApp(element=e, arity_ctx=actx, args=args):
            converted = [_base_only(a) for a in args]
            if any(c is None for c in converted):
                return None
            if isinstance(e, int):
                return converted[e - 1]
            return fo_subst(e, Substitution(Context(()), actx, tuple(converted)))
    return None


def _witness_holds(replay, same, lhs, rhs) -> bool:
    """Whether a kernel's ``replay`` of an internal witness accepts it and
    concludes lhs ~ rhs, with conclusions compared by ``same``; when it does
    not, say why on stderr.  A command answers from a witness only after
    this check."""
    if not replay.ok:
        print(f"internal witness rejected: {replay.error}", file=sys.stderr)
        return False
    if not (same(replay.lhs, lhs) and same(replay.rhs, rhs)):
        print(f"internal witness concludes {replay.lhs} ~ {replay.rhs}, "
              f"not {lhs} ~ {rhs}", file=sys.stderr)
        return False
    return True


def _free_witness_holds(bundle, ctx, sort, deriv, lhs, rhs) -> bool:
    """``_witness_holds`` for a free derivation, replayed in the bundle's
    free algebra; conclusions are compared by raw_eq."""
    base = bundle.free.base
    return _witness_holds(check_free_derivation(bundle.free, ctx, deriv),
                          lambda t, u: raw_eq(base, ctx, sort, t, u), lhs, rhs)


def cmd_normalize(args) -> int:
    bundle = load_bundle(args)
    ctx, names = _context_arg(bundle, args)
    sort = _sort_arg(bundle, args)
    term = parse_term(bundle, args.term, sort, ctx, names)
    names = names or [f"x{i}" for i in range(1, len(ctx) + 1)]

    # elsewhere the surface's equations may relate base terms (true ~ false)
    base_form = None if args.eta_long or bundle.surface.calculus is None else _base_only(term)
    system = bundle.theory.rewrite_system if base_form is not None and not sort.args else None
    if system is not None:
        if args.witness:
            nf, steps = rewrite_normalize(system, base_form)
            deriv = steps_to_derivation(base_form, steps)
            replay = check_fo_derivation(bundle.base, ctx, deriv)
            if not _witness_holds(replay, operator.eq, base_form, nf):
                return FAIL
            witness = fo_derivation_to_json(deriv)
        else:
            nf = innermost_normal_form(system, base_form, {})
        kind, payload = "base-normal-form", {"term": render_element(nf, names)}
    else:
        nf = nbe_normalize(bundle.free, ctx, sort, term)
        verdict = check_normal(bundle.free, ctx, sort, nf)
        if not verdict:
            print(f"normalization produced a non-normal form: {verdict.reason}", file=sys.stderr)
            return FAIL
        if args.witness:
            _, deriv = normalize_with_trace(bundle.free, ctx, sort, term)
            if not _free_witness_holds(bundle, ctx, sort, deriv, term, nf):
                return FAIL
            witness = free_derivation_to_json(deriv)
        kind = "normal-form"
        payload = {"term": render_free(nf, names, bundle.surface), "tree": free_term_to_json(nf)}
    human = payload["term"]
    if args.witness:
        payload["witness"] = witness
        human += "\nwitness: checked"
    _emit(args, human, document(kind, payload, bundle=bundle.name))
    return OK


def cmd_eval(args) -> int:
    bundle = load_bundle(args)
    model_fold = _model_fold(bundle)
    if model_fold is None:
        print("eval needs the boolean variant (finite set model)", file=sys.stderr)
        return USAGE
    sort = _sort_arg(bundle, args)
    try:
        term = parse_term(bundle, args.term, sort)
    except ParseError as e:
        print(e, file=sys.stderr)
        return USAGE
    model, fold = model_fold
    table = fold.apply(Context(()), sort, term)
    value = table[0]
    human = _render_value(model, sort, value)
    _emit(args, human, document("value", {"value": _value_json(model, sort, value)},
                                bundle=bundle.name))
    return OK


def _render_value(model, sort: Sort, value) -> str:
    if not sort.args:
        return str(value)
    a = sort.args[0]
    rows = [
        f"{_render_value(model, a, arg)} -> {_render_value(model, sort.args[1], res)}"
        for arg, res in zip(model.clone.space(a), value)
    ]
    return "{" + "; ".join(rows) + "}"


def _value_json(model, sort: Sort, value):
    if not sort.args:
        return value
    a, b = sort.args
    return [
        {"arg": _value_json(model, a, arg), "result": _value_json(model, b, res)}
        for arg, res in zip(model.clone.space(a), value)
    ]


def cmd_equal(args) -> int:
    if args.budget is not None and not args.search:
        print("clonal equal: error: --budget is the node budget of --search", file=sys.stderr)
        return USAGE
    bundle = load_bundle(args)
    ctx, names = _context_arg(bundle, args)
    sort = _sort_arg(bundle, args)
    left = parse_term(bundle, args.left, sort, ctx, names)
    right = parse_term(bundle, args.right, sort, ctx, names)
    mode = "search" if args.search else "normalize"
    # the set model is a model of the bundle, and so evidence, only in the lambda calculus
    model_fold = _model_fold(bundle) if not ctx and bundle.surface.calculus is not None else None
    model_hom = model_fold[1].apply if model_fold is not None else None
    verdict = free_equal(
        bundle.free, ctx, sort, left, right, mode=mode,
        budget=SEARCH_BUDGET if args.budget is None else args.budget,
        model_hom=model_hom,
    )
    if verdict.status == "equal" and not _free_witness_holds(
        bundle, ctx, sort, verdict.witness, left, right
    ):
        return FAIL
    payload = {"status": verdict.status}
    if verdict.witness is not None and args.witness:
        payload["witness"] = free_derivation_to_json(verdict.witness)
    if verdict.certificate is not None:
        payload["certificate"] = [str(v) for v in verdict.certificate]
    _emit(args, verdict.status, document("equality", payload, bundle=bundle.name))
    if verdict.status == "equal":
        return OK
    if verdict.status == "unknown":
        return EXHAUSTED
    return FAIL


def cmd_provecheck(args) -> int:
    bundle = load_bundle(args)
    with open(args.file, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as e:
            raise JsonError(f"not a JSON document: {e}") from None
    kind = field(data, "kind")
    if kind not in ("fo-derivation", "free-derivation"):
        print(f"unknown derivation document kind {kind!r}", file=sys.stderr)
        return USAGE
    payload = load_document(data, kind)
    if kind == "fo-derivation" and bundle.base is None:
        print("bundle has no base presentation", file=sys.stderr)
        return USAGE
    ctx, raw = context_from_json(field(payload, "context")), field(payload, "derivation")
    if kind == "fo-derivation":
        verdict = check_fo_derivation(bundle.base, ctx, fo_derivation_from_json(raw))
    else:
        verdict = check_free_derivation(bundle.free, ctx, free_derivation_from_json(raw))
    status = "accepted" if verdict.ok else f"rejected at {list(verdict.path)}: {verdict.error}"
    _emit(args, status, document("provecheck", {
        "ok": verdict.ok,
        "error": verdict.error,
        "path": list(verdict.path),
    }, bundle=bundle.name))
    return OK if verdict.ok else FAIL


def cmd_enumerate(args) -> int:
    bundle = load_bundle(args)
    ctx, names = _context_arg(bundle, args)
    sort = _sort_arg(bundle, args)
    terms = enumerate_free_terms(bundle.free, ctx, sort, max_size=args.budget)
    names = names or [f"x{i}" for i in range(1, len(ctx) + 1)]
    shown = [render_free(t, names, bundle.surface) for t in terms]
    _emit(args, "\n".join(shown) if shown else "(none)", document("enumeration", {
        "count": len(terms),
        "terms": shown,
    }, bundle=bundle.name))
    return OK


def cmd_adequacy(args) -> int:
    bundle = load_bundle(args)
    if bundle.theory.model_hom is None:
        print("adequacy runs on the boolean variant", file=sys.stderr)
        return USAGE
    report = adequacy_harness(args.budget, bundle.free)
    human = (
        f"terms: {report.terms}\npairs checked: {report.pairs_checked}\n"
        f"normal forms: {sorted(str(n) for n in report.normal_forms)}\n"
        f"adequacy: {'pass' if report.ok else 'FAIL'}"
    )
    _emit(args, human, document("adequacy", report.to_json(), bundle=bundle.name))
    return OK if report.ok else FAIL


# Default term-size bound of enumerate and adequacy.  The number of terms
# grows about eightfold per size: adequacy takes well under a second at 5
# and about twenty at 7, and the search default of 2000 exhausts memory.
SIZE_BUDGET = 5
SEARCH_BUDGET = 2000


@functools.cache  # built once per process; each parse makes a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the options its ``cmd_*``
    function reads; any other option is a usage error."""
    parser = argparse.ArgumentParser(
        prog="clonal",
        description="Define simple type theories over clones; normalize, "
        "evaluate, and check equational proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    context = ("--context", dict(default="", help='free variables, e.g. "x : b, f : b => b"'))
    sort = ("--sort", dict(default="b", help="sort of the input term(s)"))
    witness = ("--witness", dict(action="store_true",
                                 help="check the witness and add it to --json output"))
    size = ("--budget", dict(type=int, default=SIZE_BUDGET,
                             help="term-size bound (default: %(default)s)"))

    def command(name, func, help, positionals, *options):
        p = sub.add_parser(name, help=help)
        p.add_argument("--bundle", help="path to a bundle file")
        p.add_argument(
            "--variant", choices=tuple(STOCK), default="bool",
            help="stock theory to use when no bundle file is given",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for positional in positionals:
            p.add_argument(positional)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)

    command("check", cmd_check, "well-formedness, clone laws, algebra laws", (),
            ("--depth", dict(type=int, choices=range(3), default=2,
                             help="depth of the sampled terms (default: %(default)s)")),
            ("--seed", dict(type=int, default=0, help="seed for sampled checks")))
    command("normalize", cmd_normalize, "eta-long beta-normal form", ("term",),
            context, sort, witness,
            ("--eta-long", dict(action="store_true", help="always produce the full "
                                "eta-long form (skip the plain base rewrite)")))
    command("eval", cmd_eval, "interpret a closed term in the finite set model", ("term",), sort)
    command("equal", cmd_equal, "decide provable equality with a witness", ("left", "right"),
            context, sort, witness,
            ("--search", dict(action="store_true", help="bounded proof search")),
            ("--budget", dict(type=int, help=f"search node budget, with --search only "
                              f"(default: {SEARCH_BUDGET})")))
    command("provecheck", cmd_provecheck, "replay a serialized derivation", ("file",))
    command("enumerate", cmd_enumerate, "closed or open terms up to a size bound", (),
            context, sort, size)
    command("adequacy", cmd_adequacy, "set-model adequacy harness", (), size)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return USAGE
    except JsonError as e:
        print(f"JSON error: {e}", file=sys.stderr)
        return USAGE
    except RewriteDivergence as e:
        print(e, file=sys.stderr)
        return EXHAUSTED
    except FileNotFoundError as e:
        print(e, file=sys.stderr)
        return USAGE
    except CloneError as e:
        print(e, file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
