"""Textual syntax: sorts, terms, and theory bundle files.

Surface terms use named variables and named metavariables, resolved to
positional indices during elaboration; raw positional variables are
written #1, #2, ...  Application is juxtaposition: a variable-headed chain
is iterated lambda application, an operator-headed chain applies the
operator to the following atoms, and ``put v1 t`` selects the put operator
for the value label v1.  Binding abstraction is written ``abs x. t`` with
an optional sort annotation on the binder.

The bundle grammar (one declaration per line, LL(1)) is documented in
docs/bundle-grammar.md and exercised by the shipped bundle files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .clones import CloneError
from .firstorder import (
    FoEquationSchema,
    FoOp,
    FoOpSchema,
    FoPresentation,
    FoSignature,
    FoVar,
)
from .freealgebra import CloneApp, FreeAlgebra, FreeOp, FreeVar
from .secondorder import (
    MetaApp,
    MetaDecl,
    SoEquationSchema,
    SoOp,
    SoOpSchema,
    SoPresentation,
    SoSignature,
    SoVar,
    stlc_presentation,
)
from .sorts import Context, Sort, SortSet, SortVar, instantiate_sort, match_sort, sort_vars
from .theories import TIERS, BaseTheory, PresentationMismatch, booleans, free_algebra
from .theories import global_state, variables


class ParseError(CloneError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # ident, num, punct, end
    text: str
    line: int
    col: int


_TOKEN = re.compile(
    r"(?P<ws>[ \t]+)|(?P<comment>--[^\n]*)|(?P<nl>\n)"
    r"|(?P<punct>=>|\|-|[()\[\],:;.~#])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*|\*)"
    r"|(?P<num>[0-9]+)"
)


def tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        pos = m.end()
        if m.lastgroup == "nl":
            line += 1
            col = 1
            continue
        if m.lastgroup in ("ws", "comment"):
            col += len(m.group())
            continue
        out.append(Token(m.lastgroup, m.group(), line, col))
        col += len(m.group())
    out.append(Token("end", "", line, col))
    return out


class Tokens:
    def __init__(self, items: list[Token]):
        self.items = items
        self.pos = 0

    def peek(self) -> Token:
        return self.items[self.pos]

    def next(self) -> Token:
        tok = self.items[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def take(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
        return tok


# --------------------------------------------------------------------------
# Sorts
# --------------------------------------------------------------------------


def parse_sort(ts: Tokens, sort_set: SortSet, params: tuple[str, ...] = ()):
    left = _sort_atom(ts, sort_set, params)
    if ts.take("=>"):
        if "=>" not in sort_set.formers:
            tok = ts.peek()
            raise ParseError("this sort set has no => former", tok.line, tok.col)
        right = parse_sort(ts, sort_set, params)
        return Sort("=>", (left, right))
    return left


def _sort_atom(ts: Tokens, sort_set: SortSet, params):
    if ts.take("("):
        inner = parse_sort(ts, sort_set, params)
        ts.expect(")")
        return inner
    tok = ts.ident()
    if tok.text in params:
        return SortVar(tok.text)
    if tok.text in sort_set.base:
        return Sort(tok.text)
    raise ParseError(f"unknown sort {tok.text!r}", tok.line, tok.col)


def sort_text(sort_set: SortSet, text: str) -> Sort:
    ts = Tokens(tokenize(text))
    s = parse_sort(ts, sort_set)
    if ts.peek().kind != "end":
        tok = ts.peek()
        raise ParseError(f"trailing input after sort: {tok.text!r}", tok.line, tok.col)
    return s


# --------------------------------------------------------------------------
# Raw term syntax
# --------------------------------------------------------------------------


@dataclass
class RName:
    name: str
    line: int
    col: int


@dataclass
class RRaw:
    index: int
    line: int
    col: int


@dataclass
class RLam:
    binder: str
    annotation: object  # Sort | None
    body: object
    line: int
    col: int


@dataclass
class RChain:
    items: list
    line: int
    col: int


def parse_term_syntax(ts: Tokens, sort_set: SortSet, params=()):
    tok = ts.peek()
    if tok.text == "abs":
        ts.next()
        binder = ts.ident()
        annotation = None
        if ts.take(":"):
            annotation = parse_sort(ts, sort_set, params)
        ts.expect(".")
        body = parse_term_syntax(ts, sort_set, params)
        return RLam(binder.text, annotation, body, tok.line, tok.col)
    items = []
    while True:
        nxt = ts.peek()
        if nxt.text == "(":
            ts.next()
            inner = parse_term_syntax(ts, sort_set, params)
            ts.expect(")")
            items.append(inner)
        elif nxt.text == "#":
            ts.next()
            num = ts.next()
            if num.kind != "num":
                raise ParseError("expected an index after #", num.line, num.col)
            items.append(RRaw(int(num.text), nxt.line, nxt.col))
        elif nxt.kind == "ident" and nxt.text != "abs":
            ts.next()
            items.append(RName(nxt.text, nxt.line, nxt.col))
        else:
            break
    if not items:
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
    if len(items) == 1:
        return items[0]
    return RChain(items, tok.line, tok.col)


def term_syntax(sort_set: SortSet, text: str, params=()):
    ts = Tokens(tokenize(text))
    node = parse_term_syntax(ts, sort_set, params)
    if ts.peek().kind != "end":
        tok = ts.peek()
        raise ParseError(f"trailing input after term: {tok.text!r}", tok.line, tok.col)
    return node


# --------------------------------------------------------------------------
# Elaboration
# --------------------------------------------------------------------------


def _no_lambda(*_):
    raise ParseError("lambda syntax is not available at first order")


def _fo_op(base: FoSignature, name, sort_args, args):
    return FoOp(name, sort_args, args)


def _element_app(base: FoSignature, name, sort_args, args):
    """A base operator applied to free terms: its generic element (the
    operator on the variables of its arity) applied to them."""
    element_ctx, element_sort = base.arity(name, sort_args)
    element = FoOp(name, sort_args, tuple(FoVar(i) for i in range(1, len(element_ctx) + 1)))
    return CloneApp(element, element_ctx, element_sort, args)


# mode -> (variable, binding operator, base operator applied to arguments)
_MODES = {
    "free": (FreeVar, FreeOp, _element_app),
    "so": (SoVar, SoOp, None),
    "fo": (FoVar, _no_lambda, _fo_op),
}


@dataclass
class Elaborator:
    """Turns raw syntax into checked terms against an expected sort.

    Operator-headed chains name operators of ``surface``, a second-order
    signature, or of ``base``, a first-order one; ``put v`` names the base
    operator ``put_v``.  ``mode`` selects the target representation, once:
    "free" builds free-algebra terms, a base operator becoming an element
    application; "so" second-order terms of ``surface``, metavariables
    allowed; "fo" first-order terms of ``base``, with no surface.
    """

    surface: SoSignature | None
    base: FoSignature | None
    mode: str
    names: list = field(default_factory=list)  # binder names, innermost last
    ctx_sorts: list = field(default_factory=list)
    metas: list = field(default_factory=list)  # (name, MetaDecl)

    def __post_init__(self):
        self._var, self._op, self._base_op = _MODES[self.mode]

    def _fail(self, node, message):
        raise ParseError(message, getattr(node, "line", 0), getattr(node, "col", 0))

    # name resolution ------------------------------------------------------

    def _lookup_var(self, name: str):
        for i in range(len(self.names), 0, -1):
            if self.names[i - 1] == name:
                return i
        return None

    def _lookup_meta(self, name: str):
        for i, (n, _) in enumerate(self.metas, start=1):
            if n == name:
                return i
        return None

    # entry points ----------------------------------------------------------

    def check(self, node, expected: Sort):
        return self._check(node, expected)

    def _check(self, node, expected):
        match node:
            case RLam(binder=x, annotation=ann, body=body):
                if self._op is _no_lambda:
                    self._fail(node, "binding abstraction is not first-order")
                if not (getattr(expected, "former", None) == "=>" and len(expected.args) == 2):
                    self._fail(node, f"abstraction checked at non-arrow sort {expected}")
                a, b = expected.args
                if ann is not None and ann != a:
                    self._fail(node, f"binder annotated {ann}, expected {a}")
                self.names.append(x)
                self.ctx_sorts.append(a)
                try:
                    inner = self._check(body, b)
                finally:
                    self.names.pop()
                    self.ctx_sorts.pop()
                return self._make_abs(a, b, inner)
            case RName() | RRaw():
                term, got = self._synth_atom(node)
                if got != expected:
                    self._fail(node, f"term has sort {got}, expected {expected}")
                return term
            case RChain(items=items):
                return self._check_chain(node, items, expected)
        self._fail(node, "unrecognized term")

    def synth(self, node):
        match node:
            case RName() | RRaw():
                return self._synth_atom(node)
            case RLam(annotation=ann, body=body, binder=x):
                if ann is None:
                    self._fail(node, "cannot infer the sort of an unannotated abstraction")
                self.names.append(x)
                self.ctx_sorts.append(ann)
                try:
                    inner, bsort = self.synth(body)
                finally:
                    self.names.pop()
                    self.ctx_sorts.pop()
                return self._make_abs(ann, bsort, inner), Sort("=>", (ann, bsort))
            case RChain(items=items):
                return self._synth_chain(node, items)
        self._fail(node, "unrecognized term")

    # atoms -----------------------------------------------------------------

    def _synth_atom(self, node):
        if isinstance(node, RRaw):
            if not 1 <= node.index <= len(self.ctx_sorts):
                self._fail(node, f"#{node.index} out of range")
            return self._var(node.index), self.ctx_sorts[node.index - 1]
        if isinstance(node, RLam):
            return self.synth(node)
        if isinstance(node, RChain):
            return self._synth_chain(node, node.items)
        name = node.name
        i = self._lookup_var(name)
        if i is not None:
            return self._var(i), self.ctx_sorts[i - 1]
        m = self._lookup_meta(name)
        if m is not None:
            decl = self.metas[m - 1][1]
            if len(decl.ctx) != 0:
                self._fail(node, f"metavariable {name} takes {len(decl.ctx)} arguments")
            return MetaApp(m, ()), decl.sort
        got = self._operator(node, name, [])
        if got is None:
            self._fail(node, f"unknown name {name!r}")
        return got

    # chains ------------------------------------------------------------------

    def _check_chain(self, node, items, expected):
        head = items[0]
        if isinstance(head, RName):
            name = head.name
            if self._lookup_var(name) is None:
                if self._lookup_meta(name) is not None:
                    term, got = self._metavar(node, name, items[1:])
                    if got != expected:
                        self._fail(node, f"term has sort {got}, expected {expected}")
                    return term
                got = self._operator(node, name, items[1:], expected)
                if got is not None:
                    term, sort = got
                    if sort != expected:
                        self._fail(node, f"term has sort {sort}, expected {expected}")
                    return term
                self._fail(head, f"unknown name {name!r}")
        # lambda application chain
        return self._app_chain(node, items, expected)

    def _synth_chain(self, node, items):
        head = items[0]
        if isinstance(head, RName) and self._lookup_var(head.name) is None:
            if self._lookup_meta(head.name) is not None:
                return self._metavar(node, head.name, items[1:])
            got = self._operator(node, head.name, items[1:])
            if got is not None:
                return got
            self._fail(head, f"unknown name {head.name!r}")
        term, sort = self.synth(head)
        for arg in items[1:]:
            if not (sort.former == "=>" and len(sort.args) == 2):
                self._fail(node, f"applying a term of non-arrow sort {sort}")
            a, b = sort.args
            arg_term = self._check(arg, a)
            term = self._make_app(a, b, term, arg_term)
            sort = b
        return term, sort

    def _app_chain(self, node, items, expected):
        # elaborate by synthesizing the head when possible; otherwise
        # synthesize the arguments and build the arrow backwards
        try:
            term, sort = self._synth_chain(node, items)
        except ParseError:
            if len(items) != 2:
                raise
            arg_term, arg_sort = self.synth(items[1])
            fun = self._check(items[0], Sort("=>", (arg_sort, expected)))
            return self._make_app(arg_sort, expected, fun, arg_term)
        if sort != expected:
            self._fail(node, f"term has sort {sort}, expected {expected}")
        return term

    # helpers -----------------------------------------------------------------

    def _make_app(self, a, b, fun, arg):
        return self._op("app", (a, b), ((Context(()), fun), (Context(()), arg)))

    def _make_abs(self, a, b, body):
        return self._op("abs", (a, b), ((Context((a,)), body),))

    def _metavar(self, node, name, arg_nodes):
        m = self._lookup_meta(name)
        decl = self.metas[m - 1][1]
        if len(arg_nodes) != len(decl.ctx):
            self._fail(node, f"metavariable {name} takes {len(decl.ctx)} arguments")
        args = tuple(self._check(a, s) for a, s in zip(arg_nodes, decl.ctx))
        return MetaApp(m, args), decl.sort

    def _operator(self, node, name, arg_nodes, expected=None):
        """Resolve an operator-headed chain, instantiating sort parameters
        by matching the declared result against the expected sort and the
        argument templates against synthesized arguments."""
        # put takes its value label as the first atom
        base_ops = self.base.operators if self.base is not None else ()
        if name == "put" and arg_nodes and isinstance(arg_nodes[0], RName):
            labelled = f"put_{arg_nodes[0].name}"
            if any(o.name == labelled for o in base_ops):
                name, arg_nodes = labelled, arg_nodes[1:]

        for o in self.surface.operators if self.surface is not None else ():
            if o.name == name:
                # chain syntax covers non-binding argument positions (None
                # marks a binding one); abs-style syntax builds abs directly
                templates = [None if binders else body for binders, body in o.binders]
                args, sort_args, result = self._apply(node, o, arg_nodes, templates, expected)
                return self._op(o.name, sort_args, tuple((Context(()), a) for a in args)), result
        for o in base_ops if self._base_op is not None else ():
            if o.name == name:
                args, sort_args, result = self._apply(
                    node, o, arg_nodes, list(o.arg_sorts), expected
                )
                return self._base_op(self.base, o.name, sort_args, args), result
        return None

    def _apply(self, node, schema, arg_nodes, templates, expected):
        """The arguments, sort arguments and result sort of ``schema``
        applied to ``arg_nodes``, one template per argument."""
        if len(arg_nodes) != len(templates):
            self._fail(node, f"operator {schema.name} takes {len(templates)} arguments")
        binding = self._bind_params(node, schema, schema.result, expected)
        for arg_node, template in zip(arg_nodes, templates):
            if template is None:
                self._fail(
                    arg_node,
                    f"operator {schema.name} binds variables; use abs-style syntax",
                )
        args = self._elaborate_args(node, schema, arg_nodes, templates, binding)
        sort_args = tuple(binding[p] for p in schema.params)
        return tuple(args), sort_args, instantiate_sort(schema.result, binding)

    def _bind_params(self, node, schema, result_template, expected):
        binding: dict = {}
        if expected is not None:
            if not match_sort(result_template, expected, binding):
                self._fail(
                    node,
                    f"operator {schema.name} produces {result_template}, "
                    f"which does not match {expected}",
                )
        return binding

    def _elaborate_args(self, node, schema, arg_nodes, templates, binding):
        """Elaborate operator arguments in dependency order: check the ones
        whose sort templates are already determined, synthesize one of the
        rest to bind more parameters, repeat."""
        results: dict[int, object] = {}
        pending = list(range(len(arg_nodes)))
        while pending:
            progressed = False
            for i in list(pending):
                if sort_closed(templates[i], binding, schema.params):
                    results[i] = self._check(
                        arg_nodes[i], instantiate_sort(templates[i], binding)
                    )
                    pending.remove(i)
                    progressed = True
            if not pending:
                break
            if progressed:
                continue
            for i in list(pending):
                try:
                    term, got = self.synth(arg_nodes[i])
                except ParseError:
                    continue
                if not match_sort(templates[i], got, binding):
                    self._fail(
                        arg_nodes[i], f"argument sort {got} does not fit {templates[i]}"
                    )
                results[i] = term
                pending.remove(i)
                progressed = True
                break
            if not progressed:
                self._fail(
                    node,
                    f"cannot determine the sorts of {schema.name}'s arguments; "
                    "annotate a binder",
                )
        missing = [p for p in schema.params if p not in binding]
        if missing:
            self._fail(node, f"cannot infer sort parameters {missing} of {schema.name}")
        return [results[i] for i in range(len(arg_nodes))]


def sort_closed(template, binding, params) -> bool:
    return all(v in binding for v in sort_vars(template) if v in params)


# --------------------------------------------------------------------------
# The abs/app special case: surface `abs x. t` elaborates through _check /
# synth above; chains headed by `app` resolve through the operator path.
# --------------------------------------------------------------------------


def parse_context(bundle: "TheoryBundle", text: str) -> tuple[Context, list[str]]:
    """Parse "x : b, f : b => b" into a context plus its variable names."""
    if not text.strip():
        return Context(()), []
    ts = Tokens(tokenize(text))
    names, sorts = [], []
    while True:
        name = ts.ident()
        ts.expect(":")
        sorts.append(parse_sort(ts, bundle.sort_set))
        names.append(name.text)
        if not ts.take(","):
            break
    if ts.peek().kind != "end":
        tok = ts.peek()
        raise ParseError(f"trailing input in context: {tok.text!r}", tok.line, tok.col)
    return Context(tuple(sorts)), names


def parse_term(
    bundle: "TheoryBundle",
    text: str,
    expected: Sort,
    context: Context = Context(()),
    names: list[str] | None = None,
):
    """Parse and elaborate a surface term as a free-algebra term."""
    node = term_syntax(bundle.sort_set, text)
    base = bundle.base.signature if bundle.base is not None else None
    elab = Elaborator(bundle.surface.signature, base, "free")
    elab.ctx_sorts = list(context)
    elab.names = list(names) if names is not None else [f"x{i}" for i in range(1, len(context) + 1)]
    return elab.check(node, expected)


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------


def render_free(t, names: list[str]) -> str:
    """Deterministic human syntax; element applications are resugared into
    operator applications."""
    return _render(t, list(names))


def _render(term, env: list[str]) -> str:
    match term:
        case FreeVar(index=i):
            return env[i - 1]
        case FreeOp(name="app", args=((_, f), (_, a))):
            # application chains stay left-grouped; any other head with
            # arguments (an abstraction, an operator or element) is bracketed
            head = _render(f, env)
            if not (isinstance(f, FreeVar) or isinstance(f, FreeOp) and f.name == "app"):
                head = _atom(head)
            return f"{head} {_atom(_render(a, env))}"
        case FreeOp(name="abs", sort_args=(A, _), args=((_, body),)):
            x = _fresh(env)
            return f"abs {x} : {A}. {_render(body, env + [x])}"
        case FreeOp(name=name, args=args):
            rendered = " ".join(_atom(_render(b, env)) for _, b in args)
            return f"{name} {rendered}" if rendered else name
        case CloneApp(element=e, args=args):
            return render_element(e, [_render(a, env) for a in args])
    raise CloneError(f"cannot render {term!r}")


def _fresh(used: list[str]) -> str:
    i = len(used) + 1
    while f"x{i}" in used:
        i += 1
    return f"x{i}"


def _atom(s: str) -> str:
    return f"({s})" if " " in s else s


def render_element(e, pieces: list[str]) -> str:
    """A base element applied to rendered arguments, in operator syntax."""
    if isinstance(e, int):
        return pieces[e - 1]
    match e:
        case FoVar(index=i):
            return pieces[i - 1]
        case FoOp(name=name, args=args):
            rendered = [render_element(a, pieces) for a in args]
            rendered = [f"({r})" if " " in r else r for r in rendered]
            if name.startswith("put_"):
                label = name.removeprefix("put_")
                return f"put {label} {rendered[0]}"
            body = " ".join(rendered)
            return f"{name} {body}" if body else name
    raise CloneError(f"cannot render element {e!r}")


# --------------------------------------------------------------------------
# Bundles
# --------------------------------------------------------------------------


@dataclass
class TheoryBundle:
    """A sort set, an optional first-order base presentation with its
    equality strategy, and the second-order surface presentation, wired
    into a free algebra."""

    name: str
    sort_set: SortSet
    surface: SoPresentation
    base: FoPresentation | None
    base_clone: object
    free: FreeAlgebra

    @property
    def theory(self) -> BaseTheory:
        return self.base_clone.theory


def _bundle(name: str, surface: SoPresentation, theory: BaseTheory) -> TheoryBundle:
    free = free_algebra(theory, surface)
    return TheoryBundle(name, free.sort_set, surface, theory.presentation, theory.clone, free)


# CLI variant -> (bundle name, base theory)
STOCK = {
    "stlc": ("stlc", variables),
    "bool": ("stlc_bool", booleans),
    "gs": ("stlc_gs", lambda: global_state(("v1", "v2"))),
}


def stock_bundle(variant: str) -> TheoryBundle:
    if variant not in STOCK:
        raise CloneError(f"unknown variant {variant!r}")
    name, theory = STOCK[variant]
    return _bundle(name, stlc_presentation(), theory())


def parse_bundle(text: str) -> TheoryBundle:
    ts = Tokens(tokenize(text))
    ts.expect("bundle")
    name = ts.ident().text

    ts.expect("sorts")
    base_names = [ts.ident().text]
    while ts.peek().kind == "ident" and ts.peek().text not in (
        "typeformers", "base", "surface", "strategy", "end",
    ):
        base_names.append(ts.ident().text)
    formers: list[str] = []
    if ts.take("typeformers"):
        while ts.peek().text == "=>":
            ts.next()
            formers.append("=>")
    sort_set = SortSet(name, tuple(base_names), tuple(formers))

    base_pres = None
    tier_tok = None
    surface_pres = None
    if ts.at("base"):
        ts.next()
        base_name = ts.ident().text
        ops, eqs = _parse_items(
            ts, sort_set, _parse_fo_op, _parse_fo_equation,
            lambda ops: Elaborator(None, FoSignature(sort_set, ops), "fo"),
        )
        base_pres = FoPresentation(base_name, FoSignature(sort_set, tuple(ops)), tuple(eqs))
    if ts.at("surface"):
        ts.next()
        so_name = ts.ident().text
        base = base_pres.signature if base_pres is not None else None
        ops, eqs = _parse_items(
            ts, sort_set, _parse_so_op, _parse_so_equation,
            lambda ops: Elaborator(SoSignature(sort_set, ops), base, "so"),
        )
        surface_pres = SoPresentation(so_name, SoSignature(sort_set, tuple(ops)), tuple(eqs))
    if surface_pres is None:
        raise ParseError("bundle has no surface presentation", ts.peek().line, 0)

    while ts.at("strategy"):
        ts.next()
        target = ts.ident().text
        tok = ts.ident()
        if target == "base":
            tier_tok = tok
    ts.expect("end")

    if base_pres is None:
        return _bundle(name, surface_pres, variables(sort_set))
    tier = tier_tok.text if tier_tok else "structural"
    if tier not in TIERS:
        raise ParseError(f"unknown strategy {tier!r}", tier_tok.line, tier_tok.col)
    try:
        theory = TIERS[tier](base_pres)
    except PresentationMismatch as e:
        raise ParseError(str(e), tier_tok.line, tier_tok.col) from None
    return _bundle(name, surface_pres, theory)


def _parse_params(ts: Tokens) -> tuple[str, ...]:
    if not ts.take("["):
        return ()
    params = [ts.ident().text]
    while ts.take(","):
        params.append(ts.ident().text)
    ts.expect("]")
    return tuple(params)


def _parse_sort_list(ts: Tokens, sort_set, params, stop: str):
    sorts = []
    while not ts.at(stop):
        sorts.append(parse_sort(ts, sort_set, params))
        if not ts.take(","):
            break
    return sorts


def _parse_items(ts: Tokens, sort_set: SortSet, parse_op, parse_eq, elaborator):
    """A presentation's ``op`` and ``eq`` declarations, in order.  Each
    equation is elaborated by ``elaborator(ops)``, over the operators
    declared before it."""
    ops, eqs = [], []
    while ts.at("op") or ts.at("eq"):
        elab = elaborator(tuple(ops)) if ts.at("eq") else None
        ts.next()
        name = ts.ident().text
        params = _parse_params(ts)
        ts.expect(":")
        if elab is None:
            ops.append(parse_op(ts, sort_set, name, params))
        else:
            eqs.append(parse_eq(ts, sort_set, name, params, elab))
    return ops, eqs


def _parse_sides(ts: Tokens, sort_set, params, elab: Elaborator):
    """``|- lhs ~ rhs : sort``, both sides elaborated at ``sort``."""
    ts.expect("|-")
    lhs_node = parse_term_syntax(ts, sort_set, params)
    ts.expect("~")
    rhs_node = parse_term_syntax(ts, sort_set, params)
    ts.expect(":")
    sort = parse_sort(ts, sort_set, params)
    return elab.check(lhs_node, sort), elab.check(rhs_node, sort), sort


def _parse_fo_op(ts: Tokens, sort_set, name, params):
    args = _parse_sort_list(ts, sort_set, params, ";")
    ts.expect(";")
    result = parse_sort(ts, sort_set, params)
    return FoOpSchema(name, params, tuple(args), result)


def _parse_fo_equation(ts: Tokens, sort_set, name, params, elab: Elaborator):
    while not ts.at("|-"):
        elab.names.append(ts.ident().text)
        ts.expect(":")
        elab.ctx_sorts.append(parse_sort(ts, sort_set, params))
        if not ts.take(","):
            break
    lhs, rhs, sort = _parse_sides(ts, sort_set, params, elab)
    return FoEquationSchema(name, params, tuple(elab.ctx_sorts), sort, lhs, rhs)


def _parse_so_op(ts: Tokens, sort_set, name, params):
    binders = []
    while ts.at("("):
        ts.next()
        binder_sorts = _parse_sort_list(ts, sort_set, params, ";")
        ts.expect(";")
        body_sort = parse_sort(ts, sort_set, params)
        ts.expect(")")
        binders.append((tuple(binder_sorts), body_sort))
    ts.expect(";")
    result = parse_sort(ts, sort_set, params)
    return SoOpSchema(name, params, tuple(binders), result)


def _parse_so_equation(ts: Tokens, sort_set, name, params, elab: Elaborator):
    while not ts.at("|-"):
        mname = ts.ident().text
        ts.expect(":")
        ts.expect("(")
        arg_sorts = _parse_sort_list(ts, sort_set, params, ";")
        ts.expect(";")
        msort = parse_sort(ts, sort_set, params)
        ts.expect(")")
        elab.metas.append((mname, MetaDecl(Context(tuple(arg_sorts)), msort)))
        if not ts.take(","):
            break
    lhs, rhs, sort = _parse_sides(ts, sort_set, params, elab)
    metactx_templates = tuple((tuple(d.ctx.entries), d.sort) for _, d in elab.metas)
    return SoEquationSchema(name, params, metactx_templates, sort, lhs, rhs)
