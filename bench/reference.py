"""Reference semantics, computed apart from clonal.

Terms are plain tuples:

    ("var", name)              ("abs", name, sort, body)    ("app", f, a)
    ("true",) ("false",)       ("ite", c, t, e)
    ("get", t1, ..., tk)       ("put", label, t)
    ("unit",)                  ("mul", a, b)

and sorts are "b" or ("=>", a, b).  Nothing here imports clonal: the
benchmark writes its inputs with ``show``, reads the program's printed
output with ``parse``, and judges both with the evaluators below.

* ``bool_value``: the lambda calculus with booleans over {tt, ff}.  A
  function is its table, listed in the lexicographic order of its domain
  with tt before ff.
* ``state_table``: global state over a list of value labels.  A base term
  denotes, for each initial state, the final state and the variable it
  returns.
* ``flatten``: the free monoid; a term denotes its word of variables.
"""

from __future__ import annotations

import itertools
import re

B = "b"
TT, FF = "tt", "ff"


def arrow(a, b):
    return ("=>", a, b)


# --------------------------------------------------------------------------
# Printing and parsing the surface syntax
# --------------------------------------------------------------------------


def show_sort(s) -> str:
    if s == B:
        return B
    _, a, b = s
    left = show_sort(a)
    return f"({left}) => {show_sort(b)}" if a != B else f"{left} => {show_sort(b)}"


def show(t) -> str:
    """Surface text for a term; every compound argument is parenthesized."""

    def atom(u):
        s = show(u)
        return f"({s})" if " " in s else s

    tag = t[0]
    if tag == "var":
        return t[1]
    if tag in ("true", "false", "unit"):
        return tag
    if tag == "abs":
        return f"abs {t[1]} : {show_sort(t[2])}. {show(t[3])}"
    if tag == "put":
        return f"put {t[1]} {atom(t[2])}"
    return " ".join([tag] + [atom(u) for u in t[1:]])


_TOKEN = re.compile(r"\s*(=>|[A-Za-z_][A-Za-z0-9_']*|[().:])")
# get has one branch per state value; the benchmark's state theory has two
_ARITY = {"true": 0, "false": 0, "unit": 0, "ite": 3, "app": 2, "mul": 2, "get": 2}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse(text: str, names):
    """Read surface text in the variables ``names``.  Juxtaposition after a
    variable or a parenthesized term is application; an operator takes its
    arity's worth of atoms first."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(want=None):
        nonlocal pos
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r} at token {pos} of {text!r}, got {tok!r}")
        pos += 1
        return tok

    def sort():
        if peek() == "(":
            take("(")
            s = sort()
            take(")")
        else:
            s = take()
            if s != B:
                raise ValueError(f"unknown sort {s!r}")
        if peek() == "=>":
            take("=>")
            return arrow(s, sort())
        return s

    def term(scope):
        if peek() == "abs":
            take("abs")
            x = take()
            dom = None
            if peek() == ":":
                take(":")
                dom = sort()
            take(".")
            return ("abs", x, dom, term(scope | {x}))
        atoms = []
        while peek() not in (None, ")"):
            atoms.append(atom(scope))
        if not atoms:
            raise ValueError(f"empty term in {text!r}")
        return chain(atoms)

    def atom(scope):
        tok = peek()
        if tok == "(":
            take("(")
            t = term(scope)
            take(")")
            return t
        if tok == "abs":
            return term(scope)
        take()
        if tok in scope:
            return ("var", tok)
        if _ARITY.get(tok) == 0:
            return (tok,)
        return ("op", tok)

    def chain(atoms):
        head, rest = atoms[0], atoms[1:]
        if head[0] == "op":
            name = head[1]
            if name == "put":
                label = rest[0]
                if label[0] != "op":
                    raise ValueError(f"put needs a value label in {text!r}")
                head, rest = ("put", label[1], rest[1]), rest[2:]
            else:
                n = _ARITY.get(name)
                if n is None or len(rest) < n:
                    raise ValueError(f"cannot apply {name!r} in {text!r}")
                args = tuple(rest[:n])
                head = ("app",) + args if name == "app" else (name,) + args
                rest = rest[n:]
        for a in rest:
            head = ("app", head, a)
        return head

    t = term(frozenset(names))
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return t


# --------------------------------------------------------------------------
# Booleans: the set model on {tt, ff}
# --------------------------------------------------------------------------

_SPACES: dict = {}


def values(s) -> list:
    """Every value of a sort, in lexicographic order of the tables."""
    if s not in _SPACES:
        if s == B:
            _SPACES[s] = [TT, FF]
        else:
            _, a, b = s
            _SPACES[s] = [tuple(c) for c in itertools.product(values(b), repeat=len(values(a)))]
    return _SPACES[s]


def _index(s, v) -> int:
    return values(s).index(v)


def bool_eval(t, env: dict):
    """(sort, value) of a term; ``env`` maps a name to its (sort, value)."""
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "true":
        return B, TT
    if tag == "false":
        return B, FF
    if tag == "ite":
        _, c = bool_eval(t[1], env)
        return bool_eval(t[2] if c == TT else t[3], env)
    if tag == "abs":
        _, x, dom, body = t
        cod, table = None, []
        for v in values(dom):
            cod, r = bool_eval(body, {**env, x: (dom, v)})
            table.append(r)
        return arrow(dom, cod), tuple(table)
    if tag == "app":
        (_, dom, cod), f = bool_eval(t[1], env)
        sa, a = bool_eval(t[2], env)
        if sa != dom:
            raise ValueError(f"argument of sort {sa} for domain {dom}")
        return cod, f[_index(dom, a)]
    raise ValueError(f"not a boolean lambda term: {t!r}")


def bool_value(t, context: list[tuple[str, object]]):
    """The denotation of an open term: its value under every assignment to
    ``context`` (a list of (name, sort)), in lexicographic order."""
    out = []
    for point in itertools.product(*(values(s) for _, s in context)):
        env = {x: (s, v) for (x, s), v in zip(context, point)}
        out.append(bool_eval(t, env)[1])
    return tuple(out)


# --------------------------------------------------------------------------
# Global state
# --------------------------------------------------------------------------


def state_eval(t, env: dict, labels: tuple):
    """A base term's table: for each initial state, (final state, variable).
    Functions are Python closures over tables."""
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "get":
        branches = [state_eval(u, env, labels) for u in t[1:]]
        if len(branches) != len(labels):
            raise ValueError(f"get needs {len(labels)} branches: {t!r}")
        return tuple(branches[i][i] for i in range(len(labels)))
    if tag == "put":
        inner = state_eval(t[2], env, labels)
        w = labels.index(t[1])
        return tuple(inner[w] for _ in labels)
    if tag == "abs":
        _, x, _, body = t
        return lambda v: state_eval(body, {**env, x: v}, labels)
    if tag == "app":
        return state_eval(t[1], env, labels)(state_eval(t[2], env, labels))
    raise ValueError(f"not a state term: {t!r}")


def state_table(t, names, labels: tuple) -> tuple:
    """The table of a base-sort term whose free variables ``names`` are all
    of base sort."""
    env = {x: tuple((v, x) for v in labels) for x in names}
    return state_eval(t, env, labels)


# --------------------------------------------------------------------------
# Monoid
# --------------------------------------------------------------------------


def flatten(t) -> tuple:
    """The word of variables a monoid term denotes."""
    tag = t[0]
    if tag == "var":
        return (t[1],)
    if tag == "unit":
        return ()
    if tag == "mul":
        return flatten(t[1]) + flatten(t[2])
    raise ValueError(f"not a monoid term: {t!r}")
