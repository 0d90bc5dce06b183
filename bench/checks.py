"""Output checks.  Each takes what the program produced and what the
reference semantics says, and returns None when the output is right or a
description of what is wrong.  ``state_normal_forms`` returns ``FAILED``
for the known fault it watches, so that the operation counts as failed
rather than wrong.
"""

from __future__ import annotations

import reference as R

FAILED = "FAILED"


def same_meaning(want, got):
    return None if want == got else f"meaning {got!r}, expected {want!r}"


def witness(verdict, lhs, rhs, same):
    """The kernel accepted the derivation and it proves exactly lhs ~ rhs."""
    if verdict is None or not verdict.ok:
        return f"kernel rejected the witness: {getattr(verdict, 'error', None)}"
    if not same(verdict.lhs, lhs):
        return f"witness starts at {verdict.lhs}, not at the input {lhs}"
    if not same(verdict.rhs, rhs):
        return f"witness ends at {verdict.rhs}, not at the output {rhs}"
    return None


def proof(verdict, lhs, rhs, same, meanings_agree: bool):
    """A proof found by search: never between terms of different meaning,
    and accepted by the kernel with the pair as its endpoints."""
    if not meanings_agree:
        return f"proof found between terms whose meanings differ: {lhs} ~ {rhs}"
    return witness(verdict, lhs, rhs, same)


def render_value(sort, value) -> str:
    """A set-model value as `clonal eval` prints it."""
    if sort == R.B:
        return value
    _, a, b = sort
    rows = [f"{render_value(a, x)} -> {render_value(b, y)}" for x, y in zip(R.values(a), value)]
    return "{" + "; ".join(rows) + "}"


def value_text(code: int, text: str, sort, value):
    want = render_value(sort, value)
    if (code, text) == (0, want):
        return None
    return f"eval printed {text!r} (exit {code}), expected {want!r}"


def state_normal_forms(outs, table):
    """Two `clonal normalize` runs on pure state terms with one state table
    must print the same term, and that term must have the table."""
    for code, text in outs:
        if code != 0:
            return f"normalize exited {code}: {text}"
    texts = [text for _, text in outs]
    got = [R.state_table(R.parse(text, ["x"]), ["x"], ("v1", "v2")) for text in texts]
    if texts[0] != texts[1] or any(g != table for g in got):
        return FAILED
    return None


def adequacy(items, expected):
    """``items`` holds (set-model value, normal form as a reference term, or
    None when check_normal refused it) per closed boolean term; ``expected``
    the reference values.  Values must match, every normal form must be
    true or false with that value, and equal values need equal normal
    forms."""
    by_value: dict = {}
    for (value, nf), want in zip(items, expected):
        if value != want:
            return f"set model gives {value}, expected {want}"
        if nf not in (("true",), ("false",)):
            return f"closed boolean normal form {nf} is not true or false"
        if (R.TT if nf == ("true",) else R.FF) != want:
            return f"normal form {nf} for a term of value {want}"
        if by_value.setdefault(value, nf) != nf:
            return f"value {value} with normal forms {by_value[value]} and {nf}"
    return None
