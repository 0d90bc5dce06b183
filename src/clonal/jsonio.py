"""JSON forms for terms and derivations.

Every top-level document carries a schema_version; round-tripping is
bit-exact, so serialized derivations replay through the checkers
unchanged.  Indices are 1-based, matching the in-memory representation.

Each public call runs one codec object, an ``_Encoder`` or a ``_Decoder``,
whose tables hold every sort, context and term met so far, so each distinct
value is converted once per call.  The JSON one ``*_to_json`` call returns
may therefore share one sub-object among equal values: ``json.dumps``
writes the same bytes as for an unshared copy, but a caller that mutates
the result must copy it first.  Decoding builds one sort, context or term
per distinct value, and malformed input raises ``JsonError``, naming the
field that is missing or not an integer where that is the fault.

A first-order derivation node is an object with a ``rule`` tag: ``refl``
(``term``), ``sym`` and ``trans`` (``children``), ``cong`` (``op``,
``sort_args``, ``children``), ``axiom`` (``equation``, ``sort_args``,
``children``) and ``lemma``.  A ``lemma`` node has the fields ``context``
(a context), ``proof`` (a derivation of l ~ r in that context) and
``children`` (one derivation per context entry), and stands for the
substitution instance of the proved equation that ``firstorder.FoLemma``
describes.  The encoder writes each distinct proof once per call, shared
like a term, and the decoder returns equal proofs as one object.
"""

from __future__ import annotations

from .clones import CloneError
from .firstorder import FoAxiom, FoCong, FoLemma, FoOp, FoRefl, FoSym, FoTrans, FoVar
from .freealgebra import (
    CloneApp,
    FAxiom,
    FCongClone,
    FCongOp,
    FRefl,
    FSubstLaw,
    FSym,
    FTrans,
    FVarLaw,
    FreeOp,
    FreeVar,
)
from .sorts import Context, Sort

SCHEMA_VERSION = 1


class JsonError(CloneError):
    pass


class _Table(dict):
    """How one family of terms or derivations is written or read.  A writing
    table maps each class to its writer; a reading table maps each ``kind``
    or ``rule`` tag to the class and the reader of its fields.  A
    derivation table names its family's term table in ``terms``."""

    def __init__(self, what: str, entries: dict, terms: "_Table | None" = None):
        super().__init__(entries)
        self.what = what
        self.terms = terms


class _Encoder:
    """One ``*_to_json`` call: equal sorts, contexts, terms and lemma proofs
    are written once and share the JSON object written for the first of
    them."""

    def __init__(self):
        self.sorts: dict = {}
        self.contexts: dict = {}
        self.terms: dict = {}
        self.proofs: dict = {}

    def sort(self, s: Sort) -> dict:
        got = self.sorts.get(s)
        if got is None:
            if s.args:
                got = {"former": s.former, "args": [self.sort(a) for a in s.args]}
            else:
                got = {"base": s.former}
            self.sorts[s] = got
        return got

    def sort_list(self, sorts: tuple) -> list:
        return [self.sort(s) for s in sorts]

    def context(self, c: Context) -> list:
        got = self.contexts.get(c)
        if got is None:
            got = self.contexts[c] = [self.sort(s) for s in c.entries]
        return got

    def term(self, t, table: _Table) -> dict:
        got = self.terms.get(t)
        if got is None:
            write = table.get(type(t))
            if write is None:
                raise JsonError(f"not a {table.what}: {t!r}")
            got = self.terms[t] = write(self, t, table)
        return got

    def element(self, e) -> dict:
        if isinstance(e, int):
            return {"kind": "index", "value": e}
        return self.term(e, _WRITE_FO_TERM)

    def derivation(self, d, table: _Table) -> dict:
        write = table.get(type(d))
        if write is None:
            raise JsonError(f"not a {table.what}: {d!r}")
        return write(self, d, table)


class _Decoder:
    """One ``*_from_json`` call: each distinct sort, context and term is
    built once; equal ones in the input, and equal lemma proofs, come back
    as one object."""

    def __init__(self):
        self.sorts: dict = {}
        self.contexts: dict = {}
        self.terms: dict = {}  # (class, fields) -> the term
        self.proofs: dict = {}

    def sort(self, data: dict) -> Sort:
        if "base" in data:
            key = data["base"]
        else:
            key = (data["former"], tuple([self.sort(a) for a in data["args"]]))
        got = self.sorts.get(key)
        if got is None:
            got = self.sorts[key] = Sort(*key) if isinstance(key, tuple) else Sort(key)
        return got

    def sort_tuple(self, data: list) -> tuple:
        return tuple([self.sort(s) for s in data]) if data else ()

    def context(self, data: list) -> Context:
        entries = tuple([self.sort(s) for s in data])
        got = self.contexts.get(entries)
        if got is None:
            got = self.contexts[entries] = Context(entries)
        return got

    def term(self, data: dict, table: _Table):
        kind = data["kind"]
        if kind not in table:
            raise JsonError(f"unknown {table.what} {kind!r}")
        cls, fields = table[kind]
        key = (cls, fields(self, data, table))
        got = self.terms.get(key)
        if got is None:
            got = self.terms[key] = cls(*key[1])
        return got

    def terms_of(self, data: list, table: _Table) -> tuple:
        return tuple([self.term(a, table) for a in data])

    def element(self, data: dict):
        if data["kind"] == "index":
            return _integer(data, "value")
        return self.term(data, _READ_FO_TERM)

    def derivation(self, data: dict, table: _Table):
        rule = data["rule"]
        if rule not in table:
            raise JsonError(f"unknown {table.what} {rule!r}")
        cls, fields = table[rule]
        return cls(*fields(self, data, table))


def _integer(data: dict, name: str) -> int:
    """The integer field ``name``: indices are trusted by the checkers."""
    value = data[name]
    if type(value) is not int:
        raise JsonError(f"field {name!r} is not an integer: {value!r}")
    return value


def _decode(read, data, *table):
    """``read(data, *table)`` on a fresh decoder; input of the wrong shape
    raises JsonError."""
    try:
        return read(_Decoder(), data, *table)
    except KeyError as e:
        raise JsonError(f"missing field {e.args[0]!r}") from None
    except (IndexError, TypeError) as e:
        raise JsonError(f"malformed JSON value: {e}") from None


# --------------------------------------------------------------------------
# Terms: writers by class, readers by kind
# --------------------------------------------------------------------------


def _write_var(enc, t, table) -> dict:
    return {"kind": "var", "index": t.index}


def _write_fo_op(enc, t, table) -> dict:
    return {
        "kind": "op",
        "name": t.name,
        "sort_args": enc.sort_list(t.sort_args),
        "args": [enc.term(a, table) for a in t.args],
    }


def _write_binding_op(enc, t, table) -> dict:
    return {
        "kind": "op",
        "name": t.name,
        "sort_args": enc.sort_list(t.sort_args),
        "args": [
            {"binds": enc.context(binder), "body": enc.term(body, table)}
            for binder, body in t.args
        ],
    }


def _write_element_app(enc, t, table) -> dict:
    return {
        "kind": "element",
        "element": enc.element(t.element),
        "arity_ctx": enc.context(t.arity_ctx),
        "arity_sort": enc.sort(t.arity_sort),
        "args": [enc.term(a, table) for a in t.args],
    }


_WRITE_FO_TERM = _Table("first-order term", {FoVar: _write_var, FoOp: _write_fo_op})
_WRITE_FREE_TERM = _Table(
    "free term", {FreeVar: _write_var, CloneApp: _write_element_app, FreeOp: _write_binding_op}
)


def _read_index(dec, data, table) -> tuple:
    return (_integer(data, "index"),)


def _read_fo_op(dec, data, table) -> tuple:
    return data["name"], dec.sort_tuple(data["sort_args"]), dec.terms_of(data["args"], table)


def _read_binding_op(dec, data, table) -> tuple:
    args = tuple([(dec.context(a["binds"]), dec.term(a["body"], table)) for a in data["args"]])
    return data["name"], dec.sort_tuple(data["sort_args"]), args


def _read_element_app(dec, data, table) -> tuple:
    return (
        dec.element(data["element"]),
        dec.context(data["arity_ctx"]),
        dec.sort(data["arity_sort"]),
        dec.terms_of(data["args"], table),
    )


_READ_FO_TERM = _Table("term kind", {"var": (FoVar, _read_index), "op": (FoOp, _read_fo_op)})
_READ_FREE_TERM = _Table("term kind", {
    "var": (FreeVar, _read_index),
    "element": (CloneApp, _read_element_app),
    "op": (FreeOp, _read_binding_op),
})


# --------------------------------------------------------------------------
# Derivations: writers by class, readers by rule
# --------------------------------------------------------------------------


def _write_refl(enc, d, table) -> dict:
    return {"rule": "refl", "term": enc.term(d.term, table.terms)}


def _write_sym(enc, d, table) -> dict:
    return {"rule": "sym", "children": [enc.derivation(d.child, table)]}


def _write_trans(enc, d, table) -> dict:
    return {
        "rule": "trans",
        "children": [enc.derivation(d.left, table), enc.derivation(d.right, table)],
    }


def _write_children(enc, d, table) -> list:
    return [enc.derivation(c, table) for c in d.children]


def _write_cong(enc, d, table) -> dict:
    return {
        "rule": "cong",
        "op": d.op,
        "sort_args": enc.sort_list(d.sort_args),
        "children": _write_children(enc, d, table),
    }


def _write_cong_op(enc, d, table) -> dict:
    return {
        "rule": "cong_op",
        "op": d.name,
        "sort_args": enc.sort_list(d.sort_args),
        "children": _write_children(enc, d, table),
    }


def _write_axiom(enc, d, table) -> dict:
    return {
        "rule": "axiom",
        "equation": d.equation,
        "sort_args": enc.sort_list(d.sort_args),
        "children": _write_children(enc, d, table),
    }


def _write_lemma(enc, d, table) -> dict:
    proof = enc.proofs.get(d.proof)
    if proof is None:
        proof = enc.proofs[d.proof] = enc.derivation(d.proof, table)
    return {
        "rule": "lemma",
        "context": enc.context(d.ctx),
        "proof": proof,
        "children": _write_children(enc, d, table),
    }


def _write_cong_element(enc, d, table) -> dict:
    return {
        "rule": "cong_element",
        "element": enc.element(d.element),
        "arity_ctx": enc.context(d.arity_ctx),
        "arity_sort": enc.sort(d.arity_sort),
        "children": _write_children(enc, d, table),
    }


def _write_var_collapse(enc, d, table) -> dict:
    return {
        "rule": "var_collapse",
        "index": d.index,
        "arg_ctx": enc.context(d.arg_ctx),
        "args": [enc.term(a, table.terms) for a in d.args],
    }


def _write_subst_collapse(enc, d, table) -> dict:
    return {
        "rule": "subst_collapse",
        "element": enc.element(d.element),
        "element_ctx": enc.context(d.element_ctx),
        "element_sort": enc.sort(d.element_sort),
        "components": [enc.element(c) for c in d.subst_components],
        "arg_ctx": enc.context(d.arg_ctx),
        "args": [enc.term(a, table.terms) for a in d.args],
    }


_WRITE_FO_RULE = _Table("derivation node", {
    FoRefl: _write_refl,
    FoSym: _write_sym,
    FoTrans: _write_trans,
    FoCong: _write_cong,
    FoAxiom: _write_axiom,
    FoLemma: _write_lemma,
}, _WRITE_FO_TERM)
_WRITE_FREE_RULE = _Table("derivation node", {
    FRefl: _write_refl,
    FSym: _write_sym,
    FTrans: _write_trans,
    FCongClone: _write_cong_element,
    FCongOp: _write_cong_op,
    FAxiom: _write_axiom,
    FVarLaw: _write_var_collapse,
    FSubstLaw: _write_subst_collapse,
}, _WRITE_FREE_TERM)


def _read_refl(dec, data, table) -> tuple:
    return (dec.term(data["term"], table.terms),)


def _read_sym(dec, data, table) -> tuple:
    return (dec.derivation(data["children"][0], table),)


def _read_children(dec, data, table) -> tuple:
    return tuple([dec.derivation(c, table) for c in data["children"]])


def _read_cong(dec, data, table) -> tuple:
    return data["op"], dec.sort_tuple(data["sort_args"]), _read_children(dec, data, table)


def _read_axiom(dec, data, table) -> tuple:
    return data["equation"], dec.sort_tuple(data["sort_args"]), _read_children(dec, data, table)


def _read_lemma(dec, data, table) -> tuple:
    proof = dec.derivation(data["proof"], table)
    proof = dec.proofs.setdefault(proof, proof)
    return dec.context(data["context"]), proof, _read_children(dec, data, table)


def _read_cong_element(dec, data, table) -> tuple:
    return (
        dec.element(data["element"]),
        dec.context(data["arity_ctx"]),
        dec.sort(data["arity_sort"]),
        _read_children(dec, data, table),
    )


def _read_var_collapse(dec, data, table) -> tuple:
    index, arg_ctx = _integer(data, "index"), dec.context(data["arg_ctx"])
    return index, arg_ctx, dec.terms_of(data["args"], table.terms)


def _read_subst_collapse(dec, data, table) -> tuple:
    return (
        dec.element(data["element"]),
        dec.context(data["element_ctx"]),
        dec.sort(data["element_sort"]),
        tuple([dec.element(c) for c in data["components"]]),
        dec.context(data["arg_ctx"]),
        dec.terms_of(data["args"], table.terms),
    )


# "trans" reads its children as its fields, so a count other than two is a
# TypeError from the constructor, which _decode reports as malformed input.
_READ_FO_RULE = _Table("rule", {
    "refl": (FoRefl, _read_refl),
    "sym": (FoSym, _read_sym),
    "trans": (FoTrans, _read_children),
    "cong": (FoCong, _read_cong),
    "axiom": (FoAxiom, _read_axiom),
    "lemma": (FoLemma, _read_lemma),
}, _READ_FO_TERM)
_READ_FREE_RULE = _Table("rule", {
    "refl": (FRefl, _read_refl),
    "sym": (FSym, _read_sym),
    "trans": (FTrans, _read_children),
    "cong_element": (FCongClone, _read_cong_element),
    "cong_op": (FCongOp, _read_cong),
    "axiom": (FAxiom, _read_axiom),
    "var_collapse": (FVarLaw, _read_var_collapse),
    "subst_collapse": (FSubstLaw, _read_subst_collapse),
}, _READ_FREE_TERM)


# --------------------------------------------------------------------------
# Public conversions: one codec per call
# --------------------------------------------------------------------------


def context_to_json(c: Context) -> list:
    return _Encoder().context(c)


def context_from_json(data: list) -> Context:
    return _decode(_Decoder.context, data)


def fo_term_to_json(t) -> dict:
    return _Encoder().term(t, _WRITE_FO_TERM)


def fo_term_from_json(data: dict):
    return _decode(_Decoder.term, data, _READ_FO_TERM)


def fo_derivation_to_json(d) -> dict:
    return _Encoder().derivation(d, _WRITE_FO_RULE)


def fo_derivation_from_json(data: dict):
    return _decode(_Decoder.derivation, data, _READ_FO_RULE)


def free_term_to_json(t) -> dict:
    return _Encoder().term(t, _WRITE_FREE_TERM)


def free_term_from_json(data: dict):
    return _decode(_Decoder.term, data, _READ_FREE_TERM)


def free_derivation_to_json(d) -> dict:
    return _Encoder().derivation(d, _WRITE_FREE_RULE)


def free_derivation_from_json(data: dict):
    return _decode(_Decoder.derivation, data, _READ_FREE_RULE)


# --------------------------------------------------------------------------
# Documents
# --------------------------------------------------------------------------


def field(data: dict, name: str):
    """``data[name]``; JsonError names the field when ``data`` is not a
    JSON object holding it."""
    if not isinstance(data, dict) or name not in data:
        raise JsonError(f"missing field {name!r}")
    return data[name]


def document(kind: str, payload: dict, **extra) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(extra)
    doc["payload"] = payload
    return doc


def load_document(data: dict, kind: str | None = None) -> dict:
    if field(data, "schema_version") != SCHEMA_VERSION:
        raise JsonError(f"unsupported schema version {data.get('schema_version')!r}")
    if kind is not None and data.get("kind") != kind:
        raise JsonError(f"expected a {kind!r} document, got {data.get('kind')!r}")
    return field(data, "payload")
