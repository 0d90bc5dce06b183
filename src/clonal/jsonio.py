"""JSON forms for terms and derivations, schema version 2.

Every top-level document carries a ``schema_version``.  Version 1 documents
go through the same reader, since every version 1 value is a version 2
value.  Round-tripping is bit-exact, so serialized derivations replay
through the checkers unchanged.  Indices are 1-based, matching the
in-memory representation.

A term is an object with a ``kind`` tag: ``var`` (``index``), ``op``
(``name``, ``sort_args``, ``args``; a free operator's arguments are
``{"binds": context, "body": term}``) or ``element`` (``element``,
``arity_ctx``, ``arity_sort``, ``args``), where an element is a first-order
term or ``{"kind": "index", "value": i}``.  A derivation node is an object
with a ``rule`` tag: ``refl`` (``term``), ``sym`` (``children``), ``trans``
(``children``), ``cong`` and ``cong_op`` (``op``, ``sort_args``,
``children``), ``axiom`` (``equation``, ``sort_args``, ``children``),
``cong_element``, ``var_collapse``, ``subst_collapse`` and ``lemma``.  A
``lemma`` node has the fields ``context`` (a context), ``proof`` (a
derivation of l ~ r in that context) and ``children`` (one derivation per
context entry), and stands for the substitution instance of the proved
equation that ``firstorder.FoLemma`` describes.

Version 2 writes a derivation at the size of its DAG:

* ``{"rule": "shared", "table": [...], "body": d}`` is a derivation node that
  is valid at any derivation position and derives what ``d`` derives.  Each
  ``{"ref": k}`` inside it, at a term, element or derivation position,
  stands for entry k (from 0) of the nearest enclosing table.  Entries may
  hold refs to other entries of the same table, but not in a cycle.
* ``trans`` has n >= 2 ``children`` and stands for the left-nested chain of
  n - 1 transitivity links; n = 2 is the version 1 node.

``*_derivation_to_json`` returns one self-contained value.  Each term,
element and lemma proof that occurs more than once is written once, in the
table of a ``shared`` node at the root (there is none when nothing
repeats).  Each maximal left-nested transitivity chain is one ``trans``
node.  ``*_term_to_json`` and ``context_to_json`` write inline values with
no refs, so such a value stays valid wherever it is embedded in a
derivation, inside a table or outside one.  Equal sorts and contexts, and
the equal subterms of a standalone term, share one JSON object:
``json.dumps`` writes the same bytes as for an unshared copy, but a caller
that mutates the result must copy it first.

Both codecs are loops with explicit stacks, so neither the depth of a term
nor the length of a chain meets Python's recursion limit.  The decoder
reads each table entry once, so a shared value comes back as one object;
sorts and contexts are interned.  Malformed input raises ``JsonError``,
naming the field that is missing or not an integer where that is the fault.
"""

from __future__ import annotations

import functools
import itertools

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
from .sorts import EMPTY, Context, Sort

SCHEMA_VERSION = 2
READABLE_VERSIONS = (1, 2)


class JsonError(CloneError):
    pass


class _Table(dict):
    """How one family of terms or derivations is written or read.  A writing
    table maps each class to its writer; in a ``shared`` one, equal values
    are written once.  A reading table maps each value of the ``tag``
    field to its reader.  A derivation table names its family's term table
    in ``terms``."""

    def __init__(self, what: str, entries: dict, terms: "_Table | None" = None,
                 shared: bool = False, tag: str = "kind"):
        super().__init__(entries)
        self.what = what
        self.terms = terms
        self.shared = shared
        self.tag = tag


class _Encoder:
    """One ``*_to_json`` call: a loop over tasks (table, owner, key), each of
    which replaces the value ``owner[key]`` by its JSON.  A writer returns a
    value's JSON with the child values in its slots and passes each slot to
    ``fill`` or ``slots``, which queue a task for it or fill it at once.

    In a shared table, the first occurrence of a value is queued, and
    ``seen`` keeps where it stands.  At the second, with a ``table`` to
    write into, the value moves to entry k of the table (written or still
    to be written there) and ``{"ref": k}`` takes its place in both slots;
    every later occurrence is the same ref, and a queued slot that holds a
    ref is skipped.  With no table (a standalone value), an occurrence
    shares the first one's JSON object once that is written.  Equal sorts
    and contexts share one object."""

    def __init__(self, table: list | None):
        self.sorts: dict = {}
        self.sort_lists: dict = {}
        self.contexts: dict = {}
        self.seen: dict = {}  # value -> the task of the slot where it first stood, or its ref
        self.table = table
        self.todo: list = []

    def run(self, table: _Table, value):
        root = [value]
        todo = self.todo
        todo.append((table, root, 0))
        while todo:
            table, owner, key = todo.pop()
            v = owner[key]
            if type(v) is dict:  # a ref now: the value is written at its entry
                continue
            write = table.get(type(v))
            if write is None:
                raise JsonError(f"not a {table.what}: {v!r}")
            owner[key] = write(self, v, table)
        return root[0]

    def fill(self, table: _Table, owner, key) -> None:
        """Queue ``owner[key]``, a value of a shared table, to be replaced
        by its JSON."""
        v = owner[key]
        task = (table, owner, key)
        got = self.seen.setdefault(v, task)
        if got is task:
            self.todo.append(task)
        elif type(got) is dict:
            owner[key] = got
        else:
            self.again(table, v, got, owner, key)

    def slots(self, table: _Table, values) -> list:
        """A list to be filled with the JSON of each of ``values``: ``fill``
        for each slot, written out."""
        out = list(values)
        todo = self.todo
        if not table.shared:  # derivations are not hashed, for hashing one recurses
            todo.extend(zip(itertools.repeat(table), itertools.repeat(out), range(len(out))))
            return out
        seen = self.seen
        for i, v in enumerate(out):
            task = (table, out, i)
            got = seen.setdefault(v, task)
            if got is task:
                todo.append(task)
            elif type(got) is dict:
                out[i] = got
            else:
                self.again(table, v, got, out, i)
        return out

    def again(self, table: _Table, v, first: tuple, owner, key) -> None:
        """Fill ``owner[key]`` with ``v`` met again, ``first`` being the
        task of the slot where it stood first."""
        _, first_owner, first_key = first
        got = first_owner[first_key]
        written = type(got) is dict
        if self.table is None:
            if written:
                owner[key] = got
            else:
                self.todo.append((table, owner, key))
            return
        k = len(self.table)
        self.table.append(got)
        first_owner[first_key] = owner[key] = self.seen[v] = {"ref": k}
        if not written:
            self.todo.append((table, self.table, k))

    # Memos keyed by identity, which hashes in C: sorts and contexts are
    # interned, and each tuple of sorts is alive for the whole call.

    def sort(self, s: Sort) -> dict:
        got = self.sorts.get(id(s))
        if got is None:
            if s.args:
                got = {"former": s.former, "args": [self.sort(a) for a in s.args]}
            else:
                got = {"base": s.former}
            self.sorts[id(s)] = got
        return got

    def sort_list(self, sorts: tuple) -> list:
        got = self.sort_lists.get(id(sorts))
        if got is None:
            got = self.sort_lists[id(sorts)] = [self.sort(s) for s in sorts]
        return got

    def context(self, c: Context) -> list:
        got = self.contexts.get(id(c))
        if got is None:
            got = self.contexts[id(c)] = self.sort_list(c.entries)
        return got


_BASE = itertools.repeat("base")


class _Decoder:
    """One ``*_from_json`` call: a loop over tasks, as the encoder's.  A
    task (table, owner, key) replaces the JSON ``owner[key]`` by its value:
    ``table`` maps its tag to a node (children, make, fields), and a node is
    made as ``make(*fields(dec, data, args))``.  A leaf (no ``children``)
    has no ``args`` and is made at once.  Otherwise ``children(dec, data,
    table)`` lists the node's children as (table, JSON) pairs: each child
    that is a ref to an entry already read is its value at once, and each
    other child gets a task, which runs above the task (node, owner, key,
    data, args) that makes the node from ``args``, the list of its
    children's values.

    ``entries`` is the nearest enclosing table, and ``read`` maps the index
    of each entry whose reading has begun to the reading table it is read
    by and the slot (owner, key) it is read in, the first to hold a ref to
    it: the slot holds the entry's JSON, a dict, until the entry is read,
    and its value after.  ``outer`` holds the enclosing tables further out.
    So an entry is read once, and every ref to it gives one object.  Sorts
    and contexts are interned."""

    def __init__(self):
        self.todo: list = []
        self.entries: list = []
        self.read: dict = {}
        self.outer: list = []
        self.sorts: dict = {}
        self.sort_tuples: dict = {}
        self.contexts: dict = {}

    def run(self, data, table: _Table):
        root = [data]
        todo = self.todo
        todo.append((table, root, 0))
        while todo:
            task = todo.pop()
            if len(task) == 5:
                (_, make, fields), owner, key, data, args = task
                owner[key] = make(*fields(self, data, args))
                continue
            table, owner, key = task
            data = owner[key]
            node = table.get(data.get(table.tag))
            if node is None:
                self.ref(table, owner, key)
                continue
            children, make, fields = node
            if children is None:
                owner[key] = make(*fields(self, data, None))
                continue
            args: list = []
            todo.append((node, owner, key, data, args))
            groups = children(self, data, table)
            read = self.read  # after ``children``, which enters a shared node's table
            for t, group in groups:
                for c in group:
                    k = c.get("ref")
                    got = read.get(k) if type(k) is int else None
                    if got is not None and got[0] is t:
                        value = got[1][got[2]]
                        if type(value) is not dict:
                            args.append(value)
                            continue
                    todo.append((t, args, len(args)))
                    args.append(c)
        return root[0]

    def ref(self, table: _Table, owner, key) -> None:
        """Fill ``owner[key]``, which holds no node of ``table``: a ref,
        read now or at once if its entry is read; or raise."""
        data = owner[key]
        tag = data.get(table.tag)
        if tag is not None:
            raise JsonError(f"unknown {table.what} {tag!r}")
        if "ref" not in data:
            raise KeyError(table.tag)
        k = _integer(data, "ref")
        if not 0 <= k < len(self.entries):
            raise JsonError(f"ref {k} is out of range of a table of {len(self.entries)} entries")
        got = self.read.get(k)
        if got is None:
            self.read[k] = (table, owner, key)
            owner[key] = self.entries[k]
            self.todo.append((table, owner, key))
            return
        read_as, first, at = got
        if read_as is not table:
            raise JsonError(f"ref {k} stands at two kinds of position")
        value = first[at]
        if type(value) is dict:  # still being read, so the ref is inside its own entry
            raise JsonError(f"ref {k} is part of a cycle of refs")
        owner[key] = value

    # Sorts and contexts are memoized by the names of their base sorts, a
    # key built in C: ``None`` in a key stands for a sort with arguments,
    # and such a key is not kept.

    def sort(self, data: dict) -> Sort:
        key = data.get("base")
        if key is None:
            key = (data["former"], *map(dict.get, data["args"], _BASE))
        got = self.sorts.get(key)
        if got is None:
            if type(key) is str:
                got = Sort(key)
            else:
                got = Sort(key[0], tuple([self.sort(a) for a in data["args"]]))
            if type(key) is str or None not in key:
                self.sorts[key] = got
        return got

    def sort_tuple(self, data: list) -> tuple:
        """The sorts of ``data``, a list of sorts."""
        if data == []:
            return ()
        key = tuple(map(dict.get, data, _BASE))
        got = self.sort_tuples.get(key)
        if got is None:
            got = tuple([self.sort(s) for s in data])
            if None not in key:
                self.sort_tuples[key] = got
        return got

    def context(self, data: list) -> Context:
        if data == []:
            return EMPTY
        key = tuple(map(dict.get, data, _BASE))
        got = self.contexts.get(key)
        if got is None:
            got = Context(tuple([self.sort(s) for s in data]))
            if None not in key:
                self.contexts[key] = got
        return got


def _same(value):
    return value


def _enter(dec, data, table) -> list:
    entries = data["table"]
    if type(entries) is not list:
        raise JsonError(f"field 'table' is not a list: {entries!r}")
    body = data["body"]
    dec.outer.append((dec.entries, dec.read))
    dec.entries, dec.read = entries, {}
    return ((table, (body,)),)


def _leave(dec, data, args) -> list:
    dec.entries, dec.read = dec.outer.pop()
    return args


_SHARED = (_enter, _same, _leave)  # the node {"rule": "shared", ...}


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
    except (IndexError, TypeError, AttributeError) as e:
        raise JsonError(f"malformed JSON value: {e}") from None


# --------------------------------------------------------------------------
# Terms: writers by class, readers by kind
# --------------------------------------------------------------------------


def _write_var(enc, t, table) -> dict:
    return {"kind": "var", "index": t.index}


def _write_index(enc, e, table) -> dict:
    return {"kind": "index", "value": e}


def _write_fo_op(enc, t, table) -> dict:
    return {
        "kind": "op",
        "name": t.name,
        "sort_args": enc.sort_list(t.sort_args),
        "args": enc.slots(_WRITE_FO_TERM, t.args),
    }


def _write_binding_op(enc, t, table) -> dict:
    args = [{"binds": enc.context(binder), "body": body} for binder, body in t.args]
    for arg in reversed(args):
        enc.fill(table, arg, "body")
    return {"kind": "op", "name": t.name, "sort_args": enc.sort_list(t.sort_args), "args": args}


def _write_element_app(enc, t, table) -> dict:
    got = {
        "kind": "element",
        "element": t.element,
        "arity_ctx": enc.context(t.arity_ctx),
        "arity_sort": enc.sort(t.arity_sort),
        "args": enc.slots(table, t.args),
    }
    enc.fill(_WRITE_FO_TERM, got, "element")
    return got


_WRITE_FO_TERM = _Table(
    "first-order term", {FoVar: _write_var, FoOp: _write_fo_op, int: _write_index}, shared=True
)
_WRITE_FREE_TERM = _Table("free term", {
    FreeVar: _write_var, CloneApp: _write_element_app, FreeOp: _write_binding_op,
}, shared=True)


def _index(dec, data, args) -> tuple:
    return (_integer(data, "index"),)


def _fo_args(dec, data, table) -> tuple:
    return ((_READ_FO_TERM, data["args"]),)


def _fo_op(dec, data, args) -> tuple:
    return data["name"], dec.sort_tuple(data["sort_args"]), tuple(args)


def _bodies(dec, data, table) -> tuple:
    return ((_READ_FREE_TERM, [a["body"] for a in data["args"]]),)


def _binding_op(dec, data, args) -> tuple:
    binders = [dec.context(a["binds"]) for a in data["args"]]
    return data["name"], dec.sort_tuple(data["sort_args"]), tuple(zip(binders, args))


def _element_and_args(dec, data, table) -> tuple:
    return (_READ_FO_TERM, (data["element"],)), (_READ_FREE_TERM, data["args"])


def _element_app(dec, data, args) -> tuple:
    return args[0], dec.context(data["arity_ctx"]), dec.sort(data["arity_sort"]), tuple(args[1:])


# Base elements are first-order terms or indices, written and read by one
# table each way, so that one table entry serves every position of a term.
_READ_FO_TERM = _Table("term kind", {
    "var": (None, FoVar, _index),
    "op": (_fo_args, FoOp, _fo_op),
    "index": (None, int, lambda dec, data, args: (_integer(data, "value"),)),
})
_READ_FREE_TERM = _Table("term kind", {
    "var": (None, FreeVar, _index),
    "element": (_element_and_args, CloneApp, _element_app),
    "op": (_bodies, FreeOp, _binding_op),
})


# --------------------------------------------------------------------------
# Derivations: writers by class, readers by rule
# --------------------------------------------------------------------------


def _write_refl(enc, d, table) -> dict:
    got = {"rule": "refl", "term": d.term}
    enc.fill(table.terms, got, "term")
    return got


def _write_sym(enc, d, table) -> dict:
    return {"rule": "sym", "children": enc.slots(table, (d.child,))}


def _write_trans(enc, d, table) -> dict:
    link, links = type(d), []
    while type(d) is link:
        links.append(d.right)
        d = d.left
    links.append(d)
    links.reverse()
    return {"rule": "trans", "children": enc.slots(table, links)}


def _write_cong(enc, d, table) -> dict:
    return {
        "rule": "cong",
        "op": d.op,
        "sort_args": enc.sort_list(d.sort_args),
        "children": enc.slots(table, d.children),
    }


def _write_cong_op(enc, d, table) -> dict:
    return {
        "rule": "cong_op",
        "op": d.name,
        "sort_args": enc.sort_list(d.sort_args),
        "children": enc.slots(table, d.children),
    }


def _write_axiom(enc, d, table) -> dict:
    return {
        "rule": "axiom",
        "equation": d.equation,
        "sort_args": enc.sort_list(d.sort_args),
        "children": enc.slots(table, d.children),
    }


def _write_lemma(enc, d, table) -> dict:
    got = {
        "rule": "lemma",
        "context": enc.context(d.ctx),
        "proof": d.proof,
        "children": enc.slots(table, d.children),
    }
    enc.fill(_WRITE_FO_PROOF, got, "proof")
    return got


def _write_cong_element(enc, d, table) -> dict:
    got = {
        "rule": "cong_element",
        "element": d.element,
        "arity_ctx": enc.context(d.arity_ctx),
        "arity_sort": enc.sort(d.arity_sort),
        "children": enc.slots(table, d.children),
    }
    enc.fill(_WRITE_FO_TERM, got, "element")
    return got


def _write_var_collapse(enc, d, table) -> dict:
    return {
        "rule": "var_collapse",
        "index": d.index,
        "arg_ctx": enc.context(d.arg_ctx),
        "args": enc.slots(table.terms, d.args),
    }


def _write_subst_collapse(enc, d, table) -> dict:
    got = {
        "rule": "subst_collapse",
        "element": d.element,
        "element_ctx": enc.context(d.element_ctx),
        "element_sort": enc.sort(d.element_sort),
        "components": enc.slots(_WRITE_FO_TERM, d.subst_components),
        "arg_ctx": enc.context(d.arg_ctx),
        "args": enc.slots(table.terms, d.args),
    }
    enc.fill(_WRITE_FO_TERM, got, "element")
    return got


_FO_RULE_WRITERS = {
    FoRefl: _write_refl,
    FoSym: _write_sym,
    FoTrans: _write_trans,
    FoCong: _write_cong,
    FoAxiom: _write_axiom,
    FoLemma: _write_lemma,
}
_WRITE_FO_RULE = _Table("derivation node", _FO_RULE_WRITERS, _WRITE_FO_TERM)
# a lemma's proof, and each node inside it, is written once per value
_WRITE_FO_PROOF = _Table("derivation node", _FO_RULE_WRITERS, _WRITE_FO_TERM, shared=True)
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


def _term(dec, data, table) -> tuple:
    return ((table.terms, (data["term"],)),)


def _first_child(dec, data, table) -> tuple:
    return ((table, data["children"][:1]),)


def _children(dec, data, table) -> tuple:
    return ((table, data["children"]),)


def _chain(dec, data, table) -> tuple:
    children = data["children"]
    if len(children) < 2:
        raise JsonError(
            f"malformed JSON value: a trans node needs two or more children, not {len(children)}"
        )
    return ((table, children),)


def _nested(link, *children):
    """The left-nested chain of ``link`` nodes over ``children``."""
    d = children[0]
    for c in children[1:]:
        d = link(d, c)
    return d


def _values(dec, data, args) -> list:
    return args


def _cong(dec, data, args) -> tuple:
    return data["op"], dec.sort_tuple(data["sort_args"]), tuple(args)


def _axiom(dec, data, args) -> tuple:
    return data["equation"], dec.sort_tuple(data["sort_args"]), tuple(args)


def _proof_and_children(dec, data, table) -> tuple:
    return (table, (data["proof"],)), (table, data["children"])


def _lemma(dec, data, args) -> tuple:
    return dec.context(data["context"]), args[0], tuple(args[1:])


def _element_and_children(dec, data, table) -> tuple:
    return (_READ_FO_TERM, (data["element"],)), (table, data["children"])


def _cong_element(dec, data, args) -> tuple:
    return args[0], dec.context(data["arity_ctx"]), dec.sort(data["arity_sort"]), tuple(args[1:])


def _law_args(dec, data, table) -> tuple:
    return ((table.terms, data["args"]),)


def _var_collapse(dec, data, args) -> tuple:
    return _integer(data, "index"), dec.context(data["arg_ctx"]), tuple(args)


def _subst_parts(dec, data, table) -> tuple:
    return (_READ_FO_TERM, [data["element"], *data["components"]]), (table.terms, data["args"])


def _subst_collapse(dec, data, args) -> tuple:
    k = 1 + len(data["components"])
    return (
        args[0],
        dec.context(data["element_ctx"]),
        dec.sort(data["element_sort"]),
        tuple(args[1:k]),
        dec.context(data["arg_ctx"]),
        tuple(args[k:]),
    )


def _rules(refl, sym, trans) -> dict:
    """The nodes every derivation family has: the three shared rules and
    the ``shared`` node."""
    return {
        "refl": (_term, refl, _values),
        "sym": (_first_child, sym, _values),
        "trans": (_chain, functools.partial(_nested, trans), _values),
        "shared": _SHARED,
    }


_READ_FO_RULE = _Table("rule", {
    **_rules(FoRefl, FoSym, FoTrans),
    "cong": (_children, FoCong, _cong),
    "axiom": (_children, FoAxiom, _axiom),
    "lemma": (_proof_and_children, FoLemma, _lemma),
}, _READ_FO_TERM, tag="rule")
_READ_FREE_RULE = _Table("rule", {
    **_rules(FRefl, FSym, FTrans),
    "cong_element": (_element_and_children, FCongClone, _cong_element),
    "cong_op": (_children, FCongOp, _cong),
    "axiom": (_children, FAxiom, _axiom),
    "var_collapse": (_law_args, FVarLaw, _var_collapse),
    "subst_collapse": (_subst_parts, FSubstLaw, _subst_collapse),
}, _READ_FREE_TERM, tag="rule")


# --------------------------------------------------------------------------
# Public conversions: one codec per call
# --------------------------------------------------------------------------


def _derivation_to_json(d, table: _Table) -> dict:
    entries: list = []
    body = _Encoder(entries).run(table, d)
    return {"rule": "shared", "table": entries, "body": body} if entries else body


def context_to_json(c: Context) -> list:
    return _Encoder(None).context(c)


def context_from_json(data: list) -> Context:
    return _decode(_Decoder.context, data)


def fo_term_to_json(t) -> dict:
    return _Encoder(None).run(_WRITE_FO_TERM, t)


def fo_term_from_json(data: dict):
    return _decode(_Decoder.run, data, _READ_FO_TERM)


def fo_derivation_to_json(d) -> dict:
    return _derivation_to_json(d, _WRITE_FO_RULE)


def fo_derivation_from_json(data: dict):
    return _decode(_Decoder.run, data, _READ_FO_RULE)


def free_term_to_json(t) -> dict:
    return _Encoder(None).run(_WRITE_FREE_TERM, t)


def free_term_from_json(data: dict):
    return _decode(_Decoder.run, data, _READ_FREE_TERM)


def free_derivation_to_json(d) -> dict:
    return _derivation_to_json(d, _WRITE_FREE_RULE)


def free_derivation_from_json(data: dict):
    return _decode(_Decoder.run, data, _READ_FREE_RULE)


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
    if field(data, "schema_version") not in READABLE_VERSIONS:
        raise JsonError(f"unsupported schema version {data.get('schema_version')!r}")
    if kind is not None and data.get("kind") != kind:
        raise JsonError(f"expected a {kind!r} document, got {data.get('kind')!r}")
    return field(data, "payload")
