"""Sorts, sort sets, and typing contexts.

A sort is a base name or a binary type former applied to two sorts
(e.g. ``b`` and ``b => b``).  A context is a finite sequence of sorts;
variables are positional, so contexts carry no names.  All indices into
contexts are 1-based.

Sorts and contexts are hash-consed (Filliatre & Conchon, "Type-safe
modular hash-consing", ML Workshop 2006): the constructor returns the one
live object of each value, so ``==`` is identity, and every table keyed by
a sort or a context finds its key without comparing fields.  The intern
tables hold their objects weakly: a value that nobody holds is dropped once
the 256 values made after it are made.
"""

from __future__ import annotations

import collections
import itertools
import threading
import weakref
from dataclasses import dataclass, fields


def stored_hash(cls):
    """Class decorator, applied above ``@dataclass(frozen=True)``: the
    dataclass hash is computed on first use and stored on the instance.  It
    is not a field, so equality, ``repr`` and pattern matching are unchanged,
    and a pickled copy keeps only the fields, since string hashes differ
    between processes."""
    field_hash = cls.__hash__
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {n: getattr(self, n) for n in names}

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


_SORTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # (former, args) -> Sort
_CONTEXTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # entries -> Context
# A hit reads the weak references in the tables' own dicts, one probe and one
# call with no Python frame; ``_interned`` handles a miss and a dead reference.
_SORT_REFS, _CONTEXT_REFS = _SORTS.data, _CONTEXTS.data
# The last values made stay alive, so a context that a walk rebuilds for each
# sibling (``extra + binder``) is found again rather than made and dropped.
_RECENT: collections.deque = collections.deque(maxlen=256)
_LOCK = threading.Lock()


def _interned(table: weakref.WeakValueDictionary, cls, key, fields: tuple):
    """The live ``cls`` object stored under ``key``, made with ``fields`` if
    there is none.  The lock makes the check and the insertion one step, so
    two threads never make two equal objects.  The hash stored is the one
    the dataclass would compute from the fields, so iteration orders of sets
    and dicts of sorts and contexts do not depend on interning."""
    with _LOCK:
        obj = table.get(key)
        if obj is None:
            obj = object.__new__(cls)
            vars(obj).update(zip(cls.__match_args__, fields), _hash=hash(fields))
            table[key] = obj
            _RECENT.append(obj)
    return obj


@dataclass(frozen=True, eq=False, init=False)
class Sort:
    """A base sort (no args) or a former applied to argument sorts, which
    are sorts or, in a schema's sort template, ``SortVar`` parameters.
    Interned: equal sorts are one object, and pickling or copying one gives
    that object back."""

    former: str
    args: tuple["Sort", ...] = ()

    def __new__(cls, former: str, args: tuple = ()):
        if type(args) is not tuple:
            args = tuple(args)
        key = (former, args)
        ref = _SORT_REFS.get(key)
        found = ref() if ref is not None else None
        return found if found is not None else _interned(_SORTS, cls, key, key)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Sort, (self.former, self.args)

    def height(self) -> int:
        if not self.args:
            return 0
        return 1 + max(a.height() for a in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.former
        left, right = self.args
        ls = f"({left})" if isinstance(left, Sort) and left.args else str(left)
        return f"{ls} {self.former} {right}"


@dataclass(frozen=True)
class SortVar:
    """A sort parameter inside an operator or equation schema."""

    name: str

    def __str__(self) -> str:
        return self.name


def arrow(a: Sort, b: Sort) -> Sort:
    """The function-type former, written ``a => b``."""
    return Sort("=>", (a, b))


def sort_vars(s) -> set[str]:
    """Names of the SortVar leaves inside a sort template."""
    if isinstance(s, SortVar):
        return {s.name}
    out: set[str] = set()
    for a in s.args:
        out |= sort_vars(a)
    return out


def instantiate_sort(template, binding: dict[str, Sort]) -> Sort:
    """Replace SortVar leaves by the sorts given in ``binding``."""
    if isinstance(template, SortVar):
        return binding[template.name]
    if not template.args:
        return template
    return Sort(template.former, tuple(instantiate_sort(a, binding) for a in template.args))


def match_sort(template, concrete: Sort, binding: dict[str, Sort]) -> bool:
    """First-order matching of a sort template against a concrete sort.

    Extends ``binding`` in place; returns False on clash.
    """
    if isinstance(template, SortVar):
        seen = binding.get(template.name)
        if seen is None:
            binding[template.name] = concrete
            return True
        return seen == concrete
    if not isinstance(concrete, Sort):  # a parameter fits only a parameter
        return False
    if template.former != concrete.former or len(template.args) != len(concrete.args):
        return False
    return all(match_sort(t, c, binding) for t, c in zip(template.args, concrete.args))


@dataclass(frozen=True)
class SortSet:
    """A named set of sorts: a finite base, optionally closed under binary formers."""

    name: str
    base: tuple[str, ...]
    formers: tuple[str, ...] = ()

    def base_sorts(self) -> list[Sort]:
        return [Sort(n) for n in self.base]

    def sorts_up_to_height(self, height: int) -> list[Sort]:
        """All sorts of height <= ``height``, in a deterministic order."""
        layers: list[Sort] = self.base_sorts()
        seen = list(layers)
        for _ in range(height):
            new = [
                Sort(f, (a, b))
                for f in self.formers
                for a in seen
                for b in seen
            ]
            seen = seen + [s for s in new if s not in seen]
        return [s for s in seen if s.height() <= height]

    def contexts_up_to(self, max_len: int, sorts: list[Sort] | None = None) -> list["Context"]:
        """All contexts of length <= ``max_len`` over ``sorts`` (or the base sorts)."""
        pool = sorts if sorts is not None else self.base_sorts()
        out = []
        for n in range(max_len + 1):
            for combo in itertools.product(pool, repeat=n):
                out.append(Context(combo))
        return out


@dataclass(frozen=True, eq=False, init=False)
class Context:
    """A typing context: a finite sequence of sorts, indexed 1-based.
    Interned, like ``Sort``."""

    entries: tuple[Sort, ...] = ()

    def __new__(cls, entries: tuple = ()):
        if type(entries) is not tuple:
            entries = tuple(entries)
        ref = _CONTEXT_REFS.get(entries)
        found = ref() if ref is not None else None
        return found if found is not None else _interned(_CONTEXTS, cls, entries, (entries,))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Context, (self.entries,)

    def __len__(self) -> int:
        return len(self.entries)

    def sort_at(self, i: int) -> Sort:
        if not 1 <= i <= len(self.entries):
            raise IndexError(f"position {i} out of range for context of length {len(self.entries)}")
        return self.entries[i - 1]

    def extend(self, other: "Context") -> "Context":
        # Interning would give back the same object; the shortcut skips the
        # lookup, which hashes every entry, for the common empty binder.
        if not other.entries:
            return self
        if not self.entries:
            return other
        return Context(self.entries + other.entries)

    __add__ = extend

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "<>"
        return "[" + ", ".join(str(s) for s in self.entries) + "]"


EMPTY = Context(())
