"""The ``name:a,b`` spec grammar shared by classes, families, indices and suites.

A spec is a name, then, when the name takes arguments, a colon and the
arguments separated by commas.  Each kind keeps one table beside its
functions that maps a name to an ``Entry``: what the name stands for, its
argument names with the type each is converted to, and how many of them
must be given (the rest may be left off the end).

Integer arguments are then held to one range rule, ``_check_range``: a
value outside its range raises a ValueError that reads
``<what> must be in <low>..[<high>][ step <s>], got <value>``.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple


class Entry(NamedTuple):
    target: Any
    args: Mapping[str, type] = {}
    required: int | None = None


def parse_spec(spec: str, table: Mapping[str, Any], kind: str) -> tuple[str, tuple]:
    """Split ``spec`` into a name of ``table`` and its converted arguments.

    Table values need ``args`` and ``required`` as on ``Entry``; every
    failure is a ValueError that names the ``kind`` of spec.
    """
    name, sep, text = spec.partition(":")
    name = name.strip()
    if name not in table:
        raise ValueError("unknown %s %r" % (kind, name))
    entry = table[name]
    names, types = list(entry.args), list(entry.args.values())
    if not types:
        if sep:
            raise ValueError("%s %r takes no arguments" % (kind, name))
        return name, ()
    least = len(types) if entry.required is None else entry.required
    signature = ",".join(names[:least]) + "".join("[,%s]" % a for a in names[least:])
    if not sep:
        raise ValueError("%s %r needs arguments: %s:%s" % (kind, name, name, signature))
    parts = [p.strip() for p in text.split(",")]
    if not least <= len(parts) <= len(types):
        raise ValueError(
            "%s %r takes arguments %s, got %d" % (kind, name, signature, len(parts))
        )
    bad = ValueError("bad %s arguments %r, expected %s" % (kind, text, signature))
    if "" in parts:
        raise bad
    try:
        return name, tuple(convert(p) for convert, p in zip(types, parts))
    except ValueError:
        raise bad from None


def _check_range(
    what: str, value: int, low: int, high: int | None = None, step: int = 1
) -> None:
    # The range rule of every integer argument: value is one of low,
    # low + step, ... up to high, with no upper end when high is None.
    if value < low or high is not None and value > high or (value - low) % step:
        span = "%d..%s" % (low, "" if high is None else high)
        if step > 1:
            span += " step %d" % step
        raise ValueError("%s must be in %s, got %r" % (what, span, value))
