"""Pickle anchor for dynamically generated classes.

Classes produced with ``exec`` (the generated runtime classes of
:mod:`repro.codegen.filtergen`, query-dependent reduction classes such as
vmscope's ``VImage``) have no importable module, so pickling their
*instances* fails with ``attribute lookup ... failed``.  The process
execution engine (:mod:`repro.datacutter.mp`) moves final reduction
objects between worker processes and the supervisor by pickle, so every
dynamically created class is registered here: the class is re-homed into
this module under a unique anchor name, which makes pickle's by-reference
lookup succeed in any process forked after registration.

Anchors are held weakly: a class lives exactly as long as something else
uses it (a compiled pipeline, a spec, an instance), so a process that
compiles again and again does not keep every class it ever generated.
Each anchor carries a process-wide serial that is never reused
(``<name>__g<serial>``).  A forked worker pool draws a serial at fork time
(:func:`next_serial`); a class whose serial is above it was generated
after the fork and cannot resolve in those workers.  A
reused name could resolve to a stale class in an old fork image, which is
why serials only grow.
"""

from __future__ import annotations

import itertools
import weakref

_serials = itertools.count()
#: anchor name -> class, for as long as the class is alive
_anchors: weakref.WeakValueDictionary[str, type] = weakref.WeakValueDictionary()


def register_generated(cls: type) -> type:
    """Anchor ``cls`` in this module so its instances pickle by reference.

    The class keeps its ``__name__`` (used in generated source and error
    messages); only ``__module__``/``__qualname__`` are redirected.  Returns
    the class so the call composes with assignment.
    """
    serial = next(_serials)
    anchor = f"{cls.__name__}__g{serial}"
    cls.__module__ = __name__
    cls.__qualname__ = anchor
    cls.__generated_serial__ = serial
    _anchors[anchor] = cls
    return cls


def next_serial() -> int:
    """Draw a serial that no class will get: every class registered
    before has a smaller one, every class registered after a larger one."""
    return next(_serials)


def generated_serial(obj: object) -> int | None:
    """The anchor serial of a registered class; None for anything else."""
    if isinstance(obj, type) and obj.__module__ == __name__:
        return obj.__generated_serial__
    return None


def __getattr__(name: str) -> type:
    # pickle resolves ``<this module>.<anchor>`` through here
    try:
        return _anchors[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
