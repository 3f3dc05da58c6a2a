"""A lock-free compute-once attribute for immutable value objects.

:func:`functools.cached_property` takes a per-descriptor ``RLock`` on
every first access up to Python 3.11.  The job and task-graph
dataclasses compute their derived fields once per freshly materialized
object, hundreds of thousands of times per experiment, so that lock
dominated the first access.  :class:`lazy_property` has the Python 3.12
semantics instead: the getter runs on first access and its value is
stored in the instance ``__dict__`` under the same name.  Being a
non-data descriptor, the stored value then shadows it, so later reads
are plain attribute lookups.

Two threads racing on the first access may both run the getter; the
getters here are pure functions of frozen fields, so both store the
same value.  Frozen dataclasses allow the write because it bypasses
``__setattr__``; their ``__eq__`` and ``__hash__`` read the declared
fields only, so a cached value never changes equality or hashing.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Optional, TypeVar, overload

_T = TypeVar("_T")


class lazy_property(Generic[_T]):
    """Decorator: compute ``func(self)`` once, then store it on the instance."""

    def __init__(self, func: Callable[[Any], _T]) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    @overload
    def __get__(self, instance: None, owner: Optional[type] = None) -> lazy_property[_T]: ...

    @overload
    def __get__(self, instance: object, owner: Optional[type] = None) -> _T: ...

    def __get__(self, instance: Optional[object], owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        value = self.func(instance)
        instance.__dict__[self.name] = value
        return value
