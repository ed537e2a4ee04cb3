"""Plain-data views of dataclass trees, for hashing and JSON.

:func:`plain_data` gives the JSON of :func:`dataclasses.asdict` without
its cost: ``asdict`` deep-copies every leaf and re-reads each class's
field list on every call, which made it the largest part of addressing a
cached campaign cell. Nothing here is cached per object, only each
class's field names.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

__all__ = ["plain_data"]

_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Dataclass → its field names, in declaration order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def plain_data(obj: Any) -> Any:
    """``obj`` as dicts, lists and scalars; ``json.dumps`` of the result
    equals that of ``dataclasses.asdict(obj)``.

    Dataclass instances become dicts of their fields, tuples and lists
    become lists, and any other value is returned as it is (never
    copied).
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if isinstance(obj, (list, tuple)):
            return [plain_data(item) for item in obj]
        if not dataclasses.is_dataclass(obj):
            return obj
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(obj))
    return {name: plain_data(getattr(obj, name)) for name in names}
