"""Package re-exports that load their submodule on first access (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names makes every ``import repro.<package>.<module>`` pay for all of them:
``import repro.core.config`` would load the whole decoder. Instead a
package declares what it re-exports and from where::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.core.buzz": ("BuzzSystem",),
        "repro.phy.noise": ("awgn", "snr_db as measure_snr_db"),
    })

``from repro.core import BuzzSystem`` then imports ``repro.core.buzz``
at that moment and caches the name on the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of a package that re-exports
    ``exports`` (module → names; ``"name as alias"`` renames)."""
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            where[alias or name] = (module, name)

    def __getattr__(name: str) -> object:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, sorted(where)
