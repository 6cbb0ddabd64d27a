"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names makes every process that touches any one submodule pay for all of
them: a serving worker that needs ``repro.nas.package`` would load the
whole search.  ``lazy_exports`` keeps the package's public names while
loading each submodule on the first access to one of its names.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".pipeline"``),
    to the names it defines that the package re-exports.  A loaded name
    is stored on the package, so later lookups are plain attribute reads.

    A re-exported name may equal a listed submodule's name
    (``repro.nn.checkpoint``, the function, lives in the submodule of
    that name).  Importing that submodule binds it onto the package,
    which would shadow the export; the package then binds the export in
    its place, as an eager ``from .checkpoint import checkpoint`` did.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def load(name: str) -> Any:
        return getattr(importlib.import_module(home[name], package), name)

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = load(name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    clashes = {name for name in home if "." + name in exports}
    if clashes:

        class Package(types.ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in clashes and isinstance(value, types.ModuleType):
                    value = load(name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package

    return __getattr__, __dir__, list(home)
