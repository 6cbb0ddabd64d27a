"""User-facing region annotation (§6.1).

The paper gives two compiler directives that mark the boundary of the code
region to approximate.  The Python analogue is the :func:`code_region`
decorator: it marks a function as the replaceable region and attaches the
metadata the rest of the pipeline needs (name, QoI hint, the code that runs
*after* the region for liveness analysis).

Example::

    @code_region(name="pcg_solver", live_after=("x",))
    def solve(A, b, x0):
        ...
        return x

:class:`RegionSpec` is also the one place the region's contract is
decided: the names its final ``return`` gives (:func:`returned_names`),
its live-after set (:func:`resolve_live`) and the mapping of a raw return
value onto those names (:func:`name_outputs`).  The extractor, the static
analyzer, the applications and §7.1's fallback all read them from here.
A spec resolves each from the region's source at most once per process,
on first use, so decorating a region parses nothing.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "code_region", "RegionSpec", "get_region_spec", "function_ast",
    "returned_names", "resolve_live", "name_outputs",
]

_ATTR = "__autohpcnet_region__"


@dataclass(frozen=True)
class RegionSpec:
    """Metadata attached to an annotated code region."""

    name: str
    fn: Callable
    live_after: tuple[str, ...] = ()
    continuation_source: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("code region needs a non-empty name")
        if self.continuation_source is not None:
            try:
                ast.parse(textwrap.dedent(self.continuation_source))
            except SyntaxError as exc:
                raise ValueError(
                    f"code region {self.name!r}: continuation_source is not "
                    f"valid Python ({exc.msg} at line {exc.lineno}); pass the "
                    "source text of the code that runs after the region"
                ) from None

    @cached_property
    def returns(self) -> tuple[str, ...]:
        """Names the region's final ``return`` gives, in order."""
        return returned_names(function_ast(self.fn))

    @cached_property
    def live(self) -> frozenset[str]:
        """Variables live after the region (:func:`resolve_live`)."""
        return frozenset(
            resolve_live(self.live_after, self.continuation_source, self.returns) or ()
        )


def function_ast(fn: Callable) -> ast.FunctionDef | ast.AsyncFunctionDef:
    """The definition AST of a live function, its line numbers as in its file."""
    source, first_line = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(source)))
    ast.increment_lineno(tree, first_line - 1)
    return next(
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def returned_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Names returned by a function definition's final ``return``.

    ``return x`` -> ("x",); ``return x, r`` -> ("x", "r");
    ``return {"x": x, "r": r}`` -> ("x", "r").  Any other expression
    names nothing: ().
    """
    returns = [
        n for n in ast.walk(func)
        if isinstance(n, ast.Return) and n.value is not None
    ]
    if not returns:
        return ()
    # the textually last one: ast.walk goes breadth first
    value = max(returns, key=lambda n: (n.lineno, n.col_offset)).value
    if isinstance(value, ast.Name):
        return (value.id,)
    if isinstance(value, ast.Tuple) and all(isinstance(e, ast.Name) for e in value.elts):
        return tuple(e.id for e in value.elts)
    if isinstance(value, ast.Dict) and all(
        isinstance(k, ast.Constant) and isinstance(k.value, str) for k in value.keys
    ):
        return tuple(k.value for k in value.keys)
    return ()


def resolve_live(
    live_after: Optional[Sequence[str]],
    continuation_source: Optional[str],
    returns: Sequence[str],
) -> Optional[tuple[str, ...]]:
    """A region's live-after set, by the one precedence every analysis uses.

    The directive's ``live_after`` first; else the live-in set of
    ``continuation_source`` (:func:`repro.extract.liveness.live_in`); else
    the names of the final ``return``.  ``None`` when none of them names
    anything.  A continuation that does not parse raises ``SyntaxError``.
    """
    if live_after:
        return tuple(live_after)
    if continuation_source:
        from .liveness import live_in

        return tuple(sorted(live_in(continuation_source)))
    return tuple(returns) or None


def name_outputs(raw: Any, names: Sequence[str]) -> dict[str, Any]:
    """Map a region's raw return value onto its output names.

    A mapping passes through, a tuple pairs with ``names`` by position and
    a lone value takes the first name.  A tuple whose length differs from
    ``names``, or a lone value with no name, raises ``ValueError``.
    """
    if isinstance(raw, Mapping):
        return dict(raw)
    if isinstance(raw, tuple):
        if len(raw) != len(names):
            raise ValueError(
                f"region returned {len(raw)} values but "
                f"{len(names)} output names are known"
            )
        return dict(zip(names, raw))
    if not names:
        raise ValueError(
            "could not infer output names from the region's return "
            "statement; return named variables or pass output_names"
        )
    return {names[0]: raw}


def code_region(
    name: str,
    *,
    live_after: Sequence[str] = (),
    continuation_source: Optional[str] = None,
    description: str = "",
) -> Callable[[Callable], Callable]:
    """Mark a function as the to-be-replaced code region.

    ``live_after`` names the variables the application reads after the
    region (the paper derives this via liveness analysis over the rest of
    the program; callers may alternatively pass ``continuation_source`` —
    the source text of the code following the region — and let
    :mod:`repro.extract.liveness` compute the live set).
    """

    def decorate(fn: Callable) -> Callable:
        spec = RegionSpec(
            name=name,
            fn=fn,
            live_after=tuple(live_after),
            continuation_source=continuation_source,
            description=description,
        )
        setattr(fn, _ATTR, spec)
        return fn

    return decorate


def get_region_spec(fn: Callable) -> RegionSpec:
    """Retrieve the :class:`RegionSpec` attached by :func:`code_region`."""
    spec = getattr(fn, _ATTR, None)
    if spec is None:
        raise ValueError(
            f"{getattr(fn, '__name__', fn)!r} is not an annotated code region; "
            "decorate it with @code_region(...)"
        )
    return spec
