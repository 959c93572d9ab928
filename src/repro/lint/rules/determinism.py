"""Determinism rules: no global RNG, no wall clocks, no set ordering.

The repo's headline invariant is bit-level reproducibility — span and
token stepping agree at 1e-9, parallel and serial runners emit
byte-identical artifacts, fault timelines are md5-seeded.  Each rule
here bans a construct that silently breaks that: module-level RNG
draws share hidden global state (REPRO101), wall-clock reads leak the
machine's time into results (REPRO102), and iterating a set hands the
simulation a hash-order-dependent event order (REPRO103).
"""

from __future__ import annotations

import ast

from ..core import FileContext, Rule

__all__ = ["UnseededRngRule", "WallClockRule", "SetIterationRule"]

#: numpy.random module-level samplers (legacy global-state API).  The
#: seeded object API — ``default_rng``/``Generator``/``RandomState``/
#: ``SeedSequence`` — is the sanctioned spelling and is not flagged.
_NP_GLOBAL = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "gumbel", "laplace",
    "lognormal", "multinomial", "multivariate_normal", "normal",
    "pareto", "permutation", "poisson", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
})

#: stdlib ``random`` module-level functions (shared Mersenne state).
_STDLIB_GLOBAL = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: Wall-clock reads, by dotted name.  ``time.perf_counter`` (a
#: monotonic duration clock that never lands in artifacts) stays legal.
_WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})


def _import_map(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted module/attribute it is bound to, for plain
    imports and from-imports (``import numpy as np`` -> np: numpy;
    ``from time import time`` -> time: time.time)."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return bound


def _dotted(node: ast.expr) -> list[str] | None:
    """``np.random.rand`` -> ["np", "random", "rand"]; None when the
    expression is not a plain dotted name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _resolve_call(func: ast.expr, bound: dict[str, str]) -> str | None:
    """The fully-qualified dotted name a call resolves to, or None."""
    parts = _dotted(func)
    if parts is None:
        return None
    head = bound.get(parts[0])
    if head is None:
        return None
    return ".".join([head, *parts[1:]])


class UnseededRngRule(Rule):
    code = "REPRO101"
    name = "unseeded-module-rng"
    description = (
        "module-level np.random.* / random.* calls draw from hidden "
        "global state; use a seeded np.random.default_rng / "
        "random.Random instance")
    scope = ("src/repro/",)

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        bound = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = _resolve_call(node.func, bound)
            if qualified is None:
                continue
            parts = qualified.split(".")
            if parts[:2] == ["numpy", "random"] and len(parts) == 3 \
                    and parts[2] in _NP_GLOBAL:
                yield ctx.finding(
                    self, node,
                    f"np.random.{parts[2]}() uses the global numpy RNG; "
                    "draw from a seeded np.random.default_rng(seed)")
            elif parts[0] == "random" and len(parts) == 2 \
                    and parts[1] in _STDLIB_GLOBAL:
                yield ctx.finding(
                    self, node,
                    f"random.{parts[1]}() uses the shared module RNG; "
                    "draw from a seeded random.Random(seed)")


class WallClockRule(Rule):
    code = "REPRO102"
    name = "wall-clock-read"
    description = (
        "wall-clock reads (time.time, datetime.now, …) leak machine "
        "time into deterministic code; use time.perf_counter for "
        "durations and pass timestamps in explicitly")
    scope = ("src/repro/",)

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        bound = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = _resolve_call(node.func, bound)
            if qualified in _WALL_CLOCKS:
                yield ctx.finding(
                    self, node,
                    f"{qualified}() reads the wall clock; use "
                    "time.perf_counter() for durations or take the "
                    "timestamp as a parameter")


_SET_NODES = (ast.Set, ast.SetComp)


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, _SET_NODES):
        return True
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "frozenset")


class SetIterationRule(Rule):
    code = "REPRO103"
    name = "set-iteration-order"
    description = (
        "iterating a bare set in engine/scheduling hot paths makes "
        "event order depend on hash seeds; wrap in sorted(...)")
    scope = ("src/repro/sim/",)

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield ctx.finding(
                        self, it,
                        "iteration over a set literal/constructor has "
                        "hash-order-dependent element order; iterate "
                        "sorted(...) or keep a list")
