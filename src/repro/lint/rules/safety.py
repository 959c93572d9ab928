"""General-safety rules: the slow-burn bug classes review keeps missing.

Mutable default arguments alias state across calls (REPRO601; ruff's
B006 is not selected by the repo's ruff gate).  Bare ``except:`` is
ruff's E722, which that gate does select, so it has no rule here.  The
two float rules are scoped and deliberately narrow: they flag equality
against a float literal only when the decimal text is *not exactly
representable* in binary (``x == 0.3`` can only pass by double-rounding
coincidence), while the repo's intentional bit-exact comparisons —
``span == token`` results, dyadic constants like ``0.5`` or ``1.0`` —
stay legal.  REPRO602 covers engine/perf-model code, REPRO604 covers
assertions under ``tests/`` (use ``pytest.approx`` / ``math.isclose``,
or a pragma for a genuinely bit-exact check).
"""

from __future__ import annotations

import ast
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from ..core import FileContext, Rule

__all__ = ["MutableDefaultRule", "FloatEqualitySimRule",
           "FloatAssertTestRule", "is_exact_float_literal"]


def is_exact_float_literal(text: str) -> bool:
    """True when the decimal literal ``text`` is exactly representable
    as a binary float — equality against it can be intentional.
    ``0.5``/``1.0``/``0.25`` pass; ``0.3``/``1e-9``/``3.333`` fail."""
    text = text.replace("_", "")
    try:
        exact = Fraction(Decimal(text))
    except (InvalidOperation, ValueError, OverflowError):
        return True  # not a plain decimal literal; stay quiet
    try:
        return Fraction(float(text)) == exact
    except (OverflowError, ValueError):
        return True


def _inexact_float_operands(ctx: FileContext, compare: ast.Compare):
    """Float-literal operands of an ==/!= comparison whose decimal text
    is not exactly representable."""
    ops = [compare.left, *compare.comparators]
    flags = [isinstance(op, (ast.Eq, ast.NotEq)) for op in compare.ops]
    for index, operand in enumerate(ops):
        # operand i participates in comparisons i-1 and i.
        involved = (index > 0 and flags[index - 1]) or \
            (index < len(flags) and flags[index])
        if isinstance(operand, ast.UnaryOp) \
                and isinstance(operand.op, (ast.USub, ast.UAdd)):
            operand = operand.operand
        if not involved or not isinstance(operand, ast.Constant) \
                or not isinstance(operand.value, float):
            continue
        text = ctx.source_segment(operand)
        if text is not None and not is_exact_float_literal(text):
            yield operand, text


class MutableDefaultRule(Rule):
    code = "REPRO601"
    name = "mutable-default-argument"
    description = (
        "list/dict/set default arguments are shared across calls; "
        "default to None (or a tuple) and build inside")

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults,
                        *(d for d in node.args.kw_defaults
                          if d is not None)]
            for default in defaults:
                mutable = isinstance(default, (
                    ast.List, ast.Dict, ast.Set, ast.ListComp,
                    ast.DictComp, ast.SetComp))
                if not mutable and isinstance(default, ast.Call) \
                        and isinstance(default.func, ast.Name) \
                        and default.func.id in ("list", "dict", "set"):
                    mutable = True
                if mutable:
                    yield ctx.finding(
                        self, default,
                        "mutable default argument is evaluated once "
                        "and shared across calls; default to None and "
                        "build inside the function")


class FloatEqualitySimRule(Rule):
    code = "REPRO602"
    name = "float-equality-sim"
    description = (
        "equality against a non-representable float literal in the "
        "engine/perf model can only hold by rounding coincidence")
    scope = ("src/repro/sim/", "src/repro/perfmodel/")

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand, text in _inexact_float_operands(ctx, node):
                yield ctx.finding(
                    self, operand,
                    f"float equality against {text} (not exactly "
                    "representable in binary); compare against a "
                    "tolerance or a dyadic constant")


class FloatAssertTestRule(Rule):
    code = "REPRO604"
    name = "tolerance-free-float-assert"
    description = (
        "test asserts equality against a non-representable float "
        "literal; use pytest.approx / math.isclose (or pragma a "
        "deliberate bit-exact check)")
    scope = ("tests/",)

    def check_file(self, ctx: FileContext):
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assert):
                continue
            for sub in ast.walk(node.test):
                if not isinstance(sub, ast.Compare):
                    continue
                for operand, text in _inexact_float_operands(ctx, sub):
                    yield ctx.finding(
                        self, operand,
                        f"assert compares against {text}, which no "
                        "float computation can hit exactly; use "
                        "pytest.approx / math.isclose or a dyadic "
                        "literal")
