"""The built-in rules, as one ``RULES`` tuple the runner iterates.

=========  ===============================  =============================
code       rule                             family
=========  ===============================  =============================
REPRO101   unseeded-module-rng              determinism
REPRO102   wall-clock-read                  determinism
REPRO103   set-iteration-order              determinism
REPRO201   spec-must-freeze                 spec hygiene
REPRO501   schema-discipline                schema discipline
REPRO601   mutable-default-argument         general safety
REPRO602   float-equality-sim               general safety
REPRO604   tolerance-free-float-assert      general safety
REPRO700   unused-pragma                    (emitted by the runner)
REPRO900   parse-error                      (emitted by the runner)
=========  ===============================  =============================

A new rule is a :class:`~repro.lint.core.Rule` subclass plus one
instance appended here.
"""

from .determinism import SetIterationRule, UnseededRngRule, WallClockRule
from .safety import FloatAssertTestRule, FloatEqualitySimRule, \
    MutableDefaultRule
from .schema import SchemaPinRule
from .spec_hygiene import FrozenSpecRule

__all__ = ["RULES"]

RULES = (
    UnseededRngRule(),
    WallClockRule(),
    SetIterationRule(),
    FrozenSpecRule(),
    SchemaPinRule(),
    MutableDefaultRule(),
    FloatEqualitySimRule(),
    FloatAssertTestRule(),
)
