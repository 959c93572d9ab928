"""Violates the spec-hygiene rule (REPRO201).

Linted with a synthetic ``src/repro/...`` relpath.
"""

from dataclasses import dataclass


@dataclass
class MutableSpec:                       # REPRO201: missing frozen=True
    bits: int = 4


@dataclass(frozen=False)
class ThawedSpec:                        # REPRO201: frozen explicitly off
    bits: int = 4
