"""Spec-hygiene rule satisfied: frozen specs."""

from dataclasses import dataclass


@dataclass(frozen=True)
class TidySpec:
    bits: int = 4


# Not a dataclass at all: the *Spec naming rule only covers dataclasses.
class PlainSpec:
    pass
