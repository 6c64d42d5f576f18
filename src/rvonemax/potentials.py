"""Potential functions used to measure progress of a search trajectory.

Three potentials are supported: the Hamming distance to the target (number
of wrong components), the fitness itself, and an exponentially weighted sum
that gives each component a weight exponential in how far it is from its
target value. All three are zero exactly at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import ProblemInstance, component_distances, hamming_distance, fitness

# Largest base:=1+eps with eps - e*eps^2 still safely positive, so the
# unit-step drift stays multiplicative for both RLS and the (1+1) EA.
DEFAULT_EXP_BASE = 1.25


@dataclass(frozen=True)
class Potential:
    """Identifier of a potential function; exp_weight carries its base."""

    kind: str  # "hamming" | "fitness" | "exp_weight"
    base: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hamming", "fitness", "exp_weight"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "exp_weight":
            if self.base is None:
                object.__setattr__(self, "base", DEFAULT_EXP_BASE)
            if not (1.0 < self.base <= 2.0):
                raise ValueError(f"exp_weight base must lie in (1, 2], got {self.base}")
        elif self.base is not None:
            raise ValueError(f"potential {self.kind!r} takes no base parameter")

    @classmethod
    def hamming(cls) -> "Potential":
        return cls("hamming")

    @classmethod
    def fitness(cls) -> "Potential":
        return cls("fitness")

    @classmethod
    def exp_weight(cls, base: float = DEFAULT_EXP_BASE) -> "Potential":
        return cls("exp_weight", base)

    @classmethod
    def parse(cls, name: str) -> "Potential":
        key = name.strip().lower()
        if key == "hamming":
            return cls.hamming()
        if key == "fitness":
            return cls.fitness()
        if key == "expweight" or key == "exp_weight":
            return cls.exp_weight()
        if key.startswith("expweight:") or key.startswith("exp_weight:"):
            return cls.exp_weight(float(key.split(":", 1)[1]))
        raise ValueError(f"unknown potential {name!r}")

    @property
    def label(self) -> str:
        if self.kind == "exp_weight":
            return f"exp_weight:{self.base:g}"
        return self.kind


def potential_value(pot: Potential, instance: ProblemInstance, x):
    """Evaluate a potential at a search point; zero iff x equals the target.

    x is one point (returns a float) or an (S, n) array of rows (returns a
    float64 array of S values); one point is scored as a one-row array.
    """
    if np.ndim(x) == 1:
        return float(potential_value(pot, instance, np.asarray(x)[None])[0])
    if pot.kind == "fitness":
        return fitness(instance, x).astype(np.float64)
    if pot.kind == "hamming":
        return hamming_distance(x, instance.target).astype(np.float64)
    d = component_distances(instance.metric, x, instance.target, instance.params.r)
    return (pot.base ** d.astype(np.float64) - 1.0).sum(axis=1)
