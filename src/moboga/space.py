"""Mixed continuous/discrete/categorical search spaces and their unit-cube encoding.

Every parameter maps into a slice of a normalized real vector: continuous
values are min-max scaled, discrete values are embedded by normalized rank
(keeps distances meaningful when raw values span decades), and categorical
labels are one-hot encoded. All downstream consumers (the surrogate, the
genetic search genome, and the minimum-distance stop rule) operate on this
encoding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

import numpy as np


class ValidationError(ValueError):
    """A space, candidate, or encoded vector violates its contract."""


@dataclass(frozen=True)
class ContinuousParam:
    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError(f"parameter {self.name!r}: bounds must be finite")
        if not self.lo < self.hi:
            raise ValidationError(
                f"parameter {self.name!r}: lo ({self.lo}) must be < hi ({self.hi})"
            )

    @property
    def encoded_width(self) -> int:
        return 1


@dataclass(frozen=True)
class DiscreteParam:
    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 1:
            raise ValidationError(f"parameter {self.name!r}: needs at least one value")
        if any(not np.isfinite(v) for v in self.values):
            raise ValidationError(f"parameter {self.name!r}: values must be finite")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValidationError(
                f"parameter {self.name!r}: values must be strictly increasing"
            )

    @property
    def encoded_width(self) -> int:
        return 1

    def rank_of(self, value) -> int:
        for i, v in enumerate(self.values):
            if v == value:
                return i
        raise ValidationError(
            f"parameter {self.name!r}: {value!r} is not a listed value"
        )


@dataclass(frozen=True)
class CategoricalParam:
    name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 1:
            raise ValidationError(f"parameter {self.name!r}: needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"parameter {self.name!r}: labels must be unique")

    @property
    def encoded_width(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(
                f"parameter {self.name!r}: {label!r} is not a listed label"
            ) from None


ParamSpec = Union[ContinuousParam, DiscreteParam, CategoricalParam]


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[ParamSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if not self.params:
            raise ValidationError("search space needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValidationError("parameter names must be unique")

    @property
    def encoded_dim(self) -> int:
        return sum(p.encoded_width for p in self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise ValidationError(f"unknown parameter {name!r}")


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a full per-parameter assignment."""

    values: dict[str, Any]

    def __getitem__(self, name: str):
        return self.values[name]


def validate_candidate(space: SearchSpace, c: Candidate) -> None:
    """Raise ValidationError (naming the parameter) unless c fully matches space."""
    extra = set(c.values) - set(space.names)
    if extra:
        raise ValidationError(f"parameter {sorted(extra)[0]!r}: not in the space")
    for p in space.params:
        if p.name not in c.values:
            raise ValidationError(f"parameter {p.name!r}: missing from candidate")
        v = c.values[p.name]
        if isinstance(p, ContinuousParam):
            if not (np.isreal(v) and np.isfinite(v) and p.lo <= v <= p.hi):
                raise ValidationError(
                    f"parameter {p.name!r}: {v!r} outside [{p.lo}, {p.hi}]"
                )
        elif isinstance(p, DiscreteParam):
            p.rank_of(v)
        else:
            p.index_of(v)


def encode(space: SearchSpace, c: Candidate) -> np.ndarray:
    """Map a candidate to its normalized vector in [0, 1]^encoded_dim."""
    validate_candidate(space, c)
    out = np.empty(space.encoded_dim)
    i = 0
    for p in space.params:
        v = c.values[p.name]
        if isinstance(p, ContinuousParam):
            out[i] = (v - p.lo) / (p.hi - p.lo)
            i += 1
        elif isinstance(p, DiscreteParam):
            n = len(p.values)
            out[i] = 0.0 if n == 1 else p.rank_of(v) / (n - 1)
            i += 1
        else:
            block = np.zeros(len(p.labels))
            block[p.index_of(v)] = 1.0
            out[i : i + len(p.labels)] = block
            i += len(p.labels)
    return out


def decode(space: SearchSpace, v: np.ndarray) -> Candidate:
    """Map any finite vector of the right length back to a valid candidate.

    Continuous entries are clamped into [0, 1] before rescaling; discrete
    entries snap to the nearest rank (ties to the lower rank); categorical
    blocks take the argmax (ties to the first label).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.encoded_dim,):
        raise ValidationError(
            f"encoded vector has length {v.shape}, expected ({space.encoded_dim},)"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError("encoded vector entries must be finite")
    values: dict[str, Any] = {}
    i = 0
    for p in space.params:
        if isinstance(p, ContinuousParam):
            t = min(max(float(v[i]), 0.0), 1.0)
            values[p.name] = p.lo + t * (p.hi - p.lo)
            i += 1
        elif isinstance(p, DiscreteParam):
            n = len(p.values)
            if n == 1:
                values[p.name] = p.values[0]
            else:
                t = min(max(v[i], 0.0), 1.0)
                ranks = np.arange(n) / (n - 1)
                values[p.name] = p.values[int(np.argmin(np.abs(t - ranks)))]
            i += 1
        else:
            block = v[i : i + len(p.labels)]
            values[p.name] = p.labels[int(np.argmax(block))]
            i += len(p.labels)
    return Candidate(values)


def sample_uniform(space: SearchSpace, rng: np.random.Generator) -> Candidate:
    """Draw each parameter independently and uniformly over its own domain."""
    values: dict[str, Any] = {}
    for p in space.params:
        if isinstance(p, ContinuousParam):
            values[p.name] = float(rng.uniform(p.lo, p.hi))
        elif isinstance(p, DiscreteParam):
            values[p.name] = p.values[int(rng.integers(len(p.values)))]
        else:
            values[p.name] = p.labels[int(rng.integers(len(p.labels)))]
    return Candidate(values)
