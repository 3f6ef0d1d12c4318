"""Mixed continuous/discrete/categorical search spaces and their unit-cube encoding.

Every parameter maps into a slice of a normalized real vector: continuous
values are min-max scaled, discrete values are embedded by normalized rank
(keeps distances meaningful when raw values span decades), and categorical
labels are one-hot encoded. All downstream consumers (the surrogate, the
genetic search genome, and the minimum-distance stop rule) operate on this
encoding. ``encode`` and ``decode`` convert a whole population at once, one
parameter at a time over all rows. ``encode`` validates the candidates it is
given; given encoded rows instead, such as a GA population, it snaps them as
``decode`` does and encodes the result by array arithmetic, with no candidate
built.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Sequence, Union

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
        try:
            return self.values.index(value)
        except ValueError:
            raise ValidationError(
                f"parameter {self.name!r}: {value!r} is not a listed value"
            ) from None


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


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: a full per-parameter assignment."""

    values: dict[str, Any]

    def __getitem__(self, name: str):
        return self.values[name]


def validate_candidate(space: SearchSpace, c: Candidate) -> None:
    """Raise ValidationError (naming the parameter) unless c fully matches space."""
    encode(space, c)


def encode(
    space: SearchSpace, c: Union[Candidate, Sequence[Candidate], np.ndarray]
) -> np.ndarray:
    """Map m candidates to (m, encoded_dim) rows in [0, 1], a single one to a vector.

    Each parameter is validated and encoded in one walk over the population; a
    mismatch raises ValidationError naming the parameter. An ndarray of rows
    (a 2-D matrix or one 1-D row) is not a candidate: it gives the encoding of
    its decoded candidates, ``encode(space, decode(space, G))`` bit for bit,
    by array arithmetic, with no ``Candidate`` built and no value validated.
    """
    if isinstance(c, np.ndarray):
        out = _encode_columns(space, _snapped(space, c))
        return out[0] if c.ndim == 1 else out
    if isinstance(c, Candidate):
        return encode(space, [c])[0]
    cands = list(c)
    extra = set().union(*(x.values for x in cands)) - set(space.names)
    if extra:
        raise ValidationError(f"parameter {sorted(extra)[0]!r}: not in the space")
    columns = []
    for p in space.params:
        try:
            col = [x.values[p.name] for x in cands]
        except KeyError:
            raise ValidationError(f"parameter {p.name!r}: missing from candidate") from None
        if isinstance(p, ContinuousParam):
            for v in col:
                if not (isinstance(v, numbers.Real) and np.isfinite(v) and p.lo <= v <= p.hi):
                    raise ValidationError(
                        f"parameter {p.name!r}: {v!r} is not a real number in [{p.lo}, {p.hi}]"
                    )
            columns.append(np.array(col, dtype=float))
        elif isinstance(p, DiscreteParam):
            columns.append(np.array([p.rank_of(v) for v in col], dtype=int))
        else:
            columns.append(np.array([p.index_of(v) for v in col], dtype=int))
    return _encode_columns(space, columns)


def _encode_columns(space: SearchSpace, columns: list[np.ndarray]) -> np.ndarray:
    """The encoding of one column per parameter: continuous values, discrete
    ranks or categorical label indices."""
    m = len(columns[0])
    out = np.zeros((m, space.encoded_dim))
    i = 0
    for p, col in zip(space.params, columns):
        if isinstance(p, ContinuousParam):
            out[:, i] = (col - p.lo) / (p.hi - p.lo)
        elif isinstance(p, DiscreteParam):
            out[:, i] = col / max(len(p.values) - 1, 1)
        else:
            out[np.arange(m), i + col] = 1.0
        i += p.encoded_width
    return out


def _snapped(space: SearchSpace, G: np.ndarray) -> list[np.ndarray]:
    """One column per parameter of the encoded rows G (one row or a matrix),
    snapped onto the parameter's domain by the rules ``decode`` states:
    continuous values, discrete ranks or categorical label indices.

    ValidationError unless the rows have the space's width and finite entries.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim not in (1, 2) or G.shape[-1] != space.encoded_dim:
        raise ValidationError(
            f"encoded rows have shape {G.shape}, expected width {space.encoded_dim}"
        )
    if not np.all(np.isfinite(G)):
        raise ValidationError("encoded vector entries must be finite")
    G = G.reshape(-1, space.encoded_dim)
    columns = []
    i = 0
    for p in space.params:
        if isinstance(p, ContinuousParam):
            columns.append(p.lo + np.clip(G[:, i], 0.0, 1.0) * (p.hi - p.lo))
        elif isinstance(p, DiscreteParam):
            t = np.clip(G[:, i], 0.0, 1.0)
            ranks = np.arange(len(p.values)) / max(len(p.values) - 1, 1)
            columns.append(np.argmin(np.abs(t[:, None] - ranks), axis=1))
        else:
            columns.append(np.argmax(G[:, i : i + len(p.labels)], axis=1))
        i += p.encoded_width
    return columns


def columns(space: SearchSpace, G: np.ndarray) -> dict[str, np.ndarray]:
    """Rows G decoded as ``decode`` does, one (m,) array per parameter name:
    continuous floats, discrete values, categorical labels (object array)."""
    return _columns(space, _snapped(space, G))


def _columns(space: SearchSpace, snapped: list[np.ndarray], exact: bool = False):
    """Decoded snapped columns; exact=True keeps discrete values' own objects."""
    out = {}
    for p, col in zip(space.params, snapped):
        if isinstance(p, ContinuousParam):
            out[p.name] = col
        else:
            table = p.values if isinstance(p, DiscreteParam) else p.labels
            kind = object if exact or isinstance(p, CategoricalParam) else None
            out[p.name] = np.asarray(table, dtype=kind)[col]
    return out


def _candidates(space: SearchSpace, snapped: list[np.ndarray]) -> list[Candidate]:
    values = [col.tolist() for col in _columns(space, snapped, exact=True).values()]
    return [Candidate(dict(zip(space.names, row))) for row in zip(*values)]


def decode(space: SearchSpace, G: np.ndarray) -> Union[Candidate, list[Candidate]]:
    """Map any finite rows of the right width back to valid candidates.

    An (m, encoded_dim) matrix gives a list of m candidates and a single
    (encoded_dim,) vector one candidate. Continuous entries are clamped into
    [0, 1] before rescaling; discrete entries snap to the nearest rank (ties
    to the lower rank); categorical blocks take the argmax (ties to the first
    label).
    """
    cands = _candidates(space, _snapped(space, G))
    return cands[0] if np.ndim(G) == 1 else cands


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
