"""Grids, sampled signals, and tempered weight sequences.

A :class:`Grid` is the integer-shifted lattice ``{a - history, ..., a,
a+1, ..., a + horizon}``.  Index arithmetic runs on integer offsets from the
base point ``a``, so a real-valued ``a`` never introduces floating drift
into indexing.  Signals and weights are immutable after construction and
freely shareable.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable

import numpy as np

from .errors import ConfigError, NablaError

__all__ = [
    "EPS_WEIGHT",
    "Grid",
    "Signal",
    "Weight",
    "NonFiniteSample",
    "ZeroWeight",
    "BadRate",
    "ZeroScale",
    "GridMismatch",
    "CSVFormatError",
    "make_signal_from_fn",
    "make_weight",
    "scale_weight",
    "read_signal_csv",
    "read_weight_csv",
    "write_signal_csv",
]

#: Smallest admissible weight magnitude; anything below is treated as zero.
EPS_WEIGHT = 1e-300


class NonFiniteSample(NablaError):
    """A sampled value is NaN or infinite."""


class ZeroWeight(NablaError):
    """A tempered weight value fell below the zero threshold."""


class BadRate(NablaError):
    """Exponential weight rate of 1 collapses the weight to zero."""


class ZeroScale(NablaError):
    """Weight scaling factor must be nonzero and finite."""


class GridMismatch(NablaError):
    """Two objects that must share a lattice do not."""


class CSVFormatError(ConfigError):
    """Signal CSV is malformed (bad header, non-unit step, or gaps)."""


@dataclass(frozen=True)
class Grid:
    """Lattice ``{a - history, ..., a, a+1, ..., a + horizon}``.

    ``history`` counts the points stored strictly below the base point;
    the base point itself is always present.
    """

    a: float
    history: int
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise GridMismatch(f"grid horizon must be >= 1, got {self.horizon}")
        if self.history < 0:
            raise GridMismatch(f"grid history must be >= 0, got {self.history}")

    @property
    def npoints(self) -> int:
        return self.history + self.horizon + 1

    def offsets(self) -> np.ndarray:
        return np.arange(-self.history, self.horizon + 1)

    def k_values(self) -> np.ndarray:
        return self.a + self.offsets().astype(np.float64)

    def position(self, offset: int) -> int:
        """Storage index of lattice offset ``k - a``."""
        if offset < -self.history or offset > self.horizon:
            raise GridMismatch(
                f"offset {offset} outside grid [{-self.history}, {self.horizon}]"
            )
        return offset + self.history

    def covers(self, other: "Grid") -> bool:
        """Whether this grid contains every point of ``other`` (same base)."""
        return (
            self.a == other.a
            and self.history >= other.history
            and self.horizon >= other.horizon
        )


def _first_bad(first_offset: int, bad: np.ndarray, what: str) -> str:
    """Where the first rejected sample of a sequence whose entry 0 sits at
    lattice offset ``first_offset`` lies, and the horizon cap it sets.

    A sequence fails from some offset above its base point when it over-
    or underflows on a long horizon.  Sampled functions and every operator
    and solver output are causal, so every horizon short of that offset is
    admissible from the same base point.
    """
    offsets = np.flatnonzero(bad) + first_offset
    first = offsets[0]
    if first <= 0:
        # no horizon helps: name the failing offset nearest the base
        nearest = offsets[offsets <= 0][-1]
        return f" at lattice offset {nearest}, at or below the base point"
    if first == 1:
        # a horizon is at least 1, so none helps here either
        return (
            " at lattice offset 1, the first point past the base point, "
            "which every horizon reaches"
        )
    return (
        f" from lattice offset {first}: this {what} admits a horizon of at "
        f"most {first - 1} from its base point"
    )


def _locked(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.setflags(write=False)
    return arr


def _require_finite(values: np.ndarray, first_offset: int, noun: str = "signal") -> None:
    """Raise :class:`NonFiniteSample` unless every entry of ``values`` is
    finite; entry 0 sits at lattice offset ``first_offset``, and the message
    names the first bad offset as a :class:`Signal` of that noun would."""
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteSample(
            f"{noun} contains non-finite samples" + _first_bad(first_offset, ~finite, noun)
        )


@dataclass(frozen=True)
class Signal:
    """Real sequence sampled on a grid."""

    grid: Grid
    values: np.ndarray

    #: What error messages call the sequence.
    _noun: ClassVar[str] = "signal"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _locked(self.values))
        self._validate()

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> Signal:
        """A sequence that takes ``values`` over without copying it: a fresh
        float64 array that nothing else holds, locked and validated in
        place."""
        values.setflags(write=False)
        sig = object.__new__(cls)
        object.__setattr__(sig, "grid", grid)
        object.__setattr__(sig, "values", values)
        sig._validate()
        return sig

    def _validate(self) -> None:
        noun = self._noun
        if len(self.values) != self.grid.npoints:
            raise GridMismatch(
                f"{noun} has {len(self.values)} samples, "
                f"grid holds {self.grid.npoints} points"
            )
        _require_finite(self.values, -self.grid.history, noun)

    def at(self, offset: int) -> float:
        return float(self.values[self.grid.position(offset)])

    def window(self, first_offset: int, last_offset: int) -> np.ndarray:
        """Values at offsets ``first..last`` inclusive (read-only view)."""
        return self.values[
            self.grid.position(first_offset) : self.grid.position(last_offset) + 1
        ]

    @property
    def body(self) -> np.ndarray:
        """Values on the evaluation window ``{a+1, ..., a+horizon}``."""
        return self.window(1, self.grid.horizon)


@dataclass(frozen=True)
class Weight(Signal):
    """Nonzero tempering sequence on the full extended grid.

    The weight is stored on every grid point, including history, because
    the boundary terms of the operator identities evaluate ``w`` at and
    below the base point.
    """

    _noun: ClassVar[str] = "weight"

    def _validate(self) -> None:
        super()._validate()
        tiny = np.abs(self.values) < EPS_WEIGHT
        if tiny.any():
            raise ZeroWeight(
                f"weight magnitude below {EPS_WEIGHT}"
                + _first_bad(-self.grid.history, tiny, "weight")
            )


def _sample(grid: Grid, f: Callable[[float], float]) -> np.ndarray:
    """``f`` at every lattice point, in one pass.

    ``f`` receives each point as a numpy float64, so numpy's scalar rules
    apply inside it: an overflowing power is inf rather than a Python
    ``OverflowError``.  Both callers reject a non-finite sample right
    afterwards, so numpy stays silent about the overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fromiter(map(f, grid.k_values()), np.float64, grid.npoints)


def make_signal_from_fn(grid: Grid, f: Callable[[float], float]) -> Signal:
    """Sample ``f`` pointwise at every lattice point of the grid."""
    vals = _sample(grid, f)
    finite = np.isfinite(vals)
    if not finite.all():
        raise NonFiniteSample(
            "sampled function returned a non-finite value"
            + _first_bad(-grid.history, ~finite, "function")
        )
    return Signal._adopt(grid, vals)


def _check_rate(rate: float) -> None:
    """Reject the exponential rates no weight is built from: 1, and a
    non-finite rate.  The transform checks call this before their region
    tests, so a bad rate reads the same whatever the point."""
    if rate == 1.0:
        raise BadRate("exponential weight rate 1 is excluded")
    if not np.isfinite(rate):
        raise BadRate(f"exponential weight rate must be finite, got {rate}")


def make_weight(
    grid: Grid,
    *,
    rate: float | None = None,
    fn: Callable[[float], float] | None = None,
) -> Weight:
    """Build a weight from an exponential rate or a function (for explicit
    values, construct :class:`Weight` directly).

    Exactly one of ``rate`` and ``fn`` must be given.  The exponential case
    ``w(k) = (1 - rate)^(k - a)`` is evaluated by repeated multiplication so
    neighbouring samples stay exactly proportional.
    """
    if (rate is None) == (fn is None):
        raise ZeroWeight("make_weight needs exactly one of rate=, fn=")
    if rate is not None:
        _check_rate(rate)
        base = 1.0 - float(rate)
        vals = np.full(grid.npoints, base)
        pos0 = grid.position(0)
        vals[pos0] = 1.0
        # the accumulations run strictly outward from the base point, one
        # multiplication (division below it) per step; Weight rejects an
        # over- or underflowed sample, so numpy stays silent about it
        with np.errstate(over="ignore"):
            np.multiply.accumulate(vals[pos0:], out=vals[pos0:])
            below = vals[pos0::-1]
            np.divide.accumulate(below, out=below)
        return Weight._adopt(grid, vals)
    return Weight._adopt(grid, _sample(grid, fn))


def scale_weight(w: Weight, lam_scale: float) -> Weight:
    """Pointwise-scaled weight; tempered operators are invariant under it."""
    lam = float(lam_scale)
    if not np.isfinite(lam) or lam == 0.0:
        raise ZeroScale(f"scale factor must be finite and nonzero, got {lam_scale}")
    if lam == 1.0:
        return w
    # Weight rejects an overflowed product, so numpy stays silent about it
    with np.errstate(over="ignore"):
        vals = w.values * lam
    return Weight(w.grid, vals)


# ---------------------------------------------------------------------------
# CSV interface: header "k,value", one row per lattice point, unit step.
# ---------------------------------------------------------------------------

_STEP_TOL = 1e-9


def _nonunit_step(k: np.ndarray) -> int | None:
    """Index of the step of ``k`` farthest from 1 (a NaN step first), or
    None when all are 1 within ``_STEP_TOL`` (the unit-step test of CSV
    files and ``nt --a``)."""
    dev = np.abs(np.diff(k) - 1.0)
    return None if (dev <= _STEP_TOL).all() else int(np.argmax(dev))


def _atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so no partial file survives an error."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        # name the requested file, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_grid_csv(path: str, history: int) -> tuple[Grid, np.ndarray]:
    """The grid and values of a ``k,value`` file whose row at index
    ``history`` is the base point."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CSVFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["k", "value"]:
            raise CSVFormatError(f"{path}: expected header 'k,value', got {header!r}")
        ks: list[float] = []
        vs: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CSVFormatError(f"{path}:{lineno}: expected two columns")
            try:
                ks.append(float(row[0]))
                vs.append(float(row[1]))
            except ValueError as exc:
                raise CSVFormatError(f"{path}:{lineno}: {exc}") from None
    if len(ks) < 2:
        raise CSVFormatError(f"{path}: need at least two rows")
    k = np.asarray(ks)
    bad = _nonunit_step(k)
    if bad is not None:
        raise CSVFormatError(
            f"{path}: non-unit step between k={k[bad]} and k={k[bad + 1]}"
        )
    if history < 0 or history >= len(k) - 1:
        raise CSVFormatError(
            f"{path}: history {history} incompatible with {len(k)} rows"
        )
    grid = Grid(a=float(k[history]), history=history, horizon=len(k) - history - 1)
    return grid, np.asarray(vs)


def read_signal_csv(path: str, history: int = 0) -> Signal:
    """Load a signal; the row at index ``history`` becomes the base point."""
    return Signal(*_read_grid_csv(path, history))


def read_weight_csv(path: str, history: int = 0) -> Weight:
    """Load a weight, as :func:`read_signal_csv` loads a signal."""
    return Weight(*_read_grid_csv(path, history))


def write_signal_csv(path: str, sig: Signal, *, include_history: bool = False) -> None:
    """Write ``k,value`` rows (shortest round-trip decimals) atomically.

    By default only the evaluation window ``a+1..a+horizon`` is written,
    which is what operator outputs are defined on; ``include_history``
    dumps the whole grid.
    """
    first = -sig.grid.history if include_history else 1
    lines = ["k,value"]
    for m in range(first, sig.grid.horizon + 1):
        k = sig.grid.a + m
        lines.append(f"{k!r},{sig.at(m)!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")
