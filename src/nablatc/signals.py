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
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .errors import NablaError

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
    "signal_from_values",
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


class CSVFormatError(NablaError):
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

    def offset_at(self, position: int) -> int:
        if position < 0 or position >= self.npoints:
            raise GridMismatch(f"position {position} outside storage [0, {self.npoints})")
        return position - self.history

    def covers(self, other: "Grid") -> bool:
        """Whether this grid contains every point of ``other`` (same base)."""
        return (
            self.a == other.a
            and self.history >= other.history
            and self.horizon >= other.horizon
        )


def _first_bad(grid: Grid, bad: np.ndarray, what: str) -> str:
    """Where the first rejected sample of a sequence on ``grid`` lies, and
    the horizon cap it sets.

    A sequence fails from some offset above its base point when it over-
    or underflows on a long horizon.  Sampled functions and every operator
    and solver output are causal, so every horizon short of that offset is
    admissible from the same base point.
    """
    offsets = grid.offsets()[bad]
    first = offsets[0]
    if first <= 0:
        # no horizon helps: name the failing offset nearest the base
        nearest = offsets[offsets <= 0][-1]
        return f" at lattice offset {nearest}, at or below the base point"
    return (
        f" from lattice offset {first}: this {what} admits a horizon of at "
        f"most {first - 1} from its base point"
    )


def _locked(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Signal:
    """Real sequence sampled on a grid."""

    grid: Grid
    values: np.ndarray

    #: What error messages call the sequence.
    _noun: ClassVar[str] = "signal"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _locked(self.values))
        noun = self._noun
        if len(self.values) != self.grid.npoints:
            raise GridMismatch(
                f"{noun} has {len(self.values)} samples, "
                f"grid holds {self.grid.npoints} points"
            )
        finite = np.isfinite(self.values)
        if not finite.all():
            raise NonFiniteSample(
                f"{noun} contains non-finite samples"
                + _first_bad(self.grid, ~finite, noun)
            )

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

    kind: str = "general"
    rate: float | None = None

    _noun: ClassVar[str] = "weight"

    def __post_init__(self) -> None:
        super().__post_init__()
        tiny = np.abs(self.values) < EPS_WEIGHT
        if tiny.any():
            raise ZeroWeight(
                f"weight magnitude below {EPS_WEIGHT}" + _first_bad(self.grid, tiny, "weight")
            )
        if self.kind not in ("general", "exponential"):
            raise GridMismatch(f"unknown weight kind {self.kind!r}")


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
            + _first_bad(grid, ~finite, "function")
        )
    return Signal(grid, vals)


def signal_from_values(grid: Grid, values: Sequence[float]) -> Signal:
    return Signal(grid, np.asarray(values, dtype=np.float64))


def make_weight(
    grid: Grid,
    *,
    rate: float | None = None,
    values: Sequence[float] | None = None,
    fn: Callable[[float], float] | None = None,
) -> Weight:
    """Build a weight from an exponential rate, explicit values, or a function.

    Exactly one of ``rate``, ``values``, ``fn`` must be given.  The
    exponential case ``w(k) = (1 - rate)^(k - a)`` is evaluated by repeated
    multiplication so neighbouring samples stay exactly proportional.
    """
    given = sum(x is not None for x in (rate, values, fn))
    if given != 1:
        raise ZeroWeight("make_weight needs exactly one of rate=, values=, fn=")
    if rate is not None:
        if rate == 1.0:
            raise BadRate("exponential weight rate 1 is excluded")
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
        return Weight(grid, vals, kind="exponential", rate=float(rate))
    if fn is not None:
        vals = _sample(grid, fn)
    else:
        vals = np.asarray(values, dtype=np.float64)
    return Weight(grid, vals, kind="general")


def scale_weight(w: Weight, lam_scale: float) -> Weight:
    """Pointwise-scaled weight; tempered operators are invariant under it."""
    lam = float(lam_scale)
    if not np.isfinite(lam) or lam == 0.0:
        raise ZeroScale(f"scale factor must be finite and nonzero, got {lam_scale}")
    if lam == 1.0:
        return w
    # Any other constant breaks w(a) = 1, so the exponential form is lost.
    # Weight rejects an overflowed product, so numpy stays silent about it.
    with np.errstate(over="ignore"):
        vals = w.values * lam
    return Weight(w.grid, vals, kind="general", rate=None)


# ---------------------------------------------------------------------------
# CSV interface: header "k,value", one row per lattice point, unit step.
# ---------------------------------------------------------------------------

_STEP_TOL = 1e-9


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
    steps = np.diff(k)
    if np.any(np.abs(steps - 1.0) > _STEP_TOL):
        bad = int(np.argmax(np.abs(steps - 1.0)))
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
