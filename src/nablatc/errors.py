"""Shared exception base for the library, and the batch-replay rule."""

from typing import Callable, Sequence


class NablaError(Exception):
    """Base class for every error raised by nablatc."""


class ConfigError(NablaError):
    """An option or environment setting is invalid (exit code 2 in ``nt``)."""


def batched(run: Callable[[Sequence], Sequence], items: Sequence) -> Sequence:
    """``run(items)``, one result per item, where ``run`` gives each item
    the bits of a batch of that item alone.  If the batch raises, whatever
    the error, each item runs alone, in order: the error raised is then the
    first failing item's own, and a batch that failed only as a whole
    returns every item's result.  A batch of 0 or 1 item is not rerun."""
    try:
        return run(items)
    except Exception:
        if len(items) < 2:
            raise
        return [run([item])[0] for item in items]
