"""Shared exception base for the library."""


class NablaError(Exception):
    """Base class for every error raised by nablatc."""


class ConfigError(NablaError):
    """An option or environment setting is invalid (exit code 2 in ``nt``)."""
