"""Exception hierarchy shared across the package."""


class FlowSentinelError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FlowSentinelError):
    """An argument, configuration, taxonomy or data file is unusable."""


class ModelStoreError(FlowSentinelError):
    """A model file cannot be written, read, or parsed."""
