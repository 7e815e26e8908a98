"""Exception hierarchy shared across the package."""


class FlowSentinelError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FlowSentinelError):
    """Tensor or layer shapes do not line up."""


class ValidationError(FlowSentinelError):
    """An argument or data value violates a precondition."""


class ConfigurationError(FlowSentinelError):
    """A model or architecture configuration is unusable."""


class TaxonomyError(FlowSentinelError):
    """A raw label is not covered by the taxonomy, or a rule is malformed."""


class DatasetError(FlowSentinelError):
    """A data file cannot be read or contains invalid values."""


class SchemaError(DatasetError):
    """A data file's header does not match what was requested."""


class ModelStoreError(FlowSentinelError):
    """A model file cannot be written, read, or parsed."""
