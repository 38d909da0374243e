"""Exception types shared across the package."""


class MarlabError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MarlabError):
    """Operands have incompatible dimensions."""


class ConfigError(MarlabError):
    """A configuration value is invalid or unknown."""


class MaskError(MarlabError):
    """An attention mask leaves some query row with no allowed key."""


class ContractError(MarlabError):
    """A caller violated an API precondition."""


class CapacityError(MarlabError):
    """An exact oracle was asked to enumerate an instance that is too large."""


class EpisodeOverError(MarlabError):
    """step() was called on an episode that already terminated."""


class CheckpointError(MarlabError):
    """A checkpoint file is truncated, malformed, or cannot be loaded exactly."""
