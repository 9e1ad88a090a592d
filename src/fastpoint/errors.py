"""Errors shared across modules. A module-specific error stays in its
module; one that several modules raise, or that a caller catches from
more than one source, is defined here once."""


class ConfigError(ValueError):
    """A configuration, or a checkpoint built for another configuration,
    that the pipeline cannot run."""


class ShapeMismatch(ValueError):
    """Array or tensor operands whose shapes do not fit together."""


class EmptyProposal(ValueError):
    """A proposal with no points to refine."""
