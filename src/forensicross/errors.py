"""Domain errors shared across the case-lifecycle modules."""
from __future__ import annotations


class ForensicrossError(Exception):
    pass


class UnknownCase(ForensicrossError):
    pass


class DuplicateCase(ForensicrossError):
    pass


class NoDestinations(ForensicrossError):
    pass


class NonParticipant(ForensicrossError):
    pass


class FutureStage(ForensicrossError):
    pass


class StaleStage(ForensicrossError):
    pass


class DoubleVote(ForensicrossError):
    pass


class ProposalAlreadyOpen(ForensicrossError):
    pass


class UnknownUser(ForensicrossError):
    pass


class EmptyDestinations(ForensicrossError):
    pass


class InvalidDestinations(ForensicrossError):
    """Destinations that name the source chain, repeat a chain or name no
    organization chain."""


class NotChainAuthority(ForensicrossError):
    """A request only a chain's contract may sign, signed by another key."""


class UnexpectedKind(ForensicrossError):
    """A validated origin of a kind its receiving side has no handler for."""


class MalformedPolicy(ForensicrossError):
    pass


class NotQueryNode(ForensicrossError):
    pass


class MalformedBundle(ForensicrossError):
    pass


class InvalidTopology(ForensicrossError):
    pass


class ScenarioError(ForensicrossError):
    pass
