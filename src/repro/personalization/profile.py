"""User profiles: stored weight sets and default constraints (paper §3.1).

    "Multiple sets of weights corresponding to different user profiles
    may be stored in the system. Using user-specific weights allows
    generating personalized answers. [...] Similarly to weights,
    constraints may be specified at query time by the user, or be
    pre-specified by a designer, or may be stored as part of a user's
    profile."

A :class:`Profile` bundles edge-weight overrides (keyed by schema-graph
edge keys) with optional default degree/cardinality constraints. The
précis engine overlays the profile's weights on its base graph per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..core.constraints import CardinalityConstraint, DegreeConstraint
from ..graph.overlay import WeightOverlay
from ..graph.schema_graph import GraphError, SchemaGraph

__all__ = ["Profile", "ProfileRegistry"]

_FORMAT_VERSION = 1


@dataclass
class Profile:
    """A named personalization profile."""

    name: str
    #: edge key -> weight override; keys are ("proj", rel, attr) or
    #: ("join", src, dst) — see SchemaGraph.with_weights
    weights: dict[tuple, float] = field(default_factory=dict)
    degree: Optional[DegreeConstraint] = None
    cardinality: Optional[CardinalityConstraint] = None
    description: str = ""

    # ------------------------------------------------------------ builders

    def set_projection_weight(
        self, relation: str, attribute: str, weight: float
    ) -> "Profile":
        self.weights[("proj", relation, attribute)] = weight
        return self

    def set_join_weight(self, source: str, target: str, weight: float) -> "Profile":
        self.weights[("join", source, target)] = weight
        return self

    # ------------------------------------------------------------ applying

    def personalize(self, graph: SchemaGraph) -> SchemaGraph:
        """*graph* seen through this profile's weights.

        Historically a full graph clone; now a copy-on-write
        :class:`~repro.graph.overlay.WeightOverlay` sharing *graph* —
        O(overrides) memory instead of O(edges), so a million stored
        profiles cost a million sparse patch maps, not a million
        graphs. Reads are equivalent by the overlay oracle; the base
        graph is never touched. A profile without weights returns
        *graph* itself, as before.
        """
        if not self.weights:
            return graph
        return self.overlay(graph)

    def overlay(self, graph: SchemaGraph) -> WeightOverlay:
        """This profile's weights as an explicit overlay over *graph*
        (even when empty — useful when the caller wants a uniform
        type). Raises :class:`~repro.graph.schema_graph.GraphError` if
        any override names an edge *graph* does not have."""
        return WeightOverlay(graph, self.weights)

    def merged_with(self, other: "Profile", name: Optional[str] = None) -> "Profile":
        """A new profile: *other*'s entries override this one's.

        Useful for layering a user profile over a designer default.
        """
        return Profile(
            name=name or f"{self.name}+{other.name}",
            weights={**self.weights, **other.weights},
            degree=other.degree or self.degree,
            cardinality=other.cardinality or self.cardinality,
            description=other.description or self.description,
        )

    # ------------------------------------------------------------ serde

    def to_dict(self) -> dict:
        """JSON-compatible snapshot: edge keys become 3-element lists,
        constraints become ``{"type", "args"}`` records. Inverse of
        :meth:`from_dict`; the round trip preserves the overlay the
        profile produces (same canonical patches, same fingerprint)."""
        return {
            "version": _FORMAT_VERSION,
            "name": self.name,
            "weights": [
                [list(key), weight]
                for key, weight in sorted(self.weights.items())
            ],
            "degree": _encode_constraint(self.degree),
            "cardinality": _encode_constraint(self.cardinality),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        """Rebuild a profile serialized by :meth:`to_dict`."""
        if data.get("version") != _FORMAT_VERSION:
            raise GraphError(
                f"unsupported profile format version {data.get('version')!r}"
            )
        weights: dict[tuple, float] = {}
        for key, weight in data.get("weights", ()):
            key = tuple(key)
            if len(key) != 3 or key[0] not in ("proj", "join"):
                raise GraphError(f"bad edge key {key!r} in profile document")
            weights[key] = float(weight)
        return cls(
            name=data["name"],
            weights=weights,
            degree=_decode_constraint(data.get("degree")),
            cardinality=_decode_constraint(data.get("cardinality")),
            description=data.get("description", ""),
        )

    def __repr__(self):
        return (
            f"Profile({self.name!r}, {len(self.weights)} weight overrides)"
        )


def _encode_constraint(constraint) -> Optional[dict]:
    """Encode a degree/cardinality constraint as ``{"type", "args"}``.

    Covers every constraint whose init fields are scalars or nested
    constraint tuples (all the designer-facing ones); anything carrying
    live state (e.g. a field holding a request's
    :class:`~repro.core.deadline.Deadline`) is rejected — deadlines
    belong to requests, not stored profiles.
    """
    import dataclasses

    from ..core.constraints import CardinalityConstraint, DegreeConstraint

    if constraint is None:
        return None
    payload: dict = {}
    for field_info in dataclasses.fields(constraint):
        if not field_info.init:
            continue
        value = getattr(constraint, field_info.name)
        if isinstance(value, (bool, int, float, str, type(None))):
            payload[field_info.name] = value
        elif isinstance(value, (tuple, list)) and all(
            isinstance(p, (DegreeConstraint, CardinalityConstraint))
            for p in value
        ):
            payload[field_info.name] = [_encode_constraint(p) for p in value]
        else:
            raise ValueError(
                f"constraint {type(constraint).__name__} is not "
                f"serializable: field {field_info.name!r} holds "
                f"{type(value).__name__}"
            )
    return {"type": type(constraint).__name__, "args": payload}


def _decode_constraint(data: Optional[dict]):
    """Inverse of :func:`_encode_constraint`."""
    from ..core import constraints as constraint_module

    if data is None:
        return None
    cls = getattr(constraint_module, data["type"], None)
    if not isinstance(cls, type):
        raise GraphError(f"unknown constraint type {data.get('type')!r}")
    args = {}
    for name, value in data.get("args", {}).items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            args[name] = tuple(_decode_constraint(p) for p in value)
        else:
            args[name] = value
    try:
        return cls(**args)
    except TypeError:
        # composites take their parts as *varargs*, not a keyword tuple
        if len(args) == 1:
            (value,) = args.values()
            if isinstance(value, tuple):
                return cls(*value)
        raise


class ProfileRegistry:
    """In-memory store of named profiles (the paper's "multiple sets of

    weights … stored in the system")."""

    def __init__(self):
        self._profiles: dict[str, Profile] = {}

    def register(self, profile: Profile) -> None:
        if profile.name in self._profiles:
            raise KeyError(f"profile {profile.name!r} already registered")
        self._profiles[profile.name] = profile

    def get(self, name: str) -> Profile:
        try:
            return self._profiles[name]
        except KeyError:
            raise KeyError(f"no profile {name!r} registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._profiles

    def names(self) -> tuple[str, ...]:
        return tuple(self._profiles)

    def __len__(self):
        return len(self._profiles)
