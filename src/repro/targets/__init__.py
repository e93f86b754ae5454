"""repro.targets — the unified target registry (*for which hardware*).

The mirror of :mod:`repro.workloads`: every FPGA device of the paper's
evaluation is registered as a :class:`Target` wrapping the
:class:`~repro.estimation.platform.Platform` resource model, with aliases
(``vu9p`` -> ``vu9p-slr``), per-device metadata and did-you-mean errors::

    from repro.targets import get_target, list_targets

    list_targets()                  # ['pynq-z2', 'zu3eg', 'vu9p-slr']
    target = get_target("vu9p")     # alias-aware
    target.platform.dsps            # the Platform resource model

``repro.estimation.get_platform`` resolves through this registry, so every
platform lookup in the codebase shares the same aliases and error style.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from .._naming import UnknownNameError, closest_names, unknown_name_message
from ..estimation.platform import PYNQ_Z2, VU9P_SLR, ZU3EG, Platform

__all__ = [
    "Target",
    "UnknownTargetError",
    "get_target",
    "iter_targets",
    "list_targets",
    "register_target",
    "target_names",
    "target_registry",
]


class UnknownTargetError(UnknownNameError):
    """An unresolvable target/platform name, with closest-match suggestions."""


@dataclasses.dataclass(frozen=True)
class Target:
    """A registered hardware target: the resource model plus metadata."""

    platform: Platform
    aliases: Tuple[str, ...] = ()
    metadata: Mapping[str, object] = dataclasses.field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.platform.name

    @property
    def description(self) -> str:
        return str(self.metadata.get("description", ""))

    def summary(self) -> Dict[str, object]:
        """Flat JSON-safe description of the target (resources + aliases)."""
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "luts": self.platform.luts,
            "dsps": self.platform.dsps,
            "bram_18k": self.platform.bram_18k,
            "clock_mhz": self.platform.clock_mhz,
            "description": self.description,
        }

    def __repr__(self) -> str:
        return f"Target({self.name!r})"


_REGISTRY: Dict[str, Target] = {}
_ALIASES: Dict[str, str] = {}


def register_target(
    platform: Platform,
    aliases: Sequence[str] = (),
    replace: bool = False,
    **metadata: object,
) -> Target:
    """Register a platform resource model as a named target."""
    name = platform.name.lower()
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"target {name!r} is already registered; pass replace=True to override"
        )
    target = Target(platform=platform, aliases=tuple(a.lower() for a in aliases),
                    metadata=dict(metadata))
    _REGISTRY[name] = target
    for alias in target.aliases:
        existing = _ALIASES.get(alias)
        if existing is not None and existing != name and not replace:
            raise ValueError(f"target alias {alias!r} already points at {existing!r}")
        _ALIASES[alias] = name
    return target


def target_registry() -> Dict[str, Target]:
    """A snapshot of the registry (name -> target, registration order)."""
    return dict(_REGISTRY)


def get_target(name: Union[str, Target, Platform]) -> Target:
    """Resolve a target by name or alias with did-you-mean errors."""
    if isinstance(name, Target):
        return name
    if isinstance(name, Platform):
        registered = _REGISTRY.get(name.name.lower())
        return registered if registered is not None else Target(platform=name)
    key = name.lower().strip()
    key = _ALIASES.get(key, key)
    target = _REGISTRY.get(key)
    if target is None:
        candidates = target_names(include_aliases=True)
        raise UnknownTargetError(
            unknown_name_message("target platform", key, candidates),
            closest_names(key, candidates),
        )
    return target


def iter_targets() -> Iterator[Target]:
    return iter(_REGISTRY.values())


def list_targets() -> List[str]:
    """Registered target names, registration order."""
    return list(_REGISTRY)


def target_names(include_aliases: bool = False) -> List[str]:
    names = list(_REGISTRY)
    if include_aliases:
        names += sorted(_ALIASES)
    return names


# ---------------------------------------------------------------------------
# The paper's three evaluation devices.
# ---------------------------------------------------------------------------

register_target(
    PYNQ_Z2,
    aliases=("pynq", "zynq-7020", "z2"),
    vendor="AMD",
    description="PYNQ-Z2 (Zynq-7020) — the Section-2 LeNet case study board",
)
register_target(
    ZU3EG,
    aliases=("zu3", "ultra96"),
    vendor="AMD",
    description="Zynq UltraScale+ ZU3EG — the Table-7 PolyBench target",
)
register_target(
    VU9P_SLR,
    aliases=("vu9p", "u250-slr"),
    vendor="AMD",
    description="One SLR of a Virtex UltraScale+ VU9P — the Table-8 DNN target",
)
