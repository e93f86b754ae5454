"""Design points and design-space generation.

A :class:`DesignPoint` is one fully-specified configuration of the HIDA
pipeline applied to one workload: the workload recipe (kernel or model
name), the target platform, and every optimization knob the paper explores
— unroll-factor budget, external-memory tile size, how many of the
profitable fusion patterns to apply, the pipeline II target, and the IA/CA
parallelization switches.

A :class:`DesignSpace` is an ordered, de-duplicated list of points.  The
built-in presets (``small`` / ``medium`` / ``full``) take the cross product
of per-axis values over a workload suite; spaces are always generated in a
deterministic order, and :meth:`DesignSpace.sample` does seeded reservoir-free
sampling so the same seed always yields the same subset — the property the
determinism tests pin down.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import random
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..workloads.registry import WORKLOAD_KINDS, Workload, get_workload, list_workloads

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "SPACE_PRESETS",
    "build_space",
    "polybench_suite",
    "dnn_suite",
    "suite_from_names",
]


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One (workload, platform, optimization options) configuration."""

    #: The optimization-knob axes: what :meth:`canonical_spec` prints a
    #: knob-driven point's pipeline from (``pipeline_spec``, when set,
    #: overrides them).  (Unannotated, so the dataclass machinery does not
    #: treat it as a field.)
    KNOB_AXES = (
        "max_parallel_factor",
        "tile_size",
        "top_k_fusion",
        "target_ii",
        "enable_dataflow",
        "intensity_aware",
        "connection_aware",
    )

    workload_kind: str
    workload: str
    batch: int = 1
    #: Extra registry parameter bindings (e.g. a kernel's problem size) as
    #: sorted (name, value) pairs; empty for every pre-registry space, and
    #: omitted from :meth:`to_dict` when empty so point keys (and therefore
    #: QoR cache identities) are unchanged for existing sweeps.
    workload_params: tuple = ()
    platform: str = "zu3eg"
    max_parallel_factor: int = 32
    tile_size: int = 16
    #: How many of the default fusion patterns to apply (0 disables fusion).
    top_k_fusion: int = 2
    target_ii: int = 1
    enable_dataflow: bool = True
    intensity_aware: bool = True
    connection_aware: bool = True
    #: Explicit pipeline spec (design axis).  When set it overrides every
    #: per-stage knob above except ``platform``: the point compiles through
    #: ``Compiler.from_spec(pipeline_spec, platform=...)``, which makes
    #: *pipeline composition itself* searchable (stage order, dropped
    #: stages, per-stage options the flags cannot express).
    pipeline_spec: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalize JSON-decoded lists back into hashable tuple form.
        if not isinstance(self.workload_params, tuple):
            object.__setattr__(
                self,
                "workload_params",
                tuple((k, v) for k, v in self.workload_params),
            )

    # ---------------------------------------------------------- construction
    @classmethod
    def for_workload(cls, workload, **knobs) -> "DesignPoint":
        """A point for anything the :mod:`repro.workloads` registry resolves.

        ``workload`` may be a registry id (``"resnet18@batch=4"``) or a
        bound :class:`~repro.workloads.Workload` handle; ``knobs`` are the
        remaining :class:`DesignPoint` fields.
        """
        return cls(**_identity_fields(get_workload(workload)), **knobs)

    # ------------------------------------------------------------ conversion
    @property
    def workload_identity(self) -> tuple:
        """The four fields naming the workload: what memos key on in place
        of the resolved handle."""
        return (self.workload_kind, self.workload, self.batch, self.workload_params)

    def workload_spec(self) -> Workload:
        """The bound registry handle this point compiles.

        Resolves through the registry on every call, so the cache-probe
        path keys its memos on :attr:`workload_identity` instead and only
        an actual compile asks for the handle.
        """
        if self.workload_kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.workload_kind!r}")
        handle = get_workload(self.workload, kind=self.workload_kind)
        params = dict(self.workload_params)
        # A batch on a batch-less workload (kernels) is ignored, exactly as
        # the pre-registry kernel frontend ignored it.
        if self.batch != 1 and "batch" in handle.params:
            params["batch"] = self.batch
        return handle.at(**params) if params else handle

    def canonical_spec(self) -> str:
        """Canonical printed pipeline spec this point compiles through.

        Explicit ``pipeline_spec`` points re-print through the parser (so
        equivalent spellings collapse); knob-driven points print the spec
        of the stages their knobs configure.  The QoR cache keys on this
        string.  Printed once per knob setting (:func:`_spec_text`), not
        once per point: workload and platform do not reach it.
        """
        return _spec_text(self.pipeline_spec, *[getattr(self, a) for a in self.KNOB_AXES])

    def compiler(self):
        """The :class:`~repro.compiler.driver.Compiler` for this point."""
        from ..compiler import Compiler, default_stages

        if self.pipeline_spec is not None:
            return Compiler.from_spec(self.pipeline_spec, platform=self.platform)
        from ..hida.functional import FUSION_PATTERNS

        # The knob axes as "the default pipeline, reconfigured": built as
        # typed stages directly (no text round trip per evaluated point).
        drop = []
        patterns = None
        if self.top_k_fusion == 0:
            drop.append("fuse-tasks")
        elif self.top_k_fusion > 0:
            patterns = list(FUSION_PATTERNS)[: self.top_k_fusion]
        if self.tile_size <= 0:
            drop.append("tile")
        stages = default_stages(
            drop,
            fuse_tasks={"patterns": patterns},
            tile={"size": self.tile_size},
            parallelize={
                "factor": self.max_parallel_factor,
                "ia": self.intensity_aware,
                "ca": self.connection_aware,
                "target_ii": self.target_ii,
            },
            estimate={"dataflow": self.enable_dataflow},
        )
        return Compiler(stages, platform=self.platform)

    def to_dict(self) -> Dict[str, object]:
        """A fresh JSON-safe dict of the fields, in declared order (every
        field but ``workload_params`` is a scalar: nothing to deep-copy)."""
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        if self.pipeline_spec is None:
            # Keep point keys of flag-driven spaces stable across versions.
            data.pop("pipeline_spec")
        if not self.workload_params:
            # Same stability contract for unparameterized workloads.
            data.pop("workload_params")
        else:
            data["workload_params"] = [list(pair) for pair in self.workload_params]
        return data

    # ``cached_property`` writes the instance ``__dict__`` directly, which a
    # frozen dataclass allows; being no field, what it remembers stays out of
    # ``==``, ``hash``, ``repr``, ``to_dict`` and ``dataclasses.replace``.
    @functools.cached_property
    def _key(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def key(self) -> str:
        """Stable identity of the point (hash of the canonical JSON form)."""
        return self._key

    @functools.cached_property
    def _label(self) -> str:
        workload = self.workload
        if self.workload_kind == "model" and self.batch != 1:
            workload += f"@b{self.batch}"
        workload += "".join(f"+{k}{v}" for k, v in self.workload_params)
        if self.pipeline_spec is not None:
            spec_tag = hashlib.sha256(
                self.pipeline_spec.encode("utf-8")
            ).hexdigest()[:6]
            return f"{workload}/{self.platform}/spec-{spec_tag}"
        return (
            f"{workload}/{self.platform}"
            f"/pf{self.max_parallel_factor}/t{self.tile_size}"
            f"/f{self.top_k_fusion}/ii{self.target_ii}"
        )

    def label(self) -> str:
        return self._label


_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(DesignPoint))


@functools.lru_cache(maxsize=4096, typed=True)
def _spec_text(pipeline_spec: Optional[str], *knobs) -> str:
    """The printed spec of one ``(pipeline_spec, *KNOB_AXES values)`` setting.

    The one process-level table of the point-identity path: at most 4096
    settings (least recently asked dropped first), scalars and strings only.
    ``typed`` keeps ``1`` and ``True`` apart, as their point keys are.  A
    printed spec depends on nothing but its key and the stage registry, and
    ``register_stage`` refuses to rebind a name, so no entry goes stale.
    """
    knob_values = dict(zip(DesignPoint.KNOB_AXES, knobs))
    # Any workload and platform will do: neither reaches the stages' options.
    probe = DesignPoint("kernel", "", pipeline_spec=pipeline_spec, **knob_values)
    return probe.compiler().spec_text()


class DesignSpace:
    """An ordered collection of unique design points."""

    def __init__(self, points: Iterable[DesignPoint] = ()) -> None:
        self._points: List[DesignPoint] = []
        self._seen = set()
        for point in points:
            self.add(point)

    def add(self, point: DesignPoint) -> None:
        key = point.key()
        if key not in self._seen:
            self._seen.add(key)
            self._points.append(point)

    @property
    def points(self) -> List[DesignPoint]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def sample(self, count: int, seed: int = 0) -> "DesignSpace":
        """Deterministic seeded subsample preserving generation order."""
        if count < 0:
            raise ValueError("sample count must be non-negative")
        if count >= len(self._points):
            return DesignSpace(self._points)
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(len(self._points)), count))
        return DesignSpace(self._points[i] for i in chosen)

    def __repr__(self) -> str:
        return f"DesignSpace({len(self)} points)"


def _identity_fields(handle: Workload) -> Dict[str, Any]:
    """The four :class:`DesignPoint` identity fields of a bound handle.

    Only non-default bindings are carried (``batch`` in its own field, the
    rest as sorted pairs), so every spelling of one workload yields the
    same point key.
    """
    defaults = handle.definition.defaults()
    params = {k: v for k, v in handle.params.items() if v != defaults[k]}
    return {
        "workload_kind": handle.kind,
        "workload": handle.name,
        "batch": int(params.pop("batch", 1)),
        "workload_params": tuple(sorted(params.items())),
    }


def suite_from_names(names: Sequence) -> List[Workload]:
    """A workload suite from registry ids / handles (``["2mm@n=16", ...]``).

    Unknown names raise :class:`repro.workloads.UnknownWorkloadError` with
    the registered names and a closest-match suggestion.
    """
    return [get_workload(name) for name in names]


def polybench_suite() -> List[Workload]:
    """Every registered PolyBench kernel, in name order."""
    return suite_from_names(sorted(list_workloads(tag="polybench")))


def dnn_suite() -> List[Workload]:
    """The small end of the paper's DNN zoo (kept tractable for sweeps)."""
    return suite_from_names(["lenet", "mlp"])


#: Per-axis values of each space preset.  Axes cross-multiply per workload.
SPACE_PRESETS: Dict[str, Dict[str, Sequence]] = {
    "small": {
        "max_parallel_factor": (8, 32),
        "tile_size": (0, 16),
        "top_k_fusion": (2,),
        "target_ii": (1,),
    },
    "medium": {
        "max_parallel_factor": (8, 32, 128),
        "tile_size": (0, 8, 32),
        "top_k_fusion": (0, 2),
        "target_ii": (1,),
    },
    "full": {
        "max_parallel_factor": (4, 8, 32, 128, 256),
        "tile_size": (0, 4, 8, 16, 32),
        "top_k_fusion": (0, 1, 2),
        "target_ii": (1, 2),
    },
}


def build_space(
    preset: str = "small",
    suite: Optional[Sequence] = None,
    platforms: Sequence[str] = ("zu3eg",),
    pipeline_specs: Sequence[Optional[str]] = (None,),
) -> DesignSpace:
    """Cross product of a preset's axes over a workload suite.

    ``suite`` entries may be registry workload ids (``"resnet18@batch=4"``)
    or bound :class:`~repro.workloads.Workload` handles — user spaces can
    name any registered workload.  ``pipeline_specs`` is the
    pipeline-composition axis: ``None`` entries sweep the preset's per-stage
    knobs as usual,
    while textual spec entries add one point per (workload, platform, spec)
    that compiles through that exact stage sequence (the other knob axes do
    not apply to it).
    """
    try:
        axes = SPACE_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown space preset {preset!r}; options: {sorted(SPACE_PRESETS)}"
        ) from None
    space = DesignSpace()
    for entry in polybench_suite() if suite is None else suite:
        identity = _identity_fields(get_workload(entry))
        for platform in platforms:
            for pipeline_spec in pipeline_specs:
                if pipeline_spec is not None:
                    space.add(
                        DesignPoint(
                            **identity,
                            platform=platform,
                            pipeline_spec=pipeline_spec,
                        )
                    )
                    continue
                for factor, tile, top_k, ii in itertools.product(
                    axes["max_parallel_factor"],
                    axes["tile_size"],
                    axes["top_k_fusion"],
                    axes["target_ii"],
                ):
                    space.add(
                        DesignPoint(
                            **identity,
                            platform=platform,
                            max_parallel_factor=factor,
                            tile_size=tile,
                            top_k_fusion=top_k,
                            target_ii=ii,
                        )
                    )
    return space
