"""The global workload registry: one front door for *what to compile*.

Every evaluation scenario of the paper — the Table-8 DNN zoo, the Table-7
PolyBench kernels and the Listing-1 running example — is registered here
under a single :class:`Workload` API:

* :func:`register_workload` is a decorator applied at the definition site
  (a ``Module`` subclass in :mod:`repro.frontend.nn.models` or a kernel
  builder function in :mod:`repro.frontend.cpp`);
* :func:`get_workload` resolves a workload id like ``"resnet18"``,
  ``"resnet18@batch=4"`` or ``"2mm@n=16"`` to a bound :class:`Workload`
  handle with did-you-mean errors for unknown names;
* :func:`list_workloads` / :func:`iter_workloads` drive discovery
  (``python -m repro.compiler --list-workloads``).

A :class:`Workload` builds its linalg-level IR lazily via
:meth:`Workload.build_module`.  Design-space exploration ships a workload
to worker processes as the identity fields of a
:class:`~repro.dse.space.DesignPoint`, which resolve back to the handle
here — QoR cache keys are a function of the built module, so registry
resolution leaves them unchanged.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .._naming import UnknownNameError, closest_names, unknown_name_message
from ..ir.builtin import ModuleOp

__all__ = [
    "ParamDecl",
    "UnknownWorkloadError",
    "Workload",
    "WorkloadDef",
    "as_module",
    "get_workload",
    "iter_workloads",
    "list_workloads",
    "parse_workload_id",
    "register_workload",
    "registered_definition",
    "source_modules",
]

#: Parameter kinds a workload id can spell on the command line.
_SIMPLE_TYPES = (bool, int, float, str)

WORKLOAD_KINDS = ("kernel", "model")


class UnknownWorkloadError(UnknownNameError):
    """An unresolvable workload name, with closest-match suggestions."""


@dataclasses.dataclass(frozen=True)
class ParamDecl:
    """One tunable workload parameter (e.g. ``batch`` or a problem size)."""

    name: str
    default: object

    @property
    def type(self) -> type:
        return type(self.default)

    def coerce(self, value: object) -> object:
        """Validate/convert a parameter value (strings parse per the type)."""
        if isinstance(value, str) and not isinstance(self.default, str):
            text = value.strip()
            if isinstance(self.default, bool):
                if text.lower() in ("true", "1", "yes"):
                    return True
                if text.lower() in ("false", "0", "no"):
                    return False
                raise ValueError(f"invalid boolean {value!r} for parameter {self.name!r}")
            try:
                return self.type(text)
            except ValueError:
                raise ValueError(
                    f"invalid {self.type.__name__} value {value!r} "
                    f"for parameter {self.name!r}"
                ) from None
        if isinstance(self.default, bool) and not isinstance(value, bool):
            raise ValueError(f"parameter {self.name!r} expects a boolean, got {value!r}")
        if isinstance(self.default, float) and isinstance(value, int):
            return float(value)
        if not isinstance(value, self.type):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, got {value!r}"
            )
        return value


@dataclasses.dataclass(frozen=True)
class WorkloadDef:
    """A registered workload: name, kind, lazy builder and metadata."""

    name: str
    kind: str
    builder: Callable[..., ModuleOp]
    params: Tuple[ParamDecl, ...] = ()
    tags: Tuple[str, ...] = ()
    #: Free-form registration metadata; excluded from equality/hashing so
    #: handles stay hashable (definitions are singletons per name anyway).
    metadata: Mapping[str, object] = dataclasses.field(
        default_factory=dict, compare=False
    )
    #: Module that performed the registration.  Worker processes (which may
    #: start via spawn, with a fresh interpreter) re-import these modules so
    #: custom registrations are visible off the main process; workloads
    #: registered in ``__main__`` cannot be recovered that way.
    source_module: Optional[str] = dataclasses.field(default=None, compare=False)

    def param(self, name: str) -> ParamDecl:
        for decl in self.params:
            if decl.name == name:
                return decl
        known = [decl.name for decl in self.params]
        message = unknown_name_message(
            f"parameter of workload {self.name!r}", name, known
        )
        raise UnknownWorkloadError(message, closest_names(name, known))

    def defaults(self) -> Dict[str, object]:
        return {decl.name: decl.default for decl in self.params}

    @property
    def description(self) -> str:
        text = self.metadata.get("description")
        if text:
            return str(text)
        doc = (self.builder.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


@dataclasses.dataclass(frozen=True)
class Workload:
    """A registry handle bound to concrete parameter values.

    Handles are cheap, hashable and picklable-by-name; the module itself is
    only built when :meth:`build_module` is called.
    """

    definition: WorkloadDef
    bound: Tuple[Tuple[str, object], ...] = ()

    # -------------------------------------------------------------- identity
    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def kind(self) -> str:
        return self.definition.kind

    @property
    def tags(self) -> Tuple[str, ...]:
        return self.definition.tags

    @property
    def metadata(self) -> Mapping[str, object]:
        return self.definition.metadata

    @property
    def params(self) -> Dict[str, object]:
        """Full parameter dict: declaration defaults overlaid with bindings."""
        values = self.definition.defaults()
        values.update(dict(self.bound))
        return values

    @property
    def workload_id(self) -> str:
        """Canonical id that round-trips through :func:`get_workload`.

        Defaults are omitted, so an unparameterized handle prints as the
        bare name and ``resnet18@batch=4`` prints exactly that way.
        """
        overrides = [
            f"{decl.name}={self.params[decl.name]}"
            for decl in self.definition.params
            if self.params[decl.name] != decl.default
        ]
        if not overrides:
            return self.name
        return f"{self.name}@{','.join(overrides)}"

    def label(self) -> str:
        return self.workload_id

    # ------------------------------------------------------------- variants
    def at(self, **params: object) -> "Workload":
        """A new handle with the given parameter overrides applied."""
        merged = dict(self.bound)
        for key, value in params.items():
            decl = self.definition.param(key)
            merged[key] = decl.coerce(value)
        order = {decl.name: i for i, decl in enumerate(self.definition.params)}
        bound = tuple(sorted(merged.items(), key=lambda kv: order[kv[0]]))
        return Workload(self.definition, bound)

    # ------------------------------------------------------------- building
    def build_module(self, **extra: object) -> ModuleOp:
        """Build the linalg-level IR module for this workload variant.

        ``extra`` passes through builder-only keyword arguments that are not
        registry parameters (e.g. ``element_type`` for traced models).
        """
        return self.definition.builder(**self.params, **extra)

    def __repr__(self) -> str:
        return f"Workload({self.workload_id!r}, kind={self.kind!r})"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, WorkloadDef] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the frontend modules whose decorators populate the registry.

    The flag is only set once the imports succeed: a failed first import
    re-raises on every lookup instead of silently presenting an empty
    registry.  (Registration itself never calls back into lookup, so this
    cannot recurse.)
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from ..frontend.cpp import listing1, polybench  # noqa: F401
    from ..frontend.nn import models  # noqa: F401

    _BUILTINS_LOADED = True


def registered_definition(name: str) -> Optional[WorkloadDef]:
    """The live definition under ``name`` (None when unregistered).

    Each registration creates a fresh :class:`WorkloadDef`, so memos of
    anything derived from a workload's builder compare this by identity to
    notice a ``replace=True`` re-registration.
    """
    _ensure_builtins()
    return _REGISTRY.get(name)


def _default_name(obj: object) -> str:
    name = getattr(obj, "__name__", "").lower()
    if name.startswith("build_"):
        name = name[len("build_"):]
    return name.replace("_", "-")


def _params_from_signature(builder: Callable[..., ModuleOp]) -> Tuple[ParamDecl, ...]:
    """Registry parameters = keyword arguments with simple-typed defaults.

    Builder arguments whose defaults are not bool/int/float/str (e.g. a
    traced model's ``element_type``) stay builder-only: they are reachable
    through ``build_module(**extra)`` but not through workload ids.
    """
    decls: List[ParamDecl] = []
    for param in inspect.signature(builder).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        if param.default is inspect.Parameter.empty:
            continue
        if isinstance(param.default, _SIMPLE_TYPES):
            decls.append(ParamDecl(param.name, param.default))
    return tuple(decls)


def register_workload(
    name: Optional[str] = None,
    *,
    kind: str,
    tags: Sequence[str] = (),
    expose: Optional[Sequence[str]] = None,
    replace: bool = False,
    **metadata: object,
):
    """Class/function decorator registering a workload under ``name``.

    Applied to a builder *function* returning a linalg-level module, the
    function's simple-typed keyword defaults become registry parameters::

        @register_workload("2mm", kind="kernel", tags=("polybench",))
        def build_2mm(n: int = 40) -> ModuleOp: ...

    Applied to an nn ``Module`` *class* with an ``input_shape`` metadata
    entry, the registered builder instantiates and traces the model, and a
    ``batch`` parameter (plus any simple-typed constructor keywords) is
    derived automatically::

        @register_workload(kind="model", input_shape=(3, 224, 224))
        class ResNet18(Module): ...

    ``expose`` restricts which of the harvested keyword defaults become
    registry parameters — use it when some builder/constructor keywords are
    coupled to fixed registration metadata (e.g. a model whose
    ``in_features`` must match ``input_shape``) and must not be addressable
    from workload ids.  ``batch`` is always exposed for model classes.
    """
    if kind not in WORKLOAD_KINDS:
        raise ValueError(f"unknown workload kind {kind!r}; options: {WORKLOAD_KINDS}")

    def decorator(obj):
        workload_name = (name or _default_name(obj)).lower()
        if not workload_name:
            raise ValueError(f"cannot derive a workload name from {obj!r}")
        if inspect.isclass(obj):
            builder, params = _module_class_builder(obj, workload_name, metadata)
        else:
            builder, params = obj, _params_from_signature(obj)
        if expose is not None:
            allowed = set(expose) | ({"batch"} if inspect.isclass(obj) else set())
            params = tuple(decl for decl in params if decl.name in allowed)
        if workload_name in _REGISTRY and not replace:
            raise ValueError(
                f"workload {workload_name!r} is already registered; "
                "pass replace=True to override"
            )
        _REGISTRY[workload_name] = WorkloadDef(
            name=workload_name,
            kind=kind,
            builder=builder,
            params=params,
            tags=tuple(tags),
            metadata=dict(metadata),
            source_module=getattr(obj, "__module__", None),
        )
        return obj

    return decorator


def _module_class_builder(cls, name: str, metadata: Mapping[str, object]):
    """Builder + parameter declarations for a traced nn ``Module`` class."""
    input_shape = metadata.get("input_shape")
    if input_shape is None:
        raise ValueError(
            f"model workload {name!r} needs input_shape=... metadata "
            "(the per-sample tensor shape to trace at)"
        )
    shape = tuple(int(dim) for dim in input_shape)
    ctor_params = _params_from_signature(cls.__init__)

    def build(batch: int = 1, element_type=None, **ctor: object) -> ModuleOp:
        from ..ir.types import i8
        from ..frontend.nn.tracer import trace

        model = cls(**ctor)
        return trace(
            model,
            (batch, *shape),
            name=name,
            element_type=element_type if element_type is not None else i8,
        )

    params = (ParamDecl("batch", 1), *ctor_params)
    return build, params


def _unregister(name: str) -> None:
    """Test-only hook: drop a registration."""
    _REGISTRY.pop(name.lower(), None)


# ---------------------------------------------------------------------------
# Lookup and parsing
# ---------------------------------------------------------------------------


def parse_workload_id(text: str) -> Tuple[Optional[str], str, Dict[str, str]]:
    """Split a workload id into (kind, name, raw parameter strings).

    Accepted spellings::

        resnet18                  bare registered name
        resnet18@batch=4          explicit parameters (comma-separated)
        2mm@n=16,tsteps=2
        lenet@4                   bare value = the first declared parameter
        model:lenet@4             legacy kind-qualified form (still accepted)
    """
    text = text.strip()
    kind: Optional[str] = None
    if ":" in text:
        prefix, _, rest = text.partition(":")
        kind = prefix.strip().lower()
        text = rest.strip()
    name, _, params_text = text.partition("@")
    name = name.strip().lower()
    if not name:
        raise ValueError(f"empty workload name in {text!r}")
    params: Dict[str, str] = {}
    if params_text:
        for item in params_text.split(","):
            item = item.strip()
            if not item:
                continue
            # A bare value is the positional shorthand, resolved at lookup.
            key, value = "", item
            if "=" in item:
                key, _, value = (part.strip() for part in item.partition("="))
                if not key:
                    raise ValueError(f"empty parameter name in workload id {text!r}")
            if key in params:
                what = f"parameter {key!r}" if key else "a bare value"
                raise ValueError(
                    f"{what} given more than once in workload id {text!r}"
                )
            params[key] = value
    return kind, name, params


def get_workload(spec: Union[str, Workload], kind: Optional[str] = None) -> Workload:
    """Resolve a workload id or handle to a bound :class:`Workload`.

    Unknown names raise :class:`UnknownWorkloadError` listing every
    registered name with a closest-match suggestion.
    """
    if isinstance(spec, Workload):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot resolve a workload from {spec!r}")

    parsed_kind, name, raw_params = parse_workload_id(spec)
    if parsed_kind is not None:
        if parsed_kind not in WORKLOAD_KINDS:
            raise UnknownWorkloadError(
                unknown_name_message("workload kind", parsed_kind, WORKLOAD_KINDS),
                closest_names(parsed_kind, WORKLOAD_KINDS),
            )
        kind = parsed_kind
    _ensure_builtins()
    definition = _REGISTRY.get(name)
    if definition is None or (kind is not None and definition.kind != kind):
        candidates = list_workloads(kind=kind)
        raise UnknownWorkloadError(
            unknown_name_message(
                f"{kind} workload" if kind else "workload", name, candidates
            ),
            closest_names(name, candidates),
        )
    handle = Workload(definition)
    if "" in raw_params:
        # Bare "@value" binds the first declared parameter (legacy
        # "model:lenet@4" batch shorthand).
        if not definition.params:
            raise UnknownWorkloadError(
                f"workload {name!r} takes no parameters "
                f"(got {raw_params['']!r})"
            )
        first = definition.params[0].name
        if first in raw_params:
            raise ValueError(
                f"parameter {first!r} given more than once in workload id "
                f"{spec!r} (a bare value binds it too)"
            )
        raw_params[first] = raw_params.pop("")
    return handle.at(**raw_params) if raw_params else handle


def iter_workloads(
    kind: Optional[str] = None, tag: Optional[str] = None
) -> Iterator[Workload]:
    """Unbound handles for every registered workload, registration order."""
    _ensure_builtins()
    for definition in _REGISTRY.values():
        if kind is not None and definition.kind != kind:
            continue
        if tag is not None and tag not in definition.tags:
            continue
        yield Workload(definition)


def list_workloads(kind: Optional[str] = None, tag: Optional[str] = None) -> List[str]:
    """Registered workload names (optionally filtered by kind and tag)."""
    return [handle.name for handle in iter_workloads(kind=kind, tag=tag)]


def source_modules(names: Sequence[str]) -> List[str]:
    """Importable modules whose import (re)registers the named workloads.

    Used by the DSE runner to make custom registrations visible in worker
    processes under the ``spawn`` start method.  Built-in frontend modules
    and ``__main__`` are excluded (the former load via
    :func:`_ensure_builtins`, the latter cannot be re-imported).
    """
    _ensure_builtins()
    modules = set()
    for name in names:
        definition = _REGISTRY.get(str(name).lower())
        if definition is None or definition.source_module in (None, "__main__"):
            continue
        if definition.source_module.startswith("repro."):
            continue
        modules.add(definition.source_module)
    return sorted(modules)


def as_module(workload: Union[ModuleOp, str, Workload], **extra) -> ModuleOp:
    """Coerce a module / workload id / handle to a built module.

    The polymorphic front door used by the baselines: pass a pre-built
    module through unchanged, or resolve anything else via the registry.
    """
    if isinstance(workload, ModuleOp):
        return workload
    return get_workload(workload).build_module(**extra)
