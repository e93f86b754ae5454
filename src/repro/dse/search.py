"""Pluggable design-space search strategies.

Grid enumeration stops scaling once the space grows past a few thousand
points (``--space full`` already does); this module turns the exploration
engine into an *adaptive* search.  A :class:`SearchStrategy` proposes
batches of novel :class:`~repro.dse.space.DesignPoint`\\ s, the runner
evaluates each batch through the existing cache-aware machinery
(:func:`repro.dse.runner.explore` with ``strategy=...``), and the strategy
steers the next batch from the records it observed — non-dominated
membership and frontier hypervolume, never wall-clock noise, so a fixed
seed reproduces the exact same trajectory for any worker count.

Four strategies ship registered by name:

* ``exhaustive`` — the whole space in generation order (budget truncates);
* ``random`` — a seeded shuffle of the space;
* ``genetic`` — tournament selection over Pareto rank + scalarized energy,
  uniform crossover and per-axis mutation;
* ``anneal`` — per-workload simulated-annealing chains with a geometric
  cooling schedule.

Mutation and crossover cover both point representations.  Knob-driven
points resample axes from the per-axis domain metadata the space exposes
(:func:`repro.dse.space.axis_domains`), so offspring stay inside the swept
cross product.  Spec-driven points mutate *pipeline composition itself*:
:func:`mutate_spec` / :func:`crossover_specs` operate on parsed
:class:`~repro.compiler.spec.PipelineSpec` stage lists and re-print through
``Compiler.from_spec`` — every offspring round-trips the parser/printer and
comes back in canonical form (so equivalent spellings collapse onto one
QoR-cache entry).

Budget semantics: ``budget`` bounds the number of *distinct design points
evaluated* (records produced).  Cache hits cost no compile time but do
count toward the budget — that keeps cold and warm runs byte-identical,
which is the property the determinism tests pin.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .pareto import DEFAULT_OBJECTIVES, pareto_frontier, scalarized_energies
from .space import DesignPoint, axis_domains

__all__ = [
    "SearchStrategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "GeneticSearch",
    "AnnealSearch",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "make_strategy",
    "mutate_spec",
    "crossover_specs",
]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type["SearchStrategy"]] = {}


def register_strategy(cls: Type["SearchStrategy"]) -> Type["SearchStrategy"]:
    """Class decorator adding a strategy to the registry by ``name``."""
    if not cls.name:
        raise ValueError(f"strategy class {cls.__name__} declares no name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"strategy name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def available_strategies() -> List[str]:
    return sorted(_REGISTRY)


def get_strategy(name: str) -> Type["SearchStrategy"]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {name!r}; "
            f"options: {', '.join(available_strategies())}"
        ) from None


def make_strategy(
    name: str,
    points: Sequence[DesignPoint],
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    budget: Optional[int] = None,
    seed: int = 0,
    options: Optional[Dict] = None,
) -> "SearchStrategy":
    """Instantiate a registered strategy over a space (list of points)."""
    return get_strategy(name)(
        points, objectives=objectives, budget=budget, seed=seed, **(options or {})
    )


# ---------------------------------------------------------------------------
# Pipeline-spec mutation / crossover operators
# ---------------------------------------------------------------------------

#: Canonical stage ordering used to place inserted stages — derived from
#: the compiler's default pipeline so it cannot drift when stages are
#: added or reordered there (resolved lazily to keep imports light).
_STAGE_ORDER_CACHE: Optional[Tuple[str, ...]] = None


def _stage_order() -> Tuple[str, ...]:
    global _STAGE_ORDER_CACHE
    if _STAGE_ORDER_CACHE is None:
        from ..compiler import default_pipeline_spec

        _STAGE_ORDER_CACHE = tuple(
            stage.name for stage in default_pipeline_spec().stages
        )
    return _STAGE_ORDER_CACHE

#: The tables below are *search policy*, not compiler metadata: which
#: stages mutation may drop/insert and which option values are worth
#: exploring.  A stage added to the compiler joins the mutation move set
#: only when listed here.
#: Stages a valid pipeline cannot lose (the estimate stage is what makes a
#: run produce QoR at all; the others form the minimal lowering path).
_REQUIRED_STAGES = frozenset(
    {"construct-dataflow", "lower-structural", "parallelize", "estimate"}
)

#: Stages mutation may drop from / insert into a spec.
_OPTIONAL_STAGES: Tuple[str, ...] = (
    "fuse-tasks",
    "eliminate-multi-producers",
    "balance",
    "tile",
)

#: Integer stage options mutation may retarget, with their value domains.
_SPEC_INT_DOMAINS: Dict[Tuple[str, str], Tuple[int, ...]] = {
    ("parallelize", "factor"): (4, 8, 16, 32, 64, 128, 256),
    ("parallelize", "target-ii"): (1, 2, 3),
    ("tile", "size"): (4, 8, 16, 32),
}

#: Boolean stage options mutation may toggle (defaults are all true).
_SPEC_BOOL_OPTIONS: Tuple[Tuple[str, str], ...] = (
    ("parallelize", "ia"),
    ("parallelize", "ca"),
    ("estimate", "dataflow"),
)


def _canonical_spec_text(text: str) -> Optional[str]:
    """Round-trip a spec through the compiler; None when it is invalid."""
    from ..compiler import Compiler, PipelineSpecError

    try:
        return Compiler.from_spec(text).spec_text()
    except PipelineSpecError:
        return None


def _stage_rank(name: str, fallback: int) -> Tuple[int, int]:
    order = _stage_order()
    if name in order:
        return (order.index(name), 0)
    return (len(order), fallback)


def mutate_spec(spec_text: str, rng: random.Random) -> Optional[str]:
    """One structural mutation of a pipeline spec, in canonical form.

    Picks one applicable move — retarget an integer stage option, toggle a
    boolean one, drop an optional stage, or insert a missing optional stage
    at its canonical position — then re-prints through the parser so the
    offspring round-trips.  Returns ``None`` if the mutated spec fails to
    validate (the caller simply retries).
    """
    from ..compiler import PipelineSpecError, parse_pipeline
    from ..compiler.spec import StageSpec

    try:
        spec = parse_pipeline(spec_text)
    except PipelineSpecError:
        return None
    names = [stage.name for stage in spec.stages]
    moves: List[Tuple] = []
    for (stage_name, option), domain in sorted(_SPEC_INT_DOMAINS.items()):
        if stage_name in names:
            moves.append(("int", stage_name, option, domain))
    for stage_name, option in _SPEC_BOOL_OPTIONS:
        if stage_name in names:
            moves.append(("bool", stage_name, option, None))
    for stage_name in _OPTIONAL_STAGES:
        kind = "drop" if stage_name in names else "insert"
        moves.append((kind, stage_name, None, None))
    if not moves:
        return None
    kind, stage_name, option, domain = moves[rng.randrange(len(moves))]
    if kind == "int":
        stage = next(s for s in spec.stages if s.name == stage_name)
        current = stage.options.get(option, [""])[0]
        candidates = [value for value in domain if str(value) != current]
        stage.options[option] = [str(rng.choice(candidates))]
    elif kind == "bool":
        stage = next(s for s in spec.stages if s.name == stage_name)
        current = stage.options.get(option, ["1"])[0].lower()
        stage.options[option] = ["0" if current in ("1", "true", "yes") else "1"]
    elif kind == "drop":
        spec.stages = [s for s in spec.stages if s.name != stage_name]
    else:  # insert
        rank = _stage_rank(stage_name, 0)
        position = len(spec.stages)
        for index, stage in enumerate(spec.stages):
            if _stage_rank(stage.name, index) > rank:
                position = index
                break
        spec.stages.insert(position, StageSpec(name=stage_name))
    return _canonical_spec_text(spec.print())


def crossover_specs(
    a_text: str, b_text: str, rng: random.Random
) -> Optional[str]:
    """Uniform stage-wise crossover of two pipeline specs (canonical form).

    Stages present in both parents merge option-by-option (each option
    value drawn from either parent); stages present in one parent are
    inherited with probability ½ unless required.  The child re-prints
    through the parser/printer, so it always round-trips.
    """
    from ..compiler import PipelineSpecError, parse_pipeline
    from ..compiler.spec import PipelineSpec, StageSpec

    try:
        parsed_a = parse_pipeline(a_text)
        parsed_b = parse_pipeline(b_text)
    except PipelineSpecError:
        return None
    by_name_a: Dict[str, StageSpec] = {}
    by_name_b: Dict[str, StageSpec] = {}
    for stage in parsed_a.stages:
        by_name_a.setdefault(stage.name, stage)
    for stage in parsed_b.stages:
        by_name_b.setdefault(stage.name, stage)
    union: List[str] = []
    for stage in list(parsed_a.stages) + list(parsed_b.stages):
        if stage.name not in union:
            union.append(stage.name)
    ranks = {name: _stage_rank(name, index) for index, name in enumerate(union)}
    union.sort(key=lambda name: ranks[name])
    child_stages: List[StageSpec] = []
    for name in union:
        in_a, in_b = name in by_name_a, name in by_name_b
        if in_a and in_b:
            options: Dict[str, List[str]] = {}
            keys = sorted(set(by_name_a[name].options) | set(by_name_b[name].options))
            for key in keys:
                pick_a = rng.random() < 0.5
                source = by_name_a[name] if pick_a else by_name_b[name]
                other = by_name_b[name] if pick_a else by_name_a[name]
                tokens = source.options.get(key, other.options.get(key))
                if tokens:
                    options[key] = list(tokens)
            child_stages.append(StageSpec(name=name, options=options))
            continue
        parent = by_name_a.get(name) or by_name_b[name]
        if name in _REQUIRED_STAGES or rng.random() < 0.5:
            child_stages.append(
                StageSpec(
                    name=name,
                    options={k: list(v) for k, v in parent.options.items()},
                )
            )
    return _canonical_spec_text(PipelineSpec(child_stages).print())


# ---------------------------------------------------------------------------
# Strategy base class
# ---------------------------------------------------------------------------


def _point_group(point: DesignPoint) -> Tuple:
    """Identity axes a search never mutates; operators stay within a group."""
    return (
        point.workload_kind,
        point.workload,
        point.batch,
        tuple(point.workload_params),
        point.platform,
    )


class SearchStrategy:
    """Base class of the propose/observe search loop.

    The runner repeatedly calls :meth:`propose` for a batch of *novel*
    points (never previously proposed or evaluated), evaluates them, and
    feeds the resulting records back through :meth:`observe`.  An empty
    proposal ends the search; the runner separately enforces the
    evaluation budget.  All randomness flows through one seeded
    ``random.Random``, and every decision depends only on QoR summaries
    (never timings or cache state), so fixed-seed runs are deterministic
    for any worker count and cache temperature.
    """

    name: str = ""
    #: Recognized constructor options and their defaults.
    defaults: Dict[str, object] = {"generations": None}

    def __init__(
        self,
        points: Sequence[DesignPoint],
        objectives: Sequence[str] = DEFAULT_OBJECTIVES,
        budget: Optional[int] = None,
        seed: int = 0,
        **options,
    ) -> None:
        self.points: List[DesignPoint] = []
        self._by_key: Dict[str, DesignPoint] = {}
        for point in points:
            key = point.key()
            if key not in self._by_key:
                self._by_key[key] = point
                self.points.append(point)
        if not self.points:
            raise ValueError("search needs a non-empty design space")
        self.objectives = tuple(objectives)
        self.budget = len(self.points) if budget is None else int(budget)
        if self.budget <= 0:
            raise ValueError(f"budget must be positive (got {self.budget})")
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        unknown = sorted(set(options) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"strategy {self.name!r} has no option(s) "
                f"{', '.join(map(repr, unknown))}; "
                f"known options: {', '.join(sorted(self.defaults))}"
            )
        for key, default in self.defaults.items():
            setattr(self, key, options.get(key, default))
        self.records: List[Dict] = []
        self.seen: set = set()
        self._record_by_key: Dict[str, Dict] = {}
        self._generation = 0
        self.domains = axis_domains(self.points)

    # ------------------------------------------------------ propose/observe
    def propose(self, limit: int) -> List[DesignPoint]:
        """Up to ``limit`` novel points to evaluate next ([] = done)."""
        if limit <= 0:
            return []
        generations = getattr(self, "generations", None)
        if generations is not None and self._generation >= int(generations):
            return []
        return self._propose(limit)

    def _propose(self, limit: int) -> List[DesignPoint]:
        raise NotImplementedError

    def observe(self, records: Sequence[Dict], *, refinement: bool = False) -> None:
        """Feed one evaluated batch back; called once per proposal.

        With ``refinement`` the records are higher-fidelity re-evaluations
        of already-observed points (see :mod:`repro.dse.fidelity`): each one
        replaces the point's existing record in place — subsequent
        proposals steer on the best-available fidelity — and no search
        generation elapses.
        """
        if refinement:
            for record in records:
                self._refine_record(record)
            return
        for record in records:
            self.records.append(record)
            key = record.get("point_key")
            if key:
                self.seen.add(key)
                self._record_by_key[key] = record
        self._generation += 1

    def _refine_record(self, record: Dict) -> None:
        """Swap a point's record for a higher-fidelity re-evaluation."""
        key = record.get("point_key")
        previous = self._record_by_key.get(key) if key else None
        if previous is None:
            # A refinement for a point this strategy never proposed (e.g.
            # replayed from an archive): treat it as a plain observation,
            # without consuming a generation.
            self.records.append(record)
            if key:
                self.seen.add(key)
                self._record_by_key[key] = record
            return
        if "error" in record and "error" not in previous:
            return  # a failed re-evaluation never hides a scored record
        for index, existing in enumerate(self.records):
            if existing is previous:
                self.records[index] = record
                break
        self._record_by_key[key] = record

    # -------------------------------------------------------------- helpers
    def _register(self, point: DesignPoint) -> str:
        key = point.key()
        self._by_key.setdefault(key, point)
        return key

    def _group_of_record(self, record: Dict) -> Tuple:
        point = self._by_key.get(record.get("point_key"))
        if point is None:
            point = DesignPoint.from_dict(record["point"])
        return _point_group(point)

    def _scored_by_group(self) -> Dict[Tuple, List[Dict]]:
        groups: Dict[Tuple, List[Dict]] = {}
        for record in self.records:
            if "error" in record:
                continue
            groups.setdefault(self._group_of_record(record), []).append(record)
        return groups

    def _energies(self, records: Sequence[Dict]) -> List[float]:
        """Scalarized energy per record (see :func:`scalarized_energies`)."""
        return scalarized_energies(records, self.objectives)

    def _mutate_point(self, point: DesignPoint) -> Optional[DesignPoint]:
        """One-axis neighbor of a point (spec points mutate their spec)."""
        if point.pipeline_spec is not None:
            mutated = mutate_spec(point.pipeline_spec, self.rng)
            if mutated is None or mutated == point.pipeline_spec:
                return None
            return dataclasses.replace(point, pipeline_spec=mutated)
        axes = sorted(
            axis for axis, domain in self.domains.items() if len(domain) > 1
        )
        if not axes:
            return None
        axis = axes[self.rng.randrange(len(axes))]
        current = getattr(point, axis)
        candidates = [value for value in self.domains[axis] if value != current]
        if not candidates:
            return None
        return dataclasses.replace(point, **{axis: self.rng.choice(candidates)})

    def _unseen_space_order(self) -> List[DesignPoint]:
        """A stable seeded shuffle of the space for fallback top-ups."""
        order = list(self.points)
        random.Random(self.seed + 1).shuffle(order)
        return order


# ---------------------------------------------------------------------------
# Exhaustive / random baselines
# ---------------------------------------------------------------------------


@register_strategy
class ExhaustiveSearch(SearchStrategy):
    """The whole space in generation order; the budget simply truncates."""

    name = "exhaustive"
    defaults = dict(SearchStrategy.defaults)

    def _propose(self, limit: int) -> List[DesignPoint]:
        batch = []
        for point in self.points:
            if len(batch) >= limit:
                break
            if point.key() in self.seen:
                continue
            batch.append(point)
        return batch


@register_strategy
class RandomSearch(SearchStrategy):
    """A seeded shuffle of the space, evaluated until the budget runs out."""

    name = "random"
    defaults = dict(SearchStrategy.defaults)

    def __init__(self, points, **kwargs) -> None:
        super().__init__(points, **kwargs)
        self._order = list(self.points)
        self.rng.shuffle(self._order)

    def _propose(self, limit: int) -> List[DesignPoint]:
        batch = []
        for point in self._order:
            if len(batch) >= limit:
                break
            if point.key() in self.seen:
                continue
            batch.append(point)
        return batch


# ---------------------------------------------------------------------------
# Genetic search
# ---------------------------------------------------------------------------


@register_strategy
class GeneticSearch(SearchStrategy):
    """Tournament-selected genetic search over knobs and pipeline specs.

    Generation 0 is a seeded sample of the space.  Afterwards, parents are
    tournament-selected per workload group — non-dominated records first,
    scalarized energy as the tiebreak — and offspring come from uniform
    crossover plus per-axis mutation (``mutation_rate``).  When the
    operators stall (neighborhood exhausted), the batch tops up with
    not-yet-evaluated space points so the budget is always usable.
    """

    name = "genetic"
    defaults = {
        **SearchStrategy.defaults,
        "population": 8,
        "mutation_rate": 0.25,
        "tournament": 2,
    }

    def __init__(self, points, **kwargs) -> None:
        super().__init__(points, **kwargs)
        if int(self.population) < 1:
            raise ValueError(f"population must be >= 1 (got {self.population})")
        if not 0.0 <= float(self.mutation_rate) <= 1.0:
            raise ValueError(
                f"mutation_rate must be in [0, 1] (got {self.mutation_rate})"
            )

    def _propose(self, limit: int) -> List[DesignPoint]:
        count = min(int(self.population), limit)
        batch: List[DesignPoint] = []
        batch_keys: set = set()

        def take(point: DesignPoint) -> None:
            key = self._register(point)
            if key not in self.seen and key not in batch_keys:
                batch_keys.add(key)
                batch.append(point)

        if not self.records:
            order = list(self.points)
            self.rng.shuffle(order)
            for point in order:
                if len(batch) >= count:
                    break
                take(point)
            return batch

        groups = self._scored_by_group()
        group_names = sorted(groups)
        # Records are frozen while proposing, so pre-compute each group's
        # frontier membership and energies once instead of per tournament.
        fitness_context = {
            group: (
                {
                    r.get("point_key")
                    for r in pareto_frontier(groups[group], self.objectives)
                },
                self._energies(groups[group]),
            )
            for group in group_names
        }
        attempts, max_attempts = 0, 30 * count + 30
        while group_names and len(batch) < count and attempts < max_attempts:
            attempts += 1
            group = group_names[self.rng.randrange(len(group_names))]
            records = groups[group]
            frontier_keys, energies = fitness_context[group]
            first = self._tournament(records, frontier_keys, energies)
            second = self._tournament(records, frontier_keys, energies)
            child = self._offspring(first, second)
            if child is not None:
                take(child)
        if len(batch) < count:
            for point in self._unseen_space_order():
                if len(batch) >= count:
                    break
                take(point)
        return batch

    def _tournament(
        self,
        records: Sequence[Dict],
        frontier_keys: set,
        energies: Sequence[float],
    ) -> Dict:
        best = None
        for _ in range(max(1, int(self.tournament))):
            index = self.rng.randrange(len(records))
            rank = 0 if records[index].get("point_key") in frontier_keys else 1
            fitness = (rank, energies[index], index)
            if best is None or fitness < best[0]:
                best = (fitness, records[index])
        return best[1]

    def _offspring(self, first: Dict, second: Dict) -> Optional[DesignPoint]:
        parent_a = self._by_key.get(first.get("point_key"))
        parent_b = self._by_key.get(second.get("point_key"))
        if parent_a is None or parent_b is None:
            return None
        if parent_a.pipeline_spec is not None and parent_b.pipeline_spec is not None:
            # Work from canonical parent forms: offspring come back
            # canonical, so comparing against a raw parent spelling would
            # let a same-design child masquerade as novel and burn budget.
            # (Both parents have scored records, so their specs are valid.)
            spec_a, spec_b = parent_a.canonical_spec(), parent_b.canonical_spec()
            child_spec = crossover_specs(spec_a, spec_b, self.rng)
            if child_spec is None:
                return None
            if self.rng.random() < float(self.mutation_rate):
                mutated = mutate_spec(child_spec, self.rng)
                if mutated is not None:
                    child_spec = mutated
            if child_spec == spec_a or child_spec == spec_b:
                # Crossover collapsed onto a parent; force one mutation.
                mutated = mutate_spec(child_spec, self.rng)
                if mutated is None:
                    return None
                child_spec = mutated
            return dataclasses.replace(parent_a, pipeline_spec=child_spec)
        if parent_a.pipeline_spec is not None or parent_b.pipeline_spec is not None:
            # Mixed representations cannot crossover; mutate parent A.
            return self._mutate_point(parent_a)
        values = {}
        for axis in DesignPoint.KNOB_AXES:
            source = parent_a if self.rng.random() < 0.5 else parent_b
            values[axis] = getattr(source, axis)
        for axis, domain in sorted(self.domains.items()):
            if len(domain) > 1 and self.rng.random() < float(self.mutation_rate):
                candidates = [v for v in domain if v != values[axis]]
                values[axis] = self.rng.choice(candidates)
        return dataclasses.replace(parent_a, **values)


# ---------------------------------------------------------------------------
# Simulated annealing
# ---------------------------------------------------------------------------


@register_strategy
class AnnealSearch(SearchStrategy):
    """Per-workload simulated-annealing chains with geometric cooling.

    Each identity group (workload × platform) runs ``chains`` independent
    chains.  Every generation each chain proposes a one-axis neighbor of
    its current point (spec points mutate their pipeline spec); moves are
    accepted by the Metropolis rule on scalarized energy at the current
    temperature, which cools by ``cooling`` after every generation.
    Already-evaluated neighbors are skipped (novel proposals only), making
    the walk tabu-flavored and the budget exact.
    """

    name = "anneal"
    defaults = {
        **SearchStrategy.defaults,
        "chains": 2,
        "temperature": 1.0,
        "cooling": 0.9,
    }

    def __init__(self, points, **kwargs) -> None:
        super().__init__(points, **kwargs)
        self._chain_state: Optional[List[Dict]] = None
        self._temp = float(self.temperature)

    def _propose(self, limit: int) -> List[DesignPoint]:
        batch: List[DesignPoint] = []
        batch_keys: set = set()
        if self._chain_state is None:
            self._chain_state = []
            groups: Dict[Tuple, List[DesignPoint]] = {}
            for point in self.points:
                groups.setdefault(_point_group(point), []).append(point)
            for group in sorted(groups):
                members = list(groups[group])
                self.rng.shuffle(members)
                picked = 0
                for point in members:
                    if picked >= int(self.chains) or len(batch) >= limit:
                        break
                    key = point.key()
                    if key in self.seen or key in batch_keys:
                        continue
                    batch_keys.add(key)
                    batch.append(point)
                    self._chain_state.append(
                        {"group": group, "current": None, "proposed": key}
                    )
                    picked += 1
            return batch
        for chain in self._chain_state:
            if len(batch) >= limit:
                break
            proposal = self._chain_proposal(chain, batch_keys)
            if proposal is None:
                continue
            key = self._register(proposal)
            batch_keys.add(key)
            batch.append(proposal)
            chain["proposed"] = key
        return batch

    def _chain_proposal(
        self, chain: Dict, batch_keys: set
    ) -> Optional[DesignPoint]:
        current_key = chain.get("current")
        if current_key is None:
            # The chain never landed (seed point errored): restart it on a
            # fresh unexplored point of its group.
            for point in self._unseen_space_order():
                key = point.key()
                if _point_group(point) != chain["group"]:
                    continue
                if key in self.seen or key in batch_keys:
                    continue
                return point
            return None
        current = self._by_key[current_key]
        for _ in range(24):
            neighbor = self._mutate_point(current)
            if neighbor is None:
                return None
            key = neighbor.key()
            if key in self.seen or key in batch_keys:
                continue
            return neighbor
        return None

    def observe(self, records: Sequence[Dict], *, refinement: bool = False) -> None:
        super().observe(records, refinement=refinement)
        if refinement:
            # Replaced records re-enter the energy landscape on the next
            # generation; chain positions are unaffected by a re-score.
            return
        groups = self._scored_by_group()
        for chain in self._chain_state or []:
            proposed = chain.pop("proposed", None)
            if proposed is None:
                continue
            record = self._record_by_key.get(proposed)
            if record is None or "error" in record:
                continue
            if chain["current"] is None:
                chain["current"] = proposed
                continue
            group_records = groups.get(chain["group"], [])
            energies = self._energies(group_records)
            by_key = {
                r.get("point_key"): e for r, e in zip(group_records, energies)
            }
            energy_new = by_key.get(proposed, float("inf"))
            energy_cur = by_key.get(chain["current"], float("inf"))
            if energy_new <= energy_cur:
                chain["current"] = proposed
                continue
            scale = max(self._temp, 1e-9)
            if self.rng.random() < math.exp(-(energy_new - energy_cur) / scale):
                chain["current"] = proposed
        self._temp *= float(self.cooling)
