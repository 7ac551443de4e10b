"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a
seed.  Everything about it is deterministic: whether a spec fires at a
given site invocation depends only on the plan's seed, the spec, the
site's selectors (merge round, group, task index) and the *attempt
number* of the invocation -- never on wall-clock time or global RNG
state.  Running the same plan against the same input twice therefore
injects exactly the same faults, which is what lets the chaos test
matrix assert bit-identity.

Sites
-----
``darray:label``
    One tile-labeling task of the distributed array's ``shmem``
    transport (:mod:`repro.darray`; ``task`` selects the tile id).
``darray:final``
    One final interior-relabel task (``task`` = tile id).
``darray:hist``
    One tile-tally task of the ``shmem`` histogram (``task`` = tile id).
``darray:border``
    One border-exchange task of the ``shmem`` transport (``round``
    selects the merge iteration, 0-based; ``group`` the border group
    within it).  ``corrupt`` damages the fetched border payload, which
    the transport's validation detects and reports as the retryable
    :class:`~repro.utils.errors.CorruptPayloadError`.
``darray:fetch``
    One change-array fetch/apply task of the ``shmem`` transport:
    region tiles fetching the published change list and relabeling
    their perimeters (``round``/``group`` as for ``darray:border``).
``sim:merge``
    A processor fault at a merge-round boundary of the **BDM
    simulator** (``round``/``group`` as for ``darray:border``).
    ``target`` chooses which end of the border dies: ``"manager"``
    (default -- the shadow manager fails over), ``"shadow"`` (the
    manager solves both sides itself), or ``"both"`` (unrecoverable;
    the run raises
    :class:`~repro.utils.errors.FailoverError`).
``svc:exec``
    One request-execution task of the batch-serving layer
    (:mod:`repro.service`; ``task`` selects the request's index within
    its batch).  Lets ``repro serve --fault-plan`` exercise degraded
    serving: the dispatcher retries/respawns underneath the batch and
    the executor falls back to in-process serial compute when recovery
    is exhausted.
``svc:route``
    One forward of a request from the shard router to a shard
    (:mod:`repro.service.router`; ``task`` selects the shard index,
    ``attempt`` the routing attempt).  ``hang`` delays the forward past
    the hedge budget (exercising hedged retries), ``exception`` fails
    it (exercising ring-successor rerouting).
``svc:health``
    One health probe of the router's per-shard monitor
    (:mod:`repro.service.health`; ``task`` selects the shard index,
    ``attempt`` the probe sequence number).  ``hang``/``exception``
    make the probe miss its deadline, driving the shard's breaker
    open without harming a real process.

Kinds
-----
``crash``
    The worker process dies hard (``os._exit``); for ``sim:merge`` the
    named processor drops its protocol role for the round.
``hang``
    The worker sleeps past its deadline (``delay_s``, default well
    past any sane timeout); the dispatcher cuts it off.
``exception``
    The task raises :class:`~repro.utils.errors.TransientTaskError`.
``corrupt``
    Only at ``darray:border`` (and ``svc:shmem``): the fetched border
    payload is corrupted (labels negated), which the consuming task's
    validation detects and reports as
    :class:`~repro.utils.errors.CorruptPayloadError`.

Faults fire at *task entry*, before the task mutates shared state, so
a retried task always starts from a consistent view.

JSON schema (``repro-faults/v1``)::

    {"schema": "repro-faults/v1",
     "seed": 0,
     "faults": [{"site": "darray:border", "kind": "crash",
                 "round": 1, "group": 0, "times": 1}]}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.utils.errors import ValidationError

#: Plan schema identifier embedded in serialized plans.
SCHEMA = "repro-faults/v1"

#: Recognized fault sites.
SITES = (
    "darray:label", "darray:border", "darray:fetch", "darray:final",
    "darray:hist", "sim:merge",
    "svc:exec", "svc:shmem", "svc:route", "svc:health",
)

#: Recognized fault kinds.
KINDS = ("crash", "hang", "exception", "corrupt")

#: ``sim:merge`` targets.
TARGETS = ("manager", "shadow", "both")

#: Default sleep of a ``hang`` fault -- far beyond any sane deadline,
#: so the dispatcher's timeout (not the sleep) ends the task.
DEFAULT_HANG_S = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    ``None`` selectors are wildcards: a spec with ``round=None``
    matches every merge round.  ``times`` bounds how many *attempts* of
    a matching invocation fire (attempts 0..times-1); ``times=-1``
    means every attempt, which defeats retry and forces degradation or
    a typed error.  ``probability`` thins firing decisions
    deterministically from the plan seed.
    """

    site: str
    kind: str
    round: int | None = None
    group: int | None = None
    task: int | None = None
    target: str = "manager"
    times: int = 1
    probability: float = 1.0
    delay_s: float | None = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValidationError(f"unknown fault site {self.site!r}; known: {list(SITES)}")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown fault kind {self.kind!r}; known: {list(KINDS)}")
        if self.kind == "corrupt" and self.site not in ("svc:shmem", "darray:border"):
            raise ValidationError(
                "kind 'corrupt' is only defined for sites 'svc:shmem' and "
                "'darray:border'"
            )
        if self.site == "sim:merge" and self.kind != "crash":
            raise ValidationError("site 'sim:merge' models processor loss; use kind 'crash'")
        if self.site in ("svc:route", "svc:health") and self.kind not in ("hang", "exception"):
            raise ValidationError(
                f"site {self.site!r} runs on the router's event loop; only "
                f"'hang' and 'exception' are defined (kill shard *processes* "
                f"with 'repro chaos --tier service' instead)"
            )
        if self.target not in TARGETS:
            raise ValidationError(f"unknown target {self.target!r}; known: {list(TARGETS)}")
        if self.times < -1 or self.times == 0:
            raise ValidationError("times must be a positive count or -1 (every attempt)")
        if not (0.0 <= self.probability <= 1.0):
            raise ValidationError("probability must be within [0, 1]")
        if self.delay_s is not None and self.delay_s < 0:
            raise ValidationError("delay_s must be non-negative")

    def matches(self, site: str, *, round=None, group=None, task=None, attempt=0) -> bool:
        """Does this spec select the given site invocation attempt?"""
        if site != self.site:
            return False
        for mine, theirs in ((self.round, round), (self.group, group), (self.task, task)):
            if mine is not None and mine != theirs:
                return False
        return self.times == -1 or attempt < self.times

    @property
    def hang_s(self) -> float:
        return DEFAULT_HANG_S if self.delay_s is None else self.delay_s

    def describe(self) -> str:
        sel = [
            f"{k}={v}"
            for k, v in (("round", self.round), ("group", self.group), ("task", self.task))
            if v is not None
        ]
        if self.site == "sim:merge":
            sel.append(f"target={self.target}")
        if self.times != 1:
            sel.append(f"times={self.times}")
        inner = f"[{','.join(sel)}]" if sel else ""
        return f"{self.kind}@{self.site}{inner}"


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of :class:`FaultSpec` entries.

    The plan is picklable (it crosses the pool-initializer boundary
    into workers) and JSON round-trippable via :meth:`to_json` /
    :meth:`from_json`.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def match(self, site: str, *, round=None, group=None, task=None, attempt=0):
        """First spec that fires for this invocation, or ``None``.

        The firing decision of a probabilistic spec is a deterministic
        hash of (seed, spec index, site, selectors, attempt).
        """
        hits = self.match_all(site, round=round, group=group, task=task, attempt=attempt)
        return hits[0] if hits else None

    def match_all(self, site: str, *, round=None, group=None, task=None, attempt=0):
        """Every spec that fires for this invocation (see :meth:`match`).

        The simulator uses this to combine losses: separate manager and
        shadow specs on the same round/group add up to an unrecoverable
        double loss.
        """
        hits = []
        for index, spec in enumerate(self.faults):
            if not spec.matches(site, round=round, group=group, task=task, attempt=attempt):
                continue
            if spec.probability < 1.0:
                key = f"{self.seed}:{index}:{site}:{round}:{group}:{task}:{attempt}"
                digest = hashlib.sha256(key.encode()).digest()
                draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
                if draw >= spec.probability:
                    continue
            hits.append(spec)
        return hits

    def sites(self) -> set[str]:
        return {spec.site for spec in self.faults}

    @property
    def is_empty(self) -> bool:
        return not self.faults

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "faults": [_spec_dict(spec) for spec in self.faults],
        }

    @classmethod
    def from_json(cls, obj) -> "FaultPlan":
        if not isinstance(obj, dict):
            raise ValidationError("fault plan must be a JSON object")
        if obj.get("schema", SCHEMA) != SCHEMA:
            raise ValidationError(f"unknown fault-plan schema {obj.get('schema')!r}")
        faults = obj.get("faults", [])
        if not isinstance(faults, list):
            raise ValidationError("'faults' must be a list")
        specs = []
        known = {f.name for f in FaultSpec.__dataclass_fields__.values()}
        for i, entry in enumerate(faults):
            if not isinstance(entry, dict):
                raise ValidationError(f"faults[{i}] is not an object")
            unknown = set(entry) - known
            if unknown:
                raise ValidationError(f"faults[{i}] has unknown key(s): {sorted(unknown)}")
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as exc:
                raise ValidationError(f"faults[{i}]: {exc}") from exc
        seed = obj.get("seed", 0)
        if not isinstance(seed, int):
            raise ValidationError("'seed' must be an integer")
        return cls(seed=seed, faults=tuple(specs))

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_json(obj)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    def describe(self) -> str:
        if self.is_empty:
            return "(empty plan)"
        return " + ".join(spec.describe() for spec in self.faults)


def _spec_dict(spec: FaultSpec) -> dict:
    defaults = {f.name: f.default for f in FaultSpec.__dataclass_fields__.values()}
    return {
        k: v
        for k, v in asdict(spec).items()
        if k in ("site", "kind") or v != defaults.get(k)
    }


def single_fault_plans(
    *,
    workload: str,
    engine: str,
    n_rounds: int,
    n_tasks: int,
    seed: int = 0,
) -> list[FaultPlan]:
    """The chaos matrix: every single-fault plan for a workload/engine.

    ``engine`` is ``"darray"`` (the ``shmem`` transport's worker tasks)
    or ``"sim"`` (the simulator's shadow-manager failover).
    ``n_rounds`` is the number of merge iterations of the processor
    grid actually used, ``n_tasks`` its tile count.  Each returned plan
    injects exactly one fault; the matrix covers every kind at the
    first and last tile task plus every merge round.
    """
    if workload not in ("histogram", "components"):
        raise ValidationError(f"unknown workload {workload!r}")
    if engine not in ("sim", "darray"):
        raise ValidationError(f"unknown engine {engine!r}")
    plans: list[FaultPlan] = []

    def add(**kw):
        plans.append(FaultPlan(seed=seed, faults=(FaultSpec(**kw),)))

    if engine == "sim":
        if workload != "components":
            raise ValidationError("the simulator fault model covers components only")
        for rnd in range(n_rounds):
            add(site="sim:merge", kind="crash", round=rnd, group=0, target="manager")
            add(site="sim:merge", kind="crash", round=rnd, group=0, target="shadow")
        return plans

    for kind in ("crash", "hang", "exception"):
        if workload == "histogram":
            add(site="darray:hist", kind=kind, task=0)
            if n_tasks > 1:
                add(site="darray:hist", kind=kind, task=n_tasks - 1)
            continue
        add(site="darray:label", kind=kind, task=0)
        add(site="darray:final", kind=kind, task=n_tasks - 1)
        for rnd in range(n_rounds):
            add(site="darray:border", kind=kind, round=rnd, group=0)
        if n_rounds:
            add(site="darray:fetch", kind=kind, round=n_rounds - 1, group=0)
    if workload == "components":
        for rnd in range(n_rounds):
            add(site="darray:border", kind="corrupt", round=rnd, group=0)
    return plans
