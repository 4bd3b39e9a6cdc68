"""Shared pieces of the workloads: run context, outcome record, fingerprint."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench.tracer import SOLVER_PHASES, Tracer, name_calls, name_seconds


def _units(section: str) -> Dict[str, str]:
    """Name -> unit of one metric list of ``BENCHMARK.json``."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


#: Per-layer metrics of a traced run, with units.  Every traced run reports
#: all of them; a layer a workload does not exercise reads 0.
PER_LAYER_UNITS = _units("per_layer")

#: End-to-end metrics of an untraced run, with units.
END_TO_END_UNITS = _units("end_to_end")

#: Module layers the split reports self time for.
SPLIT_LAYERS = ("io", "api", "engine", "resolution", "encoding", "solvers", "store", "serving", "cdc", "idle")


@dataclass
class RunContext:
    """What a workload needs to know about its run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    short: bool
    workdir: Path
    outdir: Path
    #: Names this run's files under ``outdir/records``.
    label: str = ""
    tracer: Optional[Tracer] = None


@dataclass
class Outcome:
    """What a workload reports back to the runner."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons the correctness check failed (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: Load parameters and sizes (the ledger's load fields).
    load: Dict[str, Any] = field(default_factory=dict)
    #: Spans that started before this belong to set-up and are not written.
    trace_since: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems


#: Seconds :func:`speed_snippet` takes on the host the bounds were set on
#: (2-vCPU shared host, Python 3.11): the speed figures are scaled to.
REFERENCE_SNIPPET_S = 2.0e-3
#: Snippet samples taken next to each set-up, to scale ``setup_s``.
SETUP_SAMPLES = 5


def speed_snippet() -> int:
    """Fixed pure-Python work (dicts, tuples, strings, a sort) that times
    the host's speed; it does not touch the program."""
    table: Dict[Any, int] = {}
    for i in range(1500):
        key = (i % 97, str(i))
        table[key] = table.get(key, 0) + len(key[1])
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return sum(value for _, value in ordered[:100])


class SpeedMeter:
    """The host's speed during a stretch of work, from :func:`speed_snippet`.

    A shared host runs the same CPU work at a speed that drifts from one
    minute to the next and moves every CPU-bound figure with it.  The
    workloads call :meth:`sample` between units of work, in the thread that
    does the work, and scale CPU-bound figures by :meth:`slowdown`, the
    median snippet time over its time on the reference host.  The snippet's
    own CPU time (:attr:`cpu_s`) is left out of the figures.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.thread_time()
            speed_snippet()
            self.samples.append(time.thread_time() - start)

    @property
    def cpu_s(self) -> float:
        return sum(self.samples)

    def slowdown(self) -> float:
        return median(self.samples) / REFERENCE_SNIPPET_S if self.samples else 1.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_cpu() -> Dict[int, float]:
    """CPU seconds used so far by this process and by each of its children.

    Children (engine pool and cluster workers) are read from
    ``/proc/<pid>/stat`` (Linux).  On a virtual machine with steal-time
    accounting, CPU time excludes the time the hypervisor gave to other
    machines, so figures per CPU second hold still on a busy host where
    wall-clock figures do not.
    """
    me = os.getpid()
    tick = os.sysconf("SC_CLK_TCK")
    used = {me: time.process_time()}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            used[int(entry.name)] = (int(fields[11]) + int(fields[12])) / tick
    return used


def cpu_between(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU seconds the process tree used between two :func:`tree_cpu` readings."""
    return sum(seconds - before.get(pid, 0.0) for pid, seconds in after.items())


def cpu_times() -> List[int]:
    """The machine's cumulative CPU jiffies (Linux ``/proc/stat``), or []."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of the machine's CPU time a hypervisor took between two
    :func:`cpu_times` readings (the 8th field), or ``None`` if unknown."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(":", 1)[1].strip()
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        return None
    return None


def source_digest(source: Path) -> str:
    """SHA-256 over the program's Python sources (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> Dict[str, Any]:
    """The environment fingerprint every record carries."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root / "src" / "repro"),
        "unix_time": time.time(),
    }


def canonical_result(result: Any) -> str:
    """Byte-stable projection of a ResolutionResult without timings."""
    payload = {
        "name": result.name,
        "valid": result.valid,
        "complete": result.complete,
        "resolved": sorted((k, repr(v)) for k, v in result.resolved_tuple.items()),
        "true": sorted((k, repr(v)) for k, v in result.true_values.values.items()),
        "fallback": list(result.fallback_attributes),
        "validated": list(result.user_validated_attributes),
        "rounds": result.interaction_rounds,
        "failure": getattr(result, "failure", ""),
    }
    return json.dumps(payload, sort_keys=True)


def split_metrics(summary: Dict[str, Any], wall: float) -> Dict[str, float]:
    """``split.*`` self seconds per layer plus ``trace.coverage``."""
    layers = summary["layers"]
    metrics = {f"split.{layer}_s": layers.get(layer, 0.0) for layer in SPLIT_LAYERS}
    metrics["split.unattributed_s"] = wall - summary["roots"]
    metrics["trace.coverage"] = summary["roots"] / wall if wall > 0 else 0.0
    return metrics


def zero_per_layer() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def engine_counters(statistics: Any) -> Dict[str, float]:
    """The additive ``EngineStatistics`` counters the split reports."""
    return {
        "busy": statistics.busy_seconds,
        "idle": statistics.idle_seconds,
        "chunks": float(statistics.chunks),
        "retries": float(statistics.chunk_retries),
    }


def engine_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        "engine.busy_s": after["busy"] - before["busy"],
        "engine.idle_s": after["idle"] - before["idle"],
        "engine.chunks": after["chunks"] - before["chunks"],
        "engine.chunk_retries": after["retries"] - before["retries"],
    }


def _spec_name(_self: Any, spec: Any, *_args: Any, **_kwargs: Any) -> Any:
    return getattr(spec, "name", None)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross, at the caller's names.

    ``ConflictResolver`` looks ``check_validity``, ``deduce_order``,
    ``extract_true_values`` and ``suggest`` up in its own module, so they are
    wrapped there; methods are wrapped on the class that defines them.
    """
    import repro.resolution.framework as framework
    from repro.api.client import ResolutionClient
    from repro.api.config import RunConfig
    from repro.api.store import ResultStore
    from repro.cdc.consumer import ChangeConsumer
    from repro.cdc.feed import ChangeFeed
    from repro.cdc.impact import RegistryState
    from repro.encoding.incremental import IncrementalEncoder
    from repro.engine.core import ResolutionEngine
    from repro.pipeline.checkpoint import Checkpoint
    from repro.serving.wire import SpecificationBuilder

    tracer.wrap(IncrementalEncoder, "__init__", "encoding.full", key=_spec_name, solver=True)
    tracer.wrap(IncrementalEncoder, "apply_delta", "encoding.delta", solver=True)
    tracer.wrap(framework, "check_validity", "resolution.validity", solver=True)
    tracer.wrap(framework, "deduce_order", "resolution.deduce", solver=True)
    tracer.wrap(framework, "extract_true_values", "resolution.extract", solver=True)
    tracer.wrap(framework, "suggest", "resolution.suggest", solver=True)
    tracer.wrap(framework.ConflictResolver, "resolve", "resolution.resolve", key=_spec_name, solver=True)
    tracer.wrap(ResolutionEngine, "resolve_stream", "engine.stream", generator=True)
    tracer.wrap(ResolutionEngine, "resolve_task", "engine.task", key=_spec_name)
    tracer.wrap(ResolutionClient, "resolve_stream", "api.resolve_stream", generator=True)
    tracer.wrap(ResolutionClient, "resolve", "api.resolve", key=_spec_name)
    tracer.wrap(RunConfig, "spec_hash", "api.spec_hash")
    tracer.wrap(SpecificationBuilder, "__call__", "serving.build_spec", key=lambda _self, request: request.entity)
    tracer.wrap(ResultStore, "get", "store.get", key=lambda _self, key, *_a, **_k: key)
    tracer.wrap(ResultStore, "put", "store.put", key=lambda _self, key, *_a, **_k: key)
    tracer.wrap(ResultStore, "invalidate", "store.invalidate")
    tracer.wrap(ChangeConsumer, "consume", "cdc.consume")
    tracer.wrap(ChangeFeed, "events", "cdc.feed_read")
    tracer.wrap(ChangeFeed, "append", "cdc.feed_append", key=lambda _self, event: event.entity)
    tracer.wrap(RegistryState, "apply", "cdc.state_apply", key=lambda _self, event: getattr(event, "entity", None))
    tracer.wrap(RegistryState, "specification", "cdc.state_spec", key=lambda _self, entity: entity)
    tracer.wrap(Checkpoint, "save", "cdc.cursor_save")


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics that come straight from span totals."""
    full_calls = name_calls(summary, "encoding.full")
    delta_calls = name_calls(summary, "encoding.delta")
    encodes = full_calls + delta_calls
    return {
        "encoding.full_s": name_seconds(summary, "encoding.full"),
        "encoding.full_calls": float(full_calls),
        "encoding.delta_s": name_seconds(summary, "encoding.delta"),
        "encoding.delta_calls": float(delta_calls),
        "encoding.delta_reuse_ratio": delta_calls / encodes if encodes else 0.0,
        "resolution.validity_s": name_seconds(summary, "resolution.validity"),
        "resolution.validity_calls": float(name_calls(summary, "resolution.validity")),
        "resolution.deduce_s": name_seconds(summary, "resolution.deduce", "resolution.extract"),
        "resolution.deduce_calls": float(name_calls(summary, "resolution.deduce")),
        "resolution.suggest_s": name_seconds(summary, "resolution.suggest"),
        "resolution.suggest_calls": float(name_calls(summary, "resolution.suggest")),
        "store.get_s": name_seconds(summary, "store.get"),
        "store.put_s": name_seconds(summary, "store.put"),
        "store.invalidate_s": name_seconds(summary, "store.invalidate"),
        "cdc.feed_read_s": name_seconds(summary, "cdc.feed_read"),
        "cdc.state_s": name_seconds(summary, "cdc.state_apply", "cdc.state_spec"),
        "cdc.cursor_save_s": name_seconds(summary, "cdc.cursor_save"),
        "io.read_s": name_seconds(summary, "io.read_rows", "io.read_rules", "io.build_specs"),
        "io.write_s": name_seconds(summary, "io.write"),
    }


def solver_phases() -> Dict[str, float]:
    """Cumulative ``repro.profiling`` seconds of the SAT-search phases."""
    from repro import profiling

    snapshot = profiling.snapshot()
    return {phase: snapshot.get(phase, {}).get("seconds", 0.0) for phase in SOLVER_PHASES}


def solver_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {f"solvers.{phase}_s": after[phase] - before[phase] for phase in before}
