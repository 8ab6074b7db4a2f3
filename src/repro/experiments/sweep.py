"""Parallel sweep execution with content-addressed result caching.

Every reproduction sweep is an embarrassingly-parallel grid: each
*cell* — one ``(config, seed)`` unit of work — is an independent,
deterministically-seeded run. This module decomposes sweeps into cells,
fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`,
and memoizes finished cells in an on-disk content-addressed cache so
re-running a sweep only recomputes invalidated cells.

**Determinism.** A cell is a pure function of ``(runner, config,
seed)``: the runner string names a top-level function
(``"module:function"``), the config is a flat JSON-able mapping, and all
randomness inside the runner is seeded from ``seed``. Results are
gathered into a dict and aggregated in *plan order* — never completion
order — so parallel and serial executions produce byte-identical rows.
Cached payloads round-trip through JSON (exact for ints and floats), so
warm-cache rows are byte-identical too.

**Cache.** Entries are addressed by a SHA-256 over the cache schema
version, a *code fingerprint* of the whole ``repro`` package (every
``.py`` file's path and contents), the runner, the cell config and the
seed. Editing any source file changes the fingerprint and atomically
invalidates every prior entry; corrupted entry files are deleted and
recomputed. Because the experiment id is deliberately *not* part of the
key, experiments that share cells (e.g. Figure 6(a)'s default-``n``
column and Figure 6(b)'s default-``|AK|`` column) share cache entries.
The default cache directory is ``$REPRO_SWEEP_CACHE_DIR`` or
``~/.cache/crowdsky/sweeps``.

**Observability.** Worker processes cannot trace into the parent's
observation directly; when a global observation is installed, each
worker records its cell under a private observation and ships its trace
events back with the payload. The parent absorbs them
(:meth:`~repro.obs.Tracer.absorb`), and absorbed spans keep their
recorded durations, so the trace of a ``--jobs N`` run folds to its
metrics (:func:`~repro.obs.metrics.metrics_from_events`) exactly as a
serial one does. Executed cells are ``sweep.cell`` spans and fold into
``crowdsky_sweep_cells_total{status="computed"}``. Cache hits emit a
single ``sweep.cached`` trace event (``status="cached"``) — the crowd
work they skipped is *not* re-emitted, so the trace and its metrics
report what this run did.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import ExperimentError
from repro.io.atomic import atomic_write_text
from repro.obs import Observation, current_observation, install, uninstall

#: Bump when the cache entry layout changes (invalidates all entries).
CACHE_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"


def default_cache_dir() -> str:
    """The default on-disk cache location."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "crowdsky", "sweeps"
    )


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Any source edit — an algorithm tweak, a changed default — yields a
    new fingerprint, so stale cache entries can never be served. The
    walk is done once per process and memoized.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


@dataclass(frozen=True)
class Cell:
    """One independent unit of sweep work: ``runner(config, seed)``.

    ``runner`` is a ``"module:function"`` string naming a *top-level*
    function (resolvable by import in a worker process); ``config`` is
    stored as a sorted tuple of items so cells are hashable and
    picklable. ``experiment_id`` labels traces and metrics but does not
    enter the cache key — cells shared between experiments share cache
    entries.
    """

    experiment_id: str
    runner: str
    config: Tuple[Tuple[str, Any], ...]
    seed: int

    @staticmethod
    def make(
        experiment_id: str,
        runner: str,
        config: Mapping[str, Any],
        seed: int,
    ) -> "Cell":
        """Build a cell from a flat JSON-able config mapping."""
        return Cell(
            experiment_id=experiment_id,
            runner=runner,
            config=tuple(sorted(config.items())),
            seed=int(seed),
        )

    def config_dict(self) -> Dict[str, Any]:
        """The cell's config as a plain dict."""
        return dict(self.config)

    def resolve_runner(self):
        """Import and return the runner function."""
        module_name, _, attribute = self.runner.partition(":")
        if not module_name or not attribute:
            raise ExperimentError(
                f"malformed cell runner {self.runner!r}; expected "
                "'module:function'"
            )
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attribute)
        except AttributeError:
            raise ExperimentError(
                f"cell runner {self.runner!r} does not exist"
            ) from None

    def run(self) -> Any:
        """Execute the cell and return its JSON-able payload."""
        return self.resolve_runner()(self.config_dict(), self.seed)


@dataclass
class CacheStats:
    """Per-:class:`SweepCache` bookkeeping (reset per instance)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stored: int = 0


class SweepCache:
    """Content-addressed on-disk store for finished cell payloads.

    Layout: ``<directory>/<key[:2]>/<key>.json`` where ``key`` is the
    cell's content hash (schema version + code fingerprint + runner +
    config + seed). Entries are written atomically (temp file +
    ``os.replace``); unreadable or malformed entries are deleted and
    treated as misses, so a corrupted cache heals itself on the next
    run.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        fingerprint: Optional[str] = None,
    ):
        self.directory = Path(directory or default_cache_dir())
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()

    def key(self, cell: Cell) -> str:
        """The cell's content-address under this cache's fingerprint."""
        payload = json.dumps(
            [
                CACHE_VERSION,
                self.fingerprint,
                cell.runner,
                [[name, value] for name, value in cell.config],
                cell.seed,
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def entry_path(self, cell: Cell) -> Path:
        """Where the cell's entry lives (whether or not it exists)."""
        key = self.key(cell)
        return self.directory / key[:2] / f"{key}.json"

    def get(self, cell: Cell) -> Tuple[bool, Any]:
        """``(hit, payload)`` for the cell; heals corrupted entries.

        Under an active observation each lookup is one
        ``sweep.cache_get`` span whose ``status`` attribute is its
        outcome (hit / miss / corrupt), set before the span closes.
        """
        observation = current_observation()
        if not observation.enabled:
            return self._get(cell)
        corrupt_before = self.stats.corrupt
        with observation.tracer.span("sweep.cache_get") as span:
            hit, payload = self._get(cell)
            span.attrs["status"] = (
                "hit" if hit
                else "corrupt" if self.stats.corrupt > corrupt_before
                else "miss"
            )
        return hit, payload

    def _get(self, cell: Cell) -> Tuple[bool, Any]:
        path = self.entry_path(cell)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return False, None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict) or "payload" not in entry:
                raise ValueError("malformed cache entry")
            if entry.get("version") != CACHE_VERSION:
                raise ValueError("cache entry version mismatch")
            payload = entry["payload"]
        except (ValueError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            # Deliberate swallow: a racing process healed the corrupt
            # entry first; the miss is already counted and the
            # recompute path handles the rest.
            except OSError:  # repro: noqa RA011 - racing cleanup
                pass
            return False, None
        self.stats.hits += 1
        return True, payload

    def put(self, cell: Cell, payload: Any) -> None:
        """Persist one finished cell atomically (one ``sweep.cache_put``
        span with ``status="store"`` when traced)."""
        observation = current_observation()
        if not observation.enabled:
            self._put(cell, payload)
            return
        with observation.tracer.span("sweep.cache_put", status="store"):
            self._put(cell, payload)

    def _put(self, cell: Cell, payload: Any) -> None:
        path = self.entry_path(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "experiment_id": cell.experiment_id,
            "runner": cell.runner,
            "config": [[name, value] for name, value in cell.config],
            "seed": cell.seed,
            "payload": payload,
        }
        # No sort_keys: payload dict order is meaningful (row dicts carry
        # column order), and the content address comes from key(), not
        # from this serialization. Not durable: a lost entry just costs
        # one recompute.
        atomic_write_text(path, json.dumps(entry))
        self.stats.stored += 1


#: What callers may pass wherever a cache is accepted.
CacheLike = Union[None, bool, str, Path, SweepCache]


def resolve_cache(cache: CacheLike) -> Optional[SweepCache]:
    """Normalize a cache argument.

    ``None``/``False`` — caching off; ``True`` — the default directory;
    a path — a cache rooted there; a :class:`SweepCache` — itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SweepCache(default_cache_dir())
    if isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a job count: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return max(1, int(jobs))


def _execute_cell_captured(cell: Cell):
    """Worker-side cell execution with private observability capture.

    Runs in the pool worker. The cell executes under a fresh
    :class:`Observation`; its trace events travel back with the payload
    for the parent to absorb.
    """
    observation = Observation()
    install(observation)
    try:
        with observation.tracer.span(
            "sweep.cell", id=cell.experiment_id, seed=cell.seed
        ):
            payload = cell.run()
    finally:
        uninstall(observation)
    return payload, observation.tracer.events


def _execute_cell_bare(cell: Cell):
    """Worker-side cell execution without capture (observability off)."""
    return cell.run(), None


def run_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    cache: CacheLike = None,
) -> Dict[Cell, Any]:
    """Execute a plan of cells and return ``{cell: payload}``.

    Cached cells are served first; the rest run serially (``jobs <= 1``,
    in-process, under the caller's observation) or across a process pool
    (``jobs > 1``). Results are post-processed in plan order regardless
    of completion order, so aggregation downstream is deterministic.
    Duplicate cells in the plan are executed once.
    """
    plan: List[Cell] = []
    seen = set()
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            plan.append(cell)
    jobs = resolve_jobs(jobs)
    store = resolve_cache(cache)
    observation = current_observation()

    results: Dict[Cell, Any] = {}
    pending: List[Cell] = []
    for cell in plan:
        hit = False
        if store is not None:
            hit, payload = store.get(cell)
        if hit:
            results[cell] = payload
            if observation.enabled:
                observation.tracer.event(
                    "sweep.cached", id=cell.experiment_id, seed=cell.seed
                )
        else:
            pending.append(cell)

    if not pending:
        return results

    if jobs > 1 and len(pending) > 1:
        worker = (
            _execute_cell_captured
            if observation.enabled
            else _execute_cell_bare
        )
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures = [pool.submit(worker, cell) for cell in pending]
            executed = {
                cell: future.result()
                for cell, future in zip(pending, futures)
            }
    else:
        executed = {}
        for cell in pending:
            # In-process: events flow natively into the caller's
            # observation; only the span wrapper is added.
            if observation.enabled:
                with observation.tracer.span(
                    "sweep.cell", id=cell.experiment_id, seed=cell.seed
                ):
                    payload = cell.run()
            else:
                payload = cell.run()
            executed[cell] = (payload, None)

    for cell in pending:  # plan order, not completion order
        payload, events = executed[cell]
        if events:
            observation.tracer.absorb(events)
        if store is not None:
            store.put(cell, payload)
        results[cell] = payload
    return results
