"""Content-addressed compile cache for :class:`~repro.compiler.pipeline.CompiledRegex`.

The five-step pipeline (§7) is deterministic: the same pattern text under
the same :class:`~repro.compiler.pipeline.CompilerOptions` always yields
the same AH-NBVA.  That makes compilation memoisable — exactly what
Hyperscan's precompiled pattern databases and Cicero's compilation-reuse
argument exploit (PAPERS.md) — so a process serving a large Snort or
ClamAV ruleset need not redo parse→rewrite→Glushkov→AH work on every
start.

Cache key
---------

``sha256(code_version · options_fingerprint · pattern)``:

* **pattern text** — the exact source string;
* **options fingerprint** (:func:`options_fingerprint`) — every
  :class:`CompilerOptions` knob that can change the compiled artifact:
  ``bv_size``, ``unfold_threshold``, ``reduce_level`` (a reduced and an
  unreduced automaton are different artifacts and must never cross-hit),
  all :class:`ArchParams` capacities, and the compile-time budget limits
  (``max_states`` / ``max_unfold`` / ``max_bv_width``).  Runtime-only
  knobs (deadline, scan-cache bytes, dense-table states) are
  deliberately excluded — they never alter the artifact;
* **code version** (:func:`code_version`) — a digest over the source of
  every package that determines compiler output (``repro.regex``,
  ``repro.automata``, ``repro.compiler``), so editing any compiler pass
  invalidates the whole cache automatically.  The prefilter literal
  extractor (``repro.compiler.prefilter``) lives in the versioned tree:
  its per-pattern ``literals`` ride inside the cached
  :class:`CompiledRegex`, and any change to the extraction rules rolls
  the digest and recompiles them.

Layers
------

:class:`CompileCache` stacks two layers:

* an **in-memory LRU** (``max_entries``), shared by every lookup in the
  process;
* an optional **on-disk store** (``cache_dir``): one pickle per entry at
  ``<cache_dir>/<key[:2]>/<key>.pkl``, written atomically (temp file +
  ``os.replace``), evicted oldest-access-first once the directory
  exceeds ``max_disk_bytes``.  Loads are corruption-tolerant: a
  truncated, unreadable, or stale pickle is deleted and reported as a
  miss, so a damaged cache can only ever cost a recompile.

Telemetry (when metrics are enabled): ``compile.cache.hits``,
``compile.cache.misses``, ``compile.cache.disk_hits``,
``compile.cache.corrupt``, ``compile.cache.evictions``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry

log = logging.getLogger("repro.compiler.cache")

#: Default bound on the in-memory layer (entries, not bytes: compiled
#: automata for rule-set patterns are small, a few kB each).
DEFAULT_MAX_ENTRIES = 4096

#: Default size cap for the on-disk store.
DEFAULT_MAX_DISK_BYTES = 256 << 20

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Packages whose source determines compiler output; editing any file in
#: them must invalidate every cached artifact.
_VERSIONED_PACKAGES = ("regex", "automata", "compiler")

_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of the compiler-relevant source tree (computed once).

    Hashing the actual module files (names + bytes, sorted) means a
    cache produced by one checkout is never served to another: any edit
    to the parser, the rewriter, the translators, or the mapper changes
    the digest and therefore every cache key.
    """
    global _code_version
    if _code_version is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for package in _VERSIONED_PACKAGES:
            for path in sorted((root / package).glob("*.py")):
                digest.update(path.name.encode())
                try:
                    digest.update(path.read_bytes())
                except OSError:  # pragma: no cover - unreadable source
                    continue
        _code_version = digest.hexdigest()[:16]
    return _code_version


def options_fingerprint(options: Any) -> str:
    """Stable text encoding of the artifact-relevant compiler knobs."""
    arch = options.arch
    budget = options.budget
    return repr((
        # Anchor-semantics marker: ^/$/\b used to be stripped at parse
        # time, so an anchored pattern compiled to the same artifact as
        # its plain form.  Now they lower to positional gates and the
        # artifact carries an AnchorInfo; the marker keeps artifacts
        # from the two regimes apart even under a pinned code version.
        "anchors-v1",
        options.bv_size,
        options.unfold_threshold,
        # The reduction level changes the compiled automaton itself, so a
        # reduced artifact must never be served to a --no-reduce compile
        # (or vice versa).  getattr keeps old pickled options readable.
        getattr(options, "reduce_level", 0),
        arch.stes_per_tile,
        arch.bvs_per_tile,
        arch.tiles_per_array,
        arch.arrays_per_bank,
        arch.hardware_bv_bits,
        budget.max_states,
        budget.max_unfold,
        budget.max_bv_width,
    ))


def cache_key(pattern: str, options: Any, version: Optional[str] = None) -> str:
    """The content address of one (pattern, options, code) compile."""
    digest = hashlib.sha256()
    digest.update((version or code_version()).encode())
    digest.update(b"\x00")
    digest.update(options_fingerprint(options).encode())
    digest.update(b"\x00")
    digest.update(pattern.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


class CompileCache:
    """Two-layer (memory + optional disk) compile cache.

    Thread-safe; one instance can back every ``compile_ruleset`` /
    ``PatternSet`` in a process.  Entries are stored with a normalised
    ``regex_id`` and re-badged on the way out, so the same pattern text
    hits regardless of its position in a batch.

    Args:
        cache_dir: directory of the on-disk layer; ``None`` keeps the
            cache purely in-memory.
        max_entries: in-memory LRU bound.
        max_disk_bytes: on-disk footprint cap (oldest-access eviction).
        version: code-version override (tests); defaults to
            :func:`code_version`.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_disk_bytes: int = DEFAULT_MAX_DISK_BYTES,
        version: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be >= 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_entries = max_entries
        self.max_disk_bytes = max_disk_bytes
        self.version = version or code_version()
        self._lock = threading.Lock()
        #: In-memory LRU: dict insertion order is recency, oldest first.
        self._memory: Dict[str, Any] = {}
        self._disk_bytes: Optional[int] = None  # scanned lazily
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt = 0
        self.evictions = 0
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- key plumbing --------------------------------------------------

    def key_for(self, pattern: str, options: Any) -> str:
        return cache_key(pattern, options, self.version)

    def _path_for(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.pkl"

    # -- lookup --------------------------------------------------------

    def get(self, pattern: str, options: Any, regex_id: int = 0) -> Any:
        """The cached :class:`CompiledRegex`, re-badged to ``regex_id``,
        or ``None`` on a miss."""
        key = self.key_for(pattern, options)
        with self._lock:
            compiled = self._memory.pop(key, None)
            if compiled is not None:
                self._memory[key] = compiled  # now the most recent
                self.hits += 1
                self._count("compile.cache.hits")
                return self._badge(compiled, regex_id)
            compiled = self._disk_get(key)
            if compiled is not None:
                self._memory_put(key, compiled)
                self.hits += 1
                self.disk_hits += 1
                self._count("compile.cache.hits")
                self._count("compile.cache.disk_hits")
                return self._badge(compiled, regex_id)
            self.misses += 1
            self._count("compile.cache.misses")
            return None

    def put(self, pattern: str, options: Any, compiled: Any) -> None:
        """Store one successful compile in both layers."""
        key = self.key_for(pattern, options)
        with self._lock:
            self._memory_put(key, compiled)
            if self.cache_dir is not None:
                self._disk_put(key, compiled)

    @staticmethod
    def _badge(compiled: Any, regex_id: int) -> Any:
        if compiled.regex_id == regex_id:
            return compiled
        import dataclasses

        return dataclasses.replace(compiled, regex_id=regex_id)

    # -- in-memory layer -----------------------------------------------

    def _memory_put(self, key: str, compiled: Any) -> None:
        self._memory.pop(key, None)
        self._memory[key] = compiled
        while len(self._memory) > self.max_entries:
            del self._memory[next(iter(self._memory))]
            self.evictions += 1
            self._count("compile.cache.evictions")

    # -- on-disk layer -------------------------------------------------

    def _disk_get(self, key: str) -> Any:
        if self.cache_dir is None:
            return None
        path = self._path_for(key)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            stored_version, compiled = pickle.loads(payload)
            if stored_version != self.version:
                raise ValueError("stale cache entry")
        except Exception as error:  # corrupt/stale/unpicklable: recompile
            self.corrupt += 1
            self._count("compile.cache.corrupt")
            log.warning("dropping unreadable cache entry %s (%s)", path, error)
            self._unlink(path)
            return None
        self._touch(path)
        return compiled

    def _disk_put(self, key: str, compiled: Any) -> None:
        path = self._path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps((self.version, compiled), _PICKLE_PROTOCOL)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)  # atomic: readers never see partials
            except BaseException:
                self._unlink(Path(tmp))
                raise
        except (OSError, pickle.PicklingError) as error:
            log.warning("compile cache write failed for %s (%s)", path, error)
            return
        if self._disk_bytes is None:
            self._disk_bytes = self._scan_disk_bytes()
        else:
            self._disk_bytes += len(payload)
        if self._disk_bytes > self.max_disk_bytes:
            self._evict_disk()

    def _evict_disk(self) -> None:
        """Drop oldest-access entries until the store fits the cap."""
        entries: List[Tuple[float, int, Path]] = []
        for path in self.cache_dir.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        total = sum(size for _mtime, size, _path in entries)
        for _mtime, size, path in entries:
            if total <= self.max_disk_bytes:
                break
            self._unlink(path)
            total -= size
            self.evictions += 1
            self._count("compile.cache.evictions")
        self._disk_bytes = total

    def _scan_disk_bytes(self) -> int:
        total = 0
        for path in self.cache_dir.glob("*/*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh the access stamp the disk LRU sorts on."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- maintenance / introspection -----------------------------------

    def clear(self, disk: bool = True) -> None:
        """Empty the memory layer (and the disk layer unless ``disk=False``)."""
        with self._lock:
            self._memory.clear()
            if disk and self.cache_dir is not None:
                for path in self.cache_dir.glob("*/*.pkl"):
                    self._unlink(path)
                self._disk_bytes = 0

    def cache_info(self) -> Dict[str, Any]:
        with self._lock:
            disk_bytes = (
                self._scan_disk_bytes() if self.cache_dir is not None else 0
            )
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "corrupt": self.corrupt,
                "evictions": self.evictions,
                "entries": len(self._memory),
                "max_entries": self.max_entries,
                "disk_bytes": disk_bytes,
                "max_disk_bytes": self.max_disk_bytes,
                "cache_dir": str(self.cache_dir) if self.cache_dir else None,
                "version": self.version,
            }

    @staticmethod
    def _count(name: str) -> None:
        if telemetry.metrics_enabled():
            telemetry.registry().counter(name).inc()
