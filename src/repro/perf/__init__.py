"""Performance subsystem: static-analysis caching for the simulator.

Repeated simulations of the same program (parameter sweeps, policy
ablations, Theorem-1 ensembles) share one content-keyed
:class:`AnalysisEntry` holding routes, competing-message sets, lookahead
capacities and the constraint labeling — so only the first run pays for
static analysis. See :mod:`repro.perf.analysis_cache`.

Lookups resolve through three tiers, cheapest first:

1. **memory** — the process-local LRU (:class:`AnalysisCache`);
2. **shm** — a single-host shared-memory arena
   (:mod:`repro.perf.shm_cache`) the sweep session publishes its warm
   analyses into: sweep workers attach once and resolve content
   fingerprints with zero filesystem I/O, memoizing deserialized
   entries per process. Disable with ``REPRO_ANALYSIS_SHM_CACHE=0``;
3. **disk** — the persistent tier (:mod:`repro.perf.disk_cache`):
   export ``REPRO_ANALYSIS_DISK_CACHE=/path/to/dir`` or call
   :func:`configure_disk_cache` and every process sharing that
   directory — sweep workers, restarted sweeps, separate sessions —
   reuses analyses computed by any other.
"""

from repro.perf.analysis_cache import (
    AnalysisCache,
    AnalysisEntry,
    AnalysisKey,
    GLOBAL_ANALYSIS_CACHE,
    analysis_cache_stats,
    clear_analysis_cache,
    program_fingerprint,
    router_fingerprint,
    topology_fingerprint,
)
from repro.perf.disk_cache import (
    DiskAnalysisCache,
    active_disk_cache,
    active_disk_cache_config,
    configure_disk_cache,
)
from repro.perf.shm_cache import (
    ShmAnalysisCache,
    active_shm_cache,
    attach_shm_cache,
    ensure_shm_cache,
    reset_shm_cache_state,
    shm_cache_stats,
)

__all__ = [
    "AnalysisCache",
    "AnalysisEntry",
    "AnalysisKey",
    "DiskAnalysisCache",
    "GLOBAL_ANALYSIS_CACHE",
    "ShmAnalysisCache",
    "active_disk_cache",
    "active_disk_cache_config",
    "active_shm_cache",
    "analysis_cache_stats",
    "attach_shm_cache",
    "clear_analysis_cache",
    "configure_disk_cache",
    "ensure_shm_cache",
    "program_fingerprint",
    "reset_shm_cache_state",
    "router_fingerprint",
    "shm_cache_stats",
    "topology_fingerprint",
]
