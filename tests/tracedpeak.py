"""Traced peak memory of one call, for the tests that bound a walk's working set."""

import tracemalloc


def traced_peak_units(f, n):
    """Peak bytes tracemalloc traces while ``f()`` runs, in units of one float n x n array.

    ``f`` runs once untraced first, so one-time allocations (imports, caches)
    are not counted. Under an outer tracer (``-X tracemalloc``, say) the peak
    is reset and read above the memory already traced, and the tracer is left
    running.
    """
    f()
    outer = tracemalloc.is_tracing()
    if outer:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / (n * n * 8)
    finally:
        if not outer:
            tracemalloc.stop()
