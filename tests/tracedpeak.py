"""Traced memory of one call, for the tests that bound a walk's working set."""

import tracemalloc


def traced_units(f, n, owner=None, name=None):
    """(peak, starts): the peak bytes tracemalloc traces while ``f()`` runs, and
    the bytes it traces as each call of ``owner.name`` starts (none without
    ``owner``), both in units of one float n x n array.

    ``f`` runs once untraced first, so one-time allocations (imports, caches)
    are not counted. The starts show what a caller holds live through a
    function whose own work tracemalloc cannot see, such as LAPACK's
    workspace inside ``np.linalg.eigh``. Under an outer tracer
    (``-X tracemalloc``, say) the peak is reset and read above the memory
    already traced, and the tracer is left running.
    """
    f()
    starts = []
    if owner is not None:
        inner = getattr(owner, name)

        def probe(*args, **kwargs):
            starts.append(tracemalloc.get_traced_memory()[0])
            return inner(*args, **kwargs)

        setattr(owner, name, probe)
    outer = tracemalloc.is_tracing()
    if outer:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        f()
        unit = n * n * 8
        return ((tracemalloc.get_traced_memory()[1] - base) / unit,
                [(s - base) / unit for s in starts])
    finally:
        if owner is not None:
            setattr(owner, name, inner)
        if not outer:
            tracemalloc.stop()
