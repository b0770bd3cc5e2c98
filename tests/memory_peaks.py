"""Traced memory of one call, for the tests that pin how many large
temporaries a function forms."""

import tracemalloc


def traced_peak(f, *args, **kwargs) -> int:
    """Peak bytes traced during ``f(*args, **kwargs)`` beyond those held
    before it (NumPy reports its buffers to ``tracemalloc``).  A first,
    untraced call loads the modules and caches the call may touch."""
    f(*args, **kwargs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
