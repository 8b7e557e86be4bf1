"""Test-side cache control: clear_kernel_caches empties every cache of
hypball.kernels, found by its cache_clear attribute, so a test that needs
cold tables and records cannot miss a new or renamed cache; record_misses
counts the radial records built, in both of their caches."""

from hypball import kernels


def clear_kernel_caches():
    for value in list(vars(kernels).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def record_misses():
    """Radial records built so far: the misses of the request-radius cache
    (_radial) and of the ball cache (_ball_radial) together."""
    return sum(cache.cache_info().misses for cache in (kernels._radial, kernels._ball_radial))
