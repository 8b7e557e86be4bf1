"""Test-side cache control: clear_kernel_caches empties every cache of
hypball.kernels, found by its cache_clear attribute, so a test that needs
cold tables and records cannot miss a new or renamed cache."""

from hypball import kernels


def clear_kernel_caches():
    for value in list(vars(kernels).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
