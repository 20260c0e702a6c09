"""The package's `lru_cache`s, found by the rule of `bench/run.py`
`package_caches`: every callable with a `cache_clear` in the namespace of a
`realroots` module."""

import sys


def package_caches() -> list:
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "realroots" or name.startswith("realroots."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    caches[id(obj)] = obj
    return list(caches.values())


def clear_package_caches() -> None:
    for cache in package_caches():
        cache.cache_clear()
