"""Cold-cache helper: every operation of the benchmark starts with empty
package caches.

It finds the caches afresh before each operation, by scanning every loaded
``blockgraph`` module for objects with a ``cache_clear`` method (looking
through wrappers via ``__wrapped__``), so a cache added to the package later
is cleared without a change here.  It also counts how many irreducible-
polynomial searches are answered from ``_gf._IRREDUCIBLE_SEEDS``, the table
of precomputed answers for the degrees the bundled corpus uses, so that a
cold run can show how much of it the seed table served.
"""

from __future__ import annotations

import sys


class _CountingSeeds(dict):
    """The seed table, counting the lookups that find an entry."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits += 1
        return value


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "blockgraph" or name.startswith("blockgraph."))
    ]


def _cache_clears(obj):
    seen = set()
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            yield obj, clear
        obj = getattr(obj, "__wrapped__", None)


class ColdCache:
    def __init__(self):
        gf = sys.modules.get("blockgraph._gf")
        seeds = getattr(gf, "_IRREDUCIBLE_SEEDS", None)
        self._seeds = None
        if isinstance(seeds, dict):
            self._seeds = _CountingSeeds(seeds)
            gf._IRREDUCIBLE_SEEDS = self._seeds

    @property
    def seed_hits(self) -> int:
        return self._seeds.hits if self._seeds is not None else 0

    def clear(self) -> None:
        done = set()
        for module in package_modules():
            for value in list(vars(module).values()):
                for owner, clear in _cache_clears(value):
                    if id(owner) not in done:
                        done.add(id(owner))
                        clear()
