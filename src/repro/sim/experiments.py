"""Workload registry and scaled problem-size presets.

Table 1 of the paper lists the full problem sizes; pure-Python cycle
simulation needs smaller inputs, so each application defines three
presets with identical *structure* (blocking, communication pattern,
synchronization) at different scales:

* ``tiny``   — unit/integration tests and the paper grids at 8 or
  more nodes (seconds),
* ``bench``  — the paper grids below 8 nodes (default; seconds per
  cell),
* ``default``— larger runs for closer-to-paper miss-rate behaviour.

The capacity-scaled machine models (``cache_scale=32``,
``dir_scale=256`` in :mod:`repro.core.models`) pair with these sizes so
the working-set-to-cache and directory-to-directory-cache ratios stay
in the paper's regime.
"""

from __future__ import annotations

import importlib
from typing import Dict

APPS = ("fft", "fftw", "lu", "ocean", "radix", "water")

#: Paper Table 1 sizes, for reference and for paper_exact runs.
PAPER_SIZES = {
    "fft": dict(points=1 << 20),
    "fftw": dict(nx=8192, ny=16, nz=16),
    "lu": dict(n=512, block=16),
    "ocean": dict(grid=514, iters=10),
    "radix": dict(keys=2_000_000, radix=32),
    "water": dict(molecules=1024, steps=3),
}

PRESETS: Dict[str, Dict[str, Dict]] = {
    "tiny": {
        "fft": dict(points=256, block=4),
        "fftw": dict(nx=8, ny=4, nz=4),
        "lu": dict(n=32, block=8),
        "ocean": dict(grid=18, iters=2),
        "radix": dict(keys=512, radix=16),
        "water": dict(molecules=8, steps=1),
    },
    "bench": {
        "fft": dict(points=1024, block=8),
        "fftw": dict(nx=16, ny=8, nz=8),
        "lu": dict(n=64, block=8),
        "ocean": dict(grid=34, iters=3),
        "radix": dict(keys=4096, radix=64),
        "water": dict(molecules=24, steps=2),
    },
    "default": {
        "fft": dict(points=4096, block=8),
        "fftw": dict(nx=32, ny=16, nz=8),
        "lu": dict(n=96, block=8),
        "ocean": dict(grid=66, iters=4),
        "radix": dict(keys=16384, radix=64),
        "water": dict(molecules=48, steps=2),
    },
}


def preset_sizes(app: str, preset: str) -> Dict:
    try:
        return PRESETS[preset][app]
    except KeyError:
        raise KeyError(
            f"unknown app/preset {app!r}/{preset!r}; apps={APPS}, "
            f"presets={tuple(PRESETS)}"
        ) from None


def app_sources(app: str, machine, params: Dict):
    """Thread sources of ``app`` on ``machine``.  The application module
    is imported here, so a cell imports only the workload it runs."""
    if app not in APPS:
        raise KeyError(f"unknown app {app!r}; pick from {APPS}")
    module = importlib.import_module(f"repro.apps.{app}")
    return module.make_sources(machine, **params)
