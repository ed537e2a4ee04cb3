"""Worker-process plumbing shared by the campaign backends.

The execution strategies themselves live in
:mod:`repro.engine.backends`; this module holds the pieces every
process-spawning backend needs:

* :func:`pool_initializer` — per-child bootstrap so ``import repro``
  works in spawned workers even when the repo runs uninstalled (the
  ROADMAP's ``PYTHONPATH=src`` mode). Two mechanisms cover the child:
  the ``spawn`` machinery ships the parent's ``sys.path`` in its
  preparation data, and the initializer additionally pins the source
  root into the child's ``sys.path`` and ``PYTHONPATH`` (the latter so
  the child's own subprocesses inherit it).
* :func:`default_chunk_size` — the dispatch granularity heuristic that
  amortizes per-task pickling/IPC across a chunk of cells.
"""

from __future__ import annotations

import math
import os
import sys

__all__ = ["pool_initializer", "default_chunk_size"]


def _src_root() -> str:
    """Directory that makes ``import repro`` work in a spawned child."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def pool_initializer(src_root: str) -> None:
    """Per-child bootstrap: make ``repro`` importable inside the worker.

    Runs in the *child* process, so it can set ``sys.path`` and
    ``PYTHONPATH`` without racing anything in the parent. Idempotent.
    """
    if src_root not in sys.path:
        sys.path.insert(0, src_root)
    existing = os.environ.get("PYTHONPATH")
    parts = existing.split(os.pathsep) if existing else []
    if src_root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_root] + parts)


def default_chunk_size(n_items: int, jobs: int) -> int:
    """Dispatch granularity that amortizes pickling/IPC without starving.

    Each pool task re-pickles its closure (spec + scheme objects), so
    per-item dispatch pays that serialization once *per cell* — brutal on
    grids of tiny cells. Chunking pays it once per chunk; four chunks per
    worker keeps the pool load-balanced when cell costs vary, and the cap
    of 32 bounds the loss when one chunk lands on a slow cell.
    """
    return max(1, min(32, math.ceil(n_items / (jobs * 4))))
