"""On-disk memo of the study's deterministic Fig. 3 pipeline.

One entry per configuration: ``study-<blake2b(config)>.npz`` under
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when the variable is unset).
The entry holds a state tree -- nested dicts and lists of JSON scalars and
numpy arrays, as the models' ``state_dict()`` methods return them.  The
arrays are the archive's members and a JSON ``header`` member holds the rest
of the tree, with each array replaced by a reference to its member.  Nothing
is pickled, and files are read only with ``allow_pickle=False``.

The header also records the full key: the configuration, a digest of the
package's sources, the Python/numpy/scipy versions, and the machine and CPU
model (BLAS kernels differ between CPUs, and with them the trained weights'
last bits).  A build with the same key produces the same bits, so a hit
returns exactly what :func:`memoize`'s ``build`` would.  Anything else -- no
entry, another key, a torn or corrupt file, a failed restore -- is a miss:
the value is rebuilt and the entry overwritten.  Entries are written to a
temp file and committed with ``os.replace``; a cache directory that cannot
be written costs only the caching (one warning per process).  Delete the
directory to clear the cache.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import warnings
from pathlib import Path

import numpy as np

__all__ = ["cache_dir", "memoize", "source_digest"]

_HEADER = "header"
_ARRAY_REF = "__array__"
_warned = False


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """blake2b over every ``.py`` file of the installed ``repro`` package."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)


def _plain(value):
    """numpy scalars (e.g. a config's ``np.int64`` seed) as Python scalars."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _key(config) -> str:
    import scipy

    return _canonical(
        {
            "config": dataclasses.asdict(config),
            "source": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpu": _cpu_model(),
        }
    )


def _encode(value, arrays: dict):
    """JSON-ready copy of a state tree; its arrays move into ``arrays``."""
    if isinstance(value, np.ndarray):
        name = f"a{len(arrays)}"
        arrays[name] = value
        return {_ARRAY_REF: name}
    if isinstance(value, dict):
        return {key: _encode(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item, arrays) for item in value]
    return value


def _decode(value, archive):
    """Inverse of :func:`_encode`, reading the arrays from ``archive``."""
    if isinstance(value, dict):
        if _ARRAY_REF in value:
            return archive[value[_ARRAY_REF]]
        return {key: _decode(item, archive) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item, archive) for item in value]
    return value


def _warn_once(message: str) -> None:
    global _warned
    if not _warned:
        _warned = True
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def memoize(config, build, state_of, restore):
    """Return the value for ``config``, from the cache when it holds one.

    Parameters
    ----------
    config:
        A dataclass instance; with the environment it forms the key.
    build:
        Zero-argument callable producing the value (the cold path).
    state_of:
        Maps a value to its state tree.
    restore:
        Maps a state tree back to a value equal to ``build()``'s.
    """
    key = _key(config)
    name = hashlib.blake2b(
        _canonical(dataclasses.asdict(config)).encode(), digest_size=16
    ).hexdigest()
    path = cache_dir() / f"study-{name}.npz"
    try:
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(archive[_HEADER].tobytes())
            if header["key"] == key:
                return restore(_decode(header["state"], archive))
    except Exception:  # no entry, torn or corrupt file, failed restore: a miss
        pass

    value = build()
    arrays: dict = {}
    header = _canonical({"key": key, "state": _encode(state_of(value), arrays)})
    arrays[_HEADER] = np.frombuffer(header.encode(), dtype=np.uint8)
    try:
        from repro.serving.state import _atomic_write

        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, lambda fh: np.savez(fh, allow_pickle=False, **arrays))
    except OSError as exc:
        _warn_once(f"cannot write the cache entry {path} ({exc}); not caching")
    return value
