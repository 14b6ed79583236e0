"""The one codec of the package's ``.npz`` archives, ``bundle.npz`` and ``model.npz``.

An archive is a ``meta`` entry, a JSON object whose ``format`` names the
archive kind and version, followed by named arrays. :func:`read_archive`
reads and checks every entry before a caller builds anything from it; any
failure is a ParseError naming the file.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
import zlib
from typing import Mapping

import numpy as np

from .errors import ParseError


def write_archive(path: str | os.PathLike, fmt: str, meta: dict,
                  arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``meta``, tagged with ``fmt``, then ``arrays`` in their order."""
    text = json.dumps({"format": fmt, **meta}, sort_keys=True)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(text), **arrays)


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


def read_archive(path: str | os.PathLike, fmt: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta object and the other entries of an archive of format ``fmt``.

    The file must unzip, ``meta`` must be a JSON object tagged with ``fmt``
    and hold no NaN or infinity, and every float entry must be finite.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays.pop("meta")), parse_float=_finite, parse_constant=_finite)
    # A plain .npy file loads as an array, which is no context manager
    # (TypeError); an entry header may claim an unallocatable shape.
    except (OSError, ValueError, KeyError, TypeError, EOFError, RuntimeError, MemoryError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise ParseError(f"{path}: not a valid {fmt} archive ({exc})") from exc
    tag = meta.get("format") if isinstance(meta, dict) else None
    if tag != fmt:
        raise ParseError(f"{path}: format {tag!r} is not {fmt}")
    for name, value in arrays.items():
        if value.dtype.kind in "fc" and not np.isfinite(value).all():
            raise ParseError(f"{path}: {name} holds a non-finite value")
    return meta, arrays


def entry(path: str | os.PathLike, arrays: dict[str, np.ndarray], name: str,
          shape: tuple, kind: str = "f") -> np.ndarray:
    """Take the array ``name`` out of ``arrays``, checked to have dtype kind
    ``kind`` ("f" float, "i" integer, "U" string) and ``shape``, where None
    matches any length. Whatever a loader leaves in ``arrays`` is an entry
    its meta does not imply; :func:`no_more` rejects it."""
    value = arrays.pop(name, None)
    if value is None:
        raise ParseError(f"{path}: lacks entry {name}")
    if value.dtype.kind != kind or value.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, value.shape)):
        raise ParseError(f"{path}: {name} is {value.dtype} {value.shape}, "
                         f"expected kind '{kind}' {shape}")
    return value


def no_more(path: str | os.PathLike, arrays: Mapping[str, np.ndarray]) -> None:
    """Reject the entries left after a loader took every one it expects."""
    if arrays:
        raise ParseError(f"{path}: unexpected entries {', '.join(sorted(arrays))}")
