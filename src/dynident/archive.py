"""The one file format of trajectory sets, datasets and models.

Each is an uncompressed zip archive: a ``meta.json`` member, which names
the kind and schema version, for the scalars and one ``.npy`` member per
array.  A model's arrays are its six preprocessing statistics and its one
parameter buffer, stored as it lives in memory, so the buffer's layout is
written down only in ``multiview._block_shapes``.  Every entry carries the
same fixed timestamp, so equal contents give byte-identical files, and
zip's CRC-32 covers every member, so a damaged file is refused rather than
misread.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib

import numpy as np

from .atomic import atomic_open
from .errors import FileFormatError

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
_TRAJECTORIES_KIND = "trajectories"
_DATASET_KIND = "multiview-dataset"
_MODEL_KIND = "multiview-model"
_SCHEMA_VERSION = {_TRAJECTORIES_KIND: 1, _DATASET_KIND: 2, _MODEL_KIND: 4}
_PREP_FIELDS = ("enc_mean", "enc_std", "aux_mean", "aux_std", "tgt_mean", "tgt_std")
_ARCHIVE_LAYOUT = {  # kind -> (required meta.json keys, required array members)
    _TRAJECTORIES_KIND: (
        ("system_id", "grid", "n_trajectories", "has_derivs", "has_thetas"),
        ("states",),
    ),
    _DATASET_KIND: (
        ("system_id", "shared_param_indices", "grid", "n_views", "n_pairs", "labeled"),
        ("states", "thetas", "x0s"),
    ),
    _MODEL_KIND: (
        ("config", "system_id", "shared_param_indices", "grid"),
        tuple(f"prep.{name}" for name in _PREP_FIELDS) + ("params",),
    ),
}


def _zip_entry(name: str) -> zipfile.ZipInfo:
    """An uncompressed entry with the fixed timestamp."""
    return zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)


def _write_archive(path, kind: str, meta: dict, arrays: dict) -> None:
    """Write ``kind``, its schema version and then ``meta`` as ``meta.json``,
    and each array as ``<name>.npy``, in order, to a temporary file that
    then replaces ``path``.  Keys of ``meta`` override the first two."""
    meta = {"kind": kind, "schema_version": _SCHEMA_VERSION[kind], **meta}
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(_zip_entry("meta.json"), json.dumps(meta))
        for name, array in arrays.items():
            with zf.open(_zip_entry(f"{name}.npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.ascontiguousarray(array), allow_pickle=False
                )


def _read_archive(path, kind: str) -> tuple[dict, dict]:
    """The ``meta.json`` record and the arrays (name -> ndarray) of the
    archive at ``path``.

    Raises :class:`FileFormatError` naming ``path`` unless the file is an
    intact archive of ``kind``, with the meta keys and members that kind
    requires, every array float64 and ``labels`` integer.
    """
    keys, members = _ARCHIVE_LAYOUT[kind]
    with open(path, "rb") as fh:
        try:
            zf = zipfile.ZipFile(fh)
        except (zipfile.BadZipFile, NotImplementedError) as exc:
            fh.seek(0)
            if fh.read(1) not in (b"{", b"["):
                reason = str(exc)
            elif kind == _TRAJECTORIES_KIND:
                reason = "JSON-lines files are no longer read; regenerate with simulate"
            else:
                reason = "schema 1 JSON files are no longer read; regenerate with synth-mv/train-mv"
            raise FileFormatError(f"{path}: not a dynident archive ({reason})") from exc
        with zf:
            try:
                meta = json.loads(zf.read("meta.json"))
                arrays = {}
                for info in zf.infolist():
                    if info.filename == "meta.json":
                        continue
                    name, ext = os.path.splitext(info.filename)
                    if ext != ".npy":
                        raise ValueError(f"unexpected member {info.filename!r}")
                    with zf.open(info) as member:
                        arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
                        if member.read(1):  # reading to the end checks the CRC
                            raise ValueError(f"{info.filename} has bytes past its array")
            except (zipfile.BadZipFile, KeyError, ValueError, EOFError, OSError,
                    NotImplementedError, RuntimeError, zlib.error) as exc:
                raise FileFormatError(f"{path}: damaged archive ({exc})") from exc

    if not isinstance(meta, dict):
        raise FileFormatError(f"{path}: meta.json is not a JSON object")
    if meta.get("kind") != kind:
        raise FileFormatError(f"{path}: not a {kind} file (kind {meta.get('kind')!r})")
    version = meta.get("schema_version")
    if version != _SCHEMA_VERSION[kind]:
        reason = f"schema_version {version!r}, expected {_SCHEMA_VERSION[kind]}"
        # Schema 2 stored per-layer members; schema 3 configs held the
        # shared block, activation and DCT keep fraction as keys.
        if kind == _MODEL_KIND and version in (2, 3):
            reason += f"; schema {version} model files are no longer read; retrain with train-mv"
        raise FileFormatError(f"{path}: {reason}")
    missing = [k for k in keys if k not in meta] + [
        f"{m}.npy" for m in members if m not in arrays
    ]
    if missing:
        raise FileFormatError(f"{path}: not a {kind} file (missing {', '.join(missing)})")
    for name, array in arrays.items():
        if name == "labels" and not np.issubdtype(array.dtype, np.integer):
            raise FileFormatError(f"{path}: labels has dtype {array.dtype}, expected integers")
        if name != "labels" and array.dtype != np.float64:
            raise FileFormatError(f"{path}: {name} has dtype {array.dtype}, expected float64")
    return meta, arrays


def _grid_record(grid) -> dict:
    return {"t0": grid.t0, "t_max": grid.t_max, "n_points": grid.n_points}


def _grid_from_record(rec: dict):
    from .solver import TimeGrid  # here, as solver imports this module

    return TimeGrid.uniform(rec["t0"], rec["t_max"], rec["n_points"])
