"""Problem-bundle I/O.

A bundle is a directory holding ``model.json`` plus one MatrixMarket file
per affine term and per Gram matrix.  The JSON schema (version 1):

.. code-block:: json

    {
      "format": "gorom-bundle",
      "version": 1,
      "n": 900, "l": 30,
      "symmetry": "spd",
      "coercive_affine": true,
      "xi_ref": [1.0, ...],
      "domain": {"dim": 6, "lo": [...], "hi": [...], "scale": ["log", ...]},
      "operator": [{"coeff": {...}, "file": "A_000.mtx"}, ...],
      "rhs":      [{"coeff": {...}, "file": "b_000.mtx"}, ...],
      "output":   [{"coeff": {...}, "file": "L_000.mtx"}, ...],
      "gram_v0": "R_V0.mtx",
      "gram_z": "R_Z.mtx"
    }

Coefficient descriptors are ``{"kind": "constant", "c": 1.0}`` or
``{"kind": "monomial", "c": 1.0, "exponents": [0, 1, ...]}``.  All numbers
are serialized with full float64 round-trip precision, so store -> load
reproduces matrix entries bit-exactly.

This module owns the package's file formats: one JSON writer and reader, one
MatrixMarket writer and reader and one writer and reader of numpy array
files, which bases, traces, stored reduced blocks and the CLI use too.  A
reader turns a missing or unparseable file, or a JSON document without the
fields its caller names, into one ``GoromError`` of the class its caller
names, with the file's path in the message.
"""

import json
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mminfo, mmread, mmwrite

from ._linalg import dense
from .affine import AffineForm, CoefficientFn, Deferred, ParameterDomain
from .exceptions import BundleFormatError, GoromError
from .model import FullOrderModel

__all__ = ["store_bundle", "load_bundle", "BUNDLE_FORMAT", "BUNDLE_VERSION"]

BUNDLE_FORMAT = "gorom-bundle"
BUNDLE_VERSION = 1
# 17 significant digits: lossless text round trip for float64
_MM_PRECISION = 17


def write_json(path, obj):
    """One-space indent and a final newline, the layout of every JSON file written."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def write_matrix(path, M):
    """A vector is written as one column, a sparse matrix in coordinates."""
    if sp.issparse(M):
        M = M.tocoo()
    elif np.ndim(M) == 1:
        M = np.asarray(M, dtype=float).reshape(-1, 1)
    mmwrite(str(path), M, precision=_MM_PRECISION)


@contextmanager
def _parsing(path, error):
    """Turn a missing or unparseable file into one ``error`` naming it."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"missing file {path}") from None
    except (ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise error(f"malformed {path}: {exc}") from None


def check_fields(path, doc, fields, error=GoromError):
    """``doc``, a JSON document read from ``path``, when it is an object
    whose field ``name`` holds a value of type ``fields[name]`` for each
    name (a missing field reads as None); otherwise one ``error``."""
    if not isinstance(doc, dict):
        raise error(f"malformed {path}: expected a JSON object")
    for name, kind in fields.items():
        if not isinstance(doc.get(name), kind):
            raise error(f"malformed {path}: field {name!r} is missing or of another type")
    return doc


def read_json(path, error=GoromError, fields=None):
    """The JSON document in ``path``; with ``fields``, checked by
    :func:`check_fields`."""
    with _parsing(path, error), open(path) as fh:
        doc = json.load(fh)
    return doc if fields is None else check_fields(path, doc, fields, error)


def write_arrays(path, arrays, meta):
    """The named ``arrays`` and the JSON document ``meta`` in one
    uncompressed npz file.  Its entries are written in name order and numpy
    dates each 1980-01-01, so equal input gives identical bytes."""
    entries = {**arrays, "meta": np.array(json.dumps(meta, sort_keys=True))}
    np.savez(path, allow_pickle=False, **dict(sorted(entries.items())))


def read_array(path, name, error=GoromError):
    """The entry ``name`` of a file written by :func:`write_arrays`, read
    alone; the entry "meta" reads as its JSON document.  No file handle
    stays open."""
    with _parsing(path, error), np.load(path, allow_pickle=False) as entries:
        value = entries[name]
        return json.loads(str(value)) if name == "meta" else value


def read_matrix(path, error=GoromError):
    """A sparse file as CSR, a dense one as a float array."""
    with _parsing(path, error):
        M = mmread(str(path))
    return M.tocsr() if sp.issparse(M) else np.asarray(M, dtype=float)


def _form_entries(form, stem, directory):
    entries = []
    for i, (coeff, term) in enumerate(form.terms):
        fname = f"{stem}_{i:03d}.mtx"
        write_matrix(directory / fname, term)
        entries.append({"coeff": coeff.to_dict(), "file": fname})
    return entries


def _deferred(path, shape, what):
    """The matrix in file ``path``, parsed on first use, whose header must
    declare ``shape`` (a vector as one column)."""
    with _parsing(path, BundleFormatError):
        header = mminfo(str(path))[:2]
    if header != (*shape, 1)[:2]:
        raise BundleFormatError(f"{what} {path.name!r} has shape {header}, expected {shape}")

    def parse():
        M = read_matrix(path, BundleFormatError)
        return dense(M).ravel() if len(shape) == 1 else M
    return Deferred(parse, shape)


def _form_from_entries(entries, directory, shape, what):
    return AffineForm([(CoefficientFn.from_dict(entry["coeff"]),
                        _deferred(directory / entry["file"], shape, f"{what} term"))
                       for entry in entries])


def store_bundle(model, path):
    """Write ``model`` as a bundle directory at ``path`` (created if needed)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "n": int(model.n),
        "l": int(model.l),
        "symmetry": model.symmetry,
        "coercive_affine": model.coercive_affine,
        "xi_ref": model.xi_ref.tolist(),
        "domain": model.domain.to_dict(),
        "operator": _form_entries(model.A, "A", directory),
        "rhs": _form_entries(model.b, "b", directory),
        "output": _form_entries(model.L, "L", directory),
        "gram_v0": "R_V0.mtx",
        "gram_z": "R_Z.mtx",
    }
    write_matrix(directory / "R_V0.mtx", model.gram_v0)
    write_matrix(directory / "R_Z.mtx", model.gram_z)
    write_json(directory / "model.json", meta)


def load_bundle(path):
    """Load a bundle directory into a :class:`FullOrderModel`.

    ``model.json`` and R_Z are read here, and of the other files only the
    header, which refuses a missing file or one of another shape.  A form's
    terms are parsed on the first read of its ``terms`` and R_V0 on the
    first read of ``gram_v0``; a body that does not parse is refused then.
    """
    directory = Path(path)
    meta_path = directory / "model.json"
    meta = read_json(meta_path, BundleFormatError)
    if meta.get("format") != BUNDLE_FORMAT:
        raise BundleFormatError(f"not a {BUNDLE_FORMAT} bundle: {meta_path}")
    if meta.get("version") != BUNDLE_VERSION:
        raise BundleFormatError(f"unsupported bundle version {meta.get('version')!r}")
    try:
        n = int(meta["n"])
        l = int(meta["l"])
        domain = ParameterDomain.from_dict(meta["domain"])
        A = _form_from_entries(meta["operator"], directory, (n, n), "operator")
        b = _form_from_entries(meta["rhs"], directory, (n,), "rhs")
        L = _form_from_entries(meta["output"], directory, (l, n), "output")
        gram_v0 = _deferred(directory / meta["gram_v0"], (n, n), "gram_v0")
        gram_z = _deferred(directory / meta["gram_z"], (l, l), "gram_z").get()
        return FullOrderModel(
            A, b, L, gram_v0, gram_z, domain,
            symmetry=meta["symmetry"],
            xi_ref=meta["xi_ref"],
            coercive_affine=meta.get("coercive_affine", False),
        )
    except KeyError as exc:
        raise BundleFormatError(f"model.json is missing field {exc}") from exc
