"""Decimal-string file cache for recurrence tables.

Tables are the expensive artifact (a quadrature sweep for the seed
moments, the Pearson recurrence for the rest, then the moment
Gram-Schmidt); they are keyed by a content hash of (weight point,
digits, quadrature tolerance, depth, format version) and stored as JSON
of decimal strings.  A stencil node's table may take its seeds from the
grid's centre, the anchor point, by ``quadrature.shift_seeds`` instead
of quadrature; its key and its stored document then also cover the
anchor point, so the same node built from another anchor, or
integrated, is another entry.
A centre's key has no anchor in it.  The build path always serializes
and reloads, so warm and cold runs see bit-identical values and reports
are reproducible byte for byte.  Writes are atomic (temp file then
rename); a cache directory that cannot be created or written is a
ConfigError.  An entry that cannot be read, or that does not match the
request, is a miss: the table is rebuilt and the file replaced.  Set
LAB_CACHE_DIR to move the cache; an in-process memo layer sits on top.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from mpmath import mp, mpf

from .errors import ConfigError
from .orthopoly import RecurrenceTable, recurrence_table, table_precision
from .params import PrecisionContext, WeightParams
from .quadrature import clear_seed_memo, seed_moments, shift_seeds

#: 2: moments k >= 1 come from the Pearson recurrence, not quadrature
FORMAT_VERSION = 2

_memo = {}


def default_cache_dir() -> Path:
    env = os.environ.get("LAB_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "laguerre-lab"


def table_key(params: WeightParams, N: int, prec: PrecisionContext,
              origin: WeightParams = None) -> str:
    """Content hash of a table request; origin is the anchor point of a node."""
    token = f"v{FORMAT_VERSION}|{params.cache_token()}|{prec.cache_token()}|N={N}"
    if origin is not None:
        token += f"|anchor={origin.cache_token()}"
    return hashlib.sha256(token.encode()).hexdigest()[:32]


def _render(x, dps) -> str:
    return mp.nstr(x, dps, strip_zeros=True)


def _params_doc(params: WeightParams) -> dict:
    return {"alpha": str(params.alpha), "t": [str(v) for v in params.t]}


def _serialize_table(tab: RecurrenceTable, origin: WeightParams) -> dict:
    """The stored document; a centre's has no "anchor" entry."""
    dps = tab.prec.work_dps + 10
    with mp.workdps(dps + 10):
        doc = {
            "version": FORMAT_VERSION,
            "N": tab.N,
            "digits": tab.prec.digits,
            "params": _params_doc(tab.params),
            "moments": {str(k): _render(v, dps) for k, v in tab.moments.items()},
            "h": [_render(v, dps) for v in tab.h],
            "alpha_rc": [_render(v, dps) for v in tab.alpha_rc],
            "beta_rc": [_render(v, dps) for v in tab.beta_rc],
            "p_sub": [_render(v, dps) for v in tab.p_sub],
            "coeffs": [[_render(c, dps) for c in row] for row in tab.coeffs],
        }
    if origin is not None:
        doc["anchor"] = _params_doc(origin)
    return doc


def _deserialize_table(doc: dict, params: WeightParams,
                       prec: PrecisionContext) -> RecurrenceTable:
    with mp.workdps(prec.work_dps):
        return RecurrenceTable(
            params=params,
            prec=prec,
            N=doc["N"],
            h=tuple(mpf(v) for v in doc["h"]),
            alpha_rc=tuple(mpf(v) for v in doc["alpha_rc"]),
            beta_rc=tuple(mpf(v) for v in doc["beta_rc"]),
            p_sub=tuple(mpf(v) for v in doc["p_sub"]),
            coeffs=tuple(tuple(mpf(c) for c in row) for row in doc["coeffs"]),
            moments={int(k): mpf(v) for k, v in doc["moments"].items()},
        )


def _read_entry(path: Path, params: WeightParams, N: int,
                prec: PrecisionContext, origin: WeightParams):
    """The table stored at path, or None for a miss.

    A missing, unparsable or truncated file, a missing key, and a stored
    version, depth, precision, point or anchor point that differs from
    the request are all misses.
    """
    try:
        doc = json.loads(path.read_text())
        stored = (doc["version"], doc["N"], doc["digits"], doc["params"], doc.get("anchor"))
        wanted = (FORMAT_VERSION, N, prec.digits, _params_doc(params),
                  None if origin is None else _params_doc(origin))
        if stored != wanted:
            return None
        return _deserialize_table(doc, params, prec)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def _write_entry(root: Path, path: Path, doc: dict):
    """Write doc to path atomically: a temp file in root, then a rename.

    An OSError here means the cache directory cannot be created or
    written: a ConfigError, so the run exits 2 naming the directory.
    """
    tmp = None
    try:
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(
            f"cannot write the table cache directory {root}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def cached_recurrence_table(params: WeightParams, N: int, prec: PrecisionContext,
                            cache_dir=None, anchor: WeightParams = None) -> RecurrenceTable:
    """Recurrence table through the cache (read, or build, persist, reload).

    With an anchor point other than params, a build shifts the anchor's
    seeds (``seed_moments``) to params by ``shift_seeds``, and integrates
    where the shift is rejected.  At the anchor itself the table is the
    plain one: its seeds are the anchor's own.
    """
    prec = table_precision(prec, N)
    origin = None if anchor is None or anchor == params else anchor
    key = table_key(params, N, prec, origin)
    if key in _memo:
        return _memo[key]
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / f"table-{key}.json"
    table = _read_entry(path, params, N, prec, origin)
    if table is None:
        seeds = None if origin is None else shift_seeds(
            origin, seed_moments(origin, prec), params, prec)
        tab = recurrence_table(params, N, prec, seeds=seeds)
        doc = _serialize_table(tab, origin)
        _write_entry(root, path, doc)
        table = _deserialize_table(doc, params, prec)
    _memo[key] = table
    return table


def clear_memo():
    """Forget the tables and seed moments this process has built or read."""
    _memo.clear()
    clear_seed_memo()
