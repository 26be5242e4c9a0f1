"""Decimal-string file cache for recurrence tables.

Tables are the expensive artifact (a quadrature sweep for the seed
moments, the Pearson recurrence for the rest, then the moment
Gram-Schmidt); they are keyed by a content hash of (weight point,
digits, quadrature tolerance, depth, format version) and stored as JSON
of decimal strings.  The build path always serializes and reloads, so
warm and cold runs see bit-identical values and reports are
reproducible byte for byte.  Writes are atomic (temp file then rename).
An entry that cannot be read, or that does not match the request, is a
miss: the table is rebuilt and the file replaced.  Set LAB_CACHE_DIR to
move the cache; an in-process memo layer sits on top.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from mpmath import mp, mpf

from .orthopoly import RecurrenceTable, recurrence_table
from .params import PrecisionContext, WeightParams

#: 2: moments k >= 1 come from the Pearson recurrence, not quadrature
FORMAT_VERSION = 2

_memo = {}


def default_cache_dir() -> Path:
    env = os.environ.get("LAB_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "laguerre-lab"


def table_key(params: WeightParams, N: int, prec: PrecisionContext) -> str:
    token = f"v{FORMAT_VERSION}|{params.cache_token()}|{prec.cache_token()}|N={N}"
    return hashlib.sha256(token.encode()).hexdigest()[:32]


def _render(x, dps) -> str:
    return mp.nstr(x, dps, strip_zeros=True)


def _params_doc(params: WeightParams) -> dict:
    return {"alpha": str(params.alpha), "t": [str(v) for v in params.t]}


def _serialize_table(tab: RecurrenceTable) -> dict:
    dps = tab.prec.work_dps + 10
    with mp.workdps(dps + 10):
        return {
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
                prec: PrecisionContext):
    """The table stored at path, or None for a miss.

    A missing, unparsable or truncated file, a missing key, and a stored
    version, depth, precision or point that differs from the request are
    all misses.
    """
    try:
        doc = json.loads(path.read_text())
        stored = (doc["version"], doc["N"], doc["digits"], doc["params"])
        if stored != (FORMAT_VERSION, N, prec.digits, _params_doc(params)):
            return None
        return _deserialize_table(doc, params, prec)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def cached_recurrence_table(params: WeightParams, N: int, prec: PrecisionContext,
                            cache_dir=None) -> RecurrenceTable:
    """Recurrence table through the cache (read, or build, persist, reload)."""
    from .orthopoly import digits_for

    if prec.digits < digits_for(N):
        prec = prec.scaled(digits_for(N))
    key = table_key(params, N, prec)
    if key in _memo:
        return _memo[key]
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / f"table-{key}.json"
    table = _read_entry(path, params, N, prec)
    if table is None:
        doc = _serialize_table(recurrence_table(params, N, prec, auto_digits=False))
        root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        table = _deserialize_table(doc, params, prec)
    _memo[key] = table
    return table


def clear_memo():
    _memo.clear()
