"""Exact-binary file cache for recurrence tables.

Tables are the expensive artifact (a quadrature sweep for the seed
moments, the Pearson recurrence for the rest, then the moment
Gram-Schmidt); each is stored as JSON of h, alpha, the coefficient
vectors and the moments, in "table-<key>.json".  The key is the first
32 hex digits of the SHA-256 of the request token (format version,
weight point, digits, depth; see ``table_key``), taken from the
interpreter's builtin ``_sha256`` or ``_sha2`` module, so a lab run
never loads OpenSSL (``hashlib`` is only the fallback where neither
exists).  The digest is the same by either route.
A built table holds every value at its work_dps (``recurrence_table``
rounds the moments and h_0 once); the memo keeps those bits and the
file stores them exactly: each value is "[-]<hex mantissa>p<exponent>"
of mpmath's normalized (sign, man, exp), zero is "0p0".  A read
decodes the bits with no decimal parsing, and any other spelling (a
decimal, an even mantissa, a signed zero) makes the entry a miss, so
warm and cold runs see bit-identical values and reports are
reproducible byte for byte.
Files of older formats sit under other keys; they are never read and
can be deleted.

A stencil node's table may take its seeds from the grid's centre, the
anchor point, by ``quadrature.shift_seeds`` instead of quadrature; its
key and its stored document then also cover the anchor point, so the
same node built from another anchor, or integrated, is another entry.
A centre's key has no anchor in it.  Writes are atomic (temp file then
rename); a cache directory that cannot be created or written is a
ConfigError.  An entry that cannot be read, or that does not match the
request, is a miss: the table is rebuilt and the file replaced.  Set
LAB_CACHE_DIR to move the cache.

An in-process memo sits on top and holds each table weakly: while some
reader (a grid, a suite, a local variable) holds a table, a request
returns that very table, aux rows and all; after that, the next request
reads the file again.  A build hands the seeds it read
(``quadrature.seed_moments``, held on the same rule) to ``keep``, so
whoever holds that list shares the sweep, and its shift context, with
its later builds.
"""

from __future__ import annotations

import json
import os
import tempfile
import weakref
from pathlib import Path

from mpmath import mp, mpf
from mpmath.libmp import fzero

from .errors import ConfigError
from .orthopoly import RecurrenceTable, recurrence_table, table_precision
from .params import PrecisionContext, WeightParams
from .quadrature import clear_memos, seed_depth, seed_moments, shift_seeds

# the interpreter's builtin SHA-256, so that naming a file loads no OpenSSL
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

#: 2: moments k >= 1 come from the Pearson recurrence, not quadrature;
#: 3: values are stored as exact binary, not as decimal strings;
#: 4: the seed sweep stops on ``quadrature.level_settled``;
#: 5: alpha_n from one inner product, and beta_n, p(n) are no longer stored
FORMAT_VERSION = 5

#: the tables some reader holds, by ``table_key``
_memo = weakref.WeakValueDictionary()


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
    return sha256(token.encode()).hexdigest()[:32]


def _params_doc(params: WeightParams) -> dict:
    return {"alpha": str(params.alpha), "t": [str(v) for v in params.t]}


def _values(src: dict, f) -> dict:
    """The value fields of a table (``vars``) or a document, each value mapped by f."""
    out = {name: tuple(map(f, src[name])) for name in ("h", "alpha_rc")}
    out["coeffs"] = tuple(tuple(map(f, row)) for row in src["coeffs"])
    out["moments"] = {int(k): f(v) for k, v in src["moments"].items()}
    return out


def _spell(v: tuple) -> str:
    """A raw mpf (sign, man, exp, bc) as "[-]<hex man>p<exp>"; zero is "0p0"."""
    sign, man, exp, _ = v
    return f"{'-' * sign}{man:x}p{exp}"


def _parse(s: str) -> mpf:
    """The mpf spelled s by ``_spell``; any other string is a ValueError.

    Only the spelling of a normalized finite value is accepted: not a
    decimal, not an even mantissa ("2p0"), not a signed zero ("-0p0").
    """
    man, _, exp = s.partition("p")
    m, e = int(man, 16), int(exp)
    v = (1, -m, e, (-m).bit_length()) if m < 0 else (0, m, e, m.bit_length())
    if not (m & 1 or v == fzero) or _spell(v) != s:
        raise ValueError(f"not a normalized binary table value: {s!r}")
    return mp.make_mpf(v)


def _document(tab: RecurrenceTable, origin: WeightParams) -> dict:
    """The stored document; a centre's has no "anchor" entry."""
    doc = {
        "version": FORMAT_VERSION,
        "N": tab.N,
        "digits": tab.prec.digits,
        "params": _params_doc(tab.params),
        **_values(vars(tab), lambda v: _spell(v._mpf_)),
    }
    if origin is not None:
        doc["anchor"] = _params_doc(origin)
    return doc


def _read_entry(path: Path, params: WeightParams, N: int,
                prec: PrecisionContext, origin: WeightParams):
    """The table stored at path, or None for a miss.

    A missing, unparsable or truncated file, a missing key, a stored
    version, depth, precision, point or anchor point that differs from
    the request, and values of another shape than a depth-N table's are
    all misses.
    """
    try:
        doc = json.loads(path.read_text())
        stored = (doc["version"], doc["N"], doc["digits"], doc["params"], doc.get("anchor"))
        wanted = (FORMAT_VERSION, N, prec.digits, _params_doc(params),
                  None if origin is None else _params_doc(origin))
        if stored != wanted:
            return None
        values = _values(doc, _parse)
        shape = (len(values["h"]), len(values["alpha_rc"]),
                 [len(row) for row in values["coeffs"]], sorted(values["moments"]))
        if shape != (N + 1, N, list(range(1, N + 2)),
                     list(range(-seed_depth(params), 2 * N + 2))):
            return None
        return RecurrenceTable(params=params, prec=prec, N=N, **values)
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
                            cache_dir=None, anchor: WeightParams = None,
                            keep: list = None) -> RecurrenceTable:
    """Recurrence table through the cache (the memo, else read, else build
    and persist).

    With an anchor point other than params, a build shifts the anchor's
    seeds (``seed_moments``) to params by ``shift_seeds``, and integrates
    where the shift is rejected.  At the anchor itself the table is the
    plain one: its seeds are the anchor's own.  A build appends the seeds
    it read, the anchor's or the point's own, to keep when given.
    """
    prec = table_precision(prec, N)
    origin = None if anchor is None or anchor == params else anchor
    key = table_key(params, N, prec, origin)
    table = _memo.get(key)
    if table is not None:
        return table
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / f"table-{key}.json"
    table = _read_entry(path, params, N, prec, origin)
    if table is None:
        seeds = seed_moments(params if origin is None else origin, prec)
        if keep is not None:
            keep.append(seeds)
        if origin is not None:
            seeds = shift_seeds(origin, seeds, params, prec)
        table = recurrence_table(params, N, prec, seeds=seeds)
        _write_entry(root, path, _document(table, origin))
    _memo[key] = table
    return table


def clear_memo():
    """Forget every table, seed set and shift context held here and in
    ``quadrature``, whoever else still holds them, and the quadrature node
    exponentials e^u and weights: the next request of each reads its file
    and starts with no memoized aux row."""
    _memo.clear()
    clear_memos()
