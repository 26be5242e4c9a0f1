"""Run configuration: plain key = value files plus CLI flag overrides.

``DEFAULTS`` is the one list of run settings and their defaults.  Flags
and config-file keys are the same names: each key is a ``lab`` argument
(``suites`` is the positional suite, ``n_max`` is ``--n-max``), and flag
values override file values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError
from .params import PrecisionContext, WeightParams, to_fraction
from .registry import SUITE_NAMES

DEFAULTS = {
    "alpha": "0.5",
    "t1": "0.3",
    "t2": "0.2",
    "t3": None,
    "digits": 120,
    "n_max": 10,
    "suites": "all",
    "s1": "1",
    "s2": "1",
    "n_list": "8,12,16,24",
    "out": None,
    "format": "json",
    "cache_dir": None,
}


class RunConfig(NamedTuple):
    params: WeightParams
    prec: PrecisionContext
    n_max: int
    suites: tuple
    s1: Fraction
    s2: Fraction
    n_list: tuple
    out: str
    format: str
    cache_dir: str

    @property
    def active_suites(self) -> tuple:
        if "all" in self.suites:
            return SUITE_NAMES
        return self.suites


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = val
    return out


def parse_config(path: str = None, overrides: dict = None) -> RunConfig:
    """Merge defaults, an optional config file, and flag overrides."""
    merged = dict(DEFAULTS)
    if path is not None:
        merged.update(_read_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in DEFAULTS:
            raise ConfigError(f"unknown option {key!r}")
        merged[key] = val

    try:
        t = [to_fraction(merged["t1"]), to_fraction(merged["t2"])]
        if merged["t3"] is not None:
            t.append(to_fraction(merged["t3"]))
        params = WeightParams(to_fraction(merged["alpha"]), t)
        prec = PrecisionContext(digits=int(merged["digits"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc

    # the suites run in the order given; a repeated name runs once, at its first place
    names = (s.strip() for s in str(merged["suites"]).split(","))
    suites = tuple(dict.fromkeys(s for s in names if s))
    for s in suites:
        if s != "all" and s not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {s!r} (choose from {SUITE_NAMES})")

    try:
        n_max = int(merged["n_max"])
        n_list = tuple(int(v) for v in str(merged["n_list"]).split(",") if v.strip())
        s1 = to_fraction(merged["s1"])
        s2 = to_fraction(merged["s2"])
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")

    fmt = str(merged["format"])
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    return RunConfig(
        params=params,
        prec=prec,
        n_max=n_max,
        suites=suites,
        s1=s1,
        s2=s2,
        n_list=n_list,
        out=merged["out"],
        format=fmt,
        cache_dir=merged["cache_dir"],
    )
