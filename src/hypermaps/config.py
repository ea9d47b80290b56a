"""Run configuration: flat key = value files with CLI override."""
from __future__ import annotations

from dataclasses import dataclass, fields

from .limits import DEFAULT_DART_CAP, admit
from .rational import need_order

VALID_ENGINES = ("oracle", "tr", "tau")
OUTPUT_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    N: tuple = (2, 3)
    g_max: int = 2
    n_max: int = 3
    weight_cap: int = 10
    dart_cap: int = DEFAULT_DART_CAP
    engines: tuple = VALID_ENGINES
    out: str = "json"
    cache_dir: str = None
    threads: int = 1

    def __post_init__(self):
        if not self.engines:
            raise ValueError("no engines selected")
        for e in self.engines:
            if e not in VALID_ENGINES:
                raise ValueError(f"unknown engine {e!r}")
        for key in INT_KEYS:
            admit(key, getattr(self, key))
        if self.out not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output format {self.out!r}")
        if len(set(self.engines)) < len(self.engines):
            raise ValueError(
                f"need distinct engines, got {list(self.engines)}")
        if not self.N or len(set(self.N)) < len(self.N):
            raise ValueError(f"need distinct N values, got {list(self.N)}")
        for n in self.N:
            need_order(n)

    def echo(self) -> dict:
        """Stable dict representation embedded in reports.

        Thread budget and cache location are execution details, not part
        of what was verified, so they are left out: reports must come out
        byte-identical regardless of how the work was scheduled.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("threads", "cache_dir")}


# the integer settings, each bounded by its entry of `limits.LIMITS`
INT_KEYS = tuple(f.name for f in fields(RunConfig) if f.type == "int")


def parse_list(key, s, kind=int):
    """Items separated by commas or blanks: `--N`, the config key `N`,
    `rhm --degrees` (integers) and the engines (names, `kind=str`) share
    this one grammar, and an empty item ("2,", ",", "") is an error,
    named after `key`, rather than nothing."""
    what = "integers" if kind is int else "names"
    message = f"{key} must be comma separated {what}, got {s!r}"
    items = [item.split() for item in str(s).split(",")]
    if not all(items):
        raise ValueError(message)
    try:
        return tuple(kind(x) for item in items for x in item)
    except ValueError:
        raise ValueError(message) from None


def _parse_int(key, s):
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {s!r}") from None


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' comments and blank lines ignored.  A
    key set twice is an error, not the later value."""
    out, set_on = {}, {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in set_on:
                raise ValueError(f"{path}:{line_no}: {key!r} already set "
                                 f"on line {set_on[key]}")
            out[key], set_on[key] = value, line_no
    return out


def build_config(file_values=None, **overrides) -> RunConfig:
    kwargs = {}
    values = dict(file_values or {})
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in values.items():
        if key in ("N", "engines"):
            kwargs[key] = value if isinstance(value, tuple) else \
                parse_list(key, value, int if key == "N" else str)
        elif key in INT_KEYS:
            kwargs[key] = _parse_int(key, value)
        elif key == "out":
            kwargs["out"] = str(value)
        elif key == "cache_dir":
            kwargs["cache_dir"] = str(value) or None
        else:
            raise ValueError(f"unknown config key {key!r}")
    return RunConfig(**kwargs)
