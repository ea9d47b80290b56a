"""Run configuration: flat key = value files with CLI override."""
from __future__ import annotations

from dataclasses import dataclass

VALID_ENGINES = ("oracle", "tr", "tau")


@dataclass(frozen=True)
class RunConfig:
    N: tuple = (2, 3)
    g_max: int = 2
    n_max: int = 3
    weight_cap: int = 10
    dart_cap: int = 12
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
        if self.g_max < 0 or self.n_max < 1 or self.weight_cap < 1 \
                or self.dart_cap < 1 or self.threads < 1:
            raise ValueError("caps must be positive")
        if self.out not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.out!r}")
        if not self.N or len(set(self.N)) < len(self.N):
            raise ValueError(f"need distinct N values, got {list(self.N)}")
        if any(n < 2 for n in self.N):
            raise ValueError("N must be at least 2")

    def echo(self) -> dict:
        """Stable dict representation embedded in reports.

        Thread budget and cache location are execution details, not part
        of what was verified, so they are left out: reports must come out
        byte-identical regardless of how the work was scheduled.
        """
        return {
            "N": list(self.N),
            "g_max": self.g_max,
            "n_max": self.n_max,
            "weight_cap": self.weight_cap,
            "dart_cap": self.dart_cap,
            "engines": list(self.engines),
            "out": self.out,
        }


def _parse_int_list(s):
    return tuple(int(x) for x in str(s).replace(",", " ").split())


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' comments and blank lines ignored."""
    out = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def build_config(file_values=None, **overrides) -> RunConfig:
    kwargs = {}
    values = dict(file_values or {})
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in values.items():
        if key in ("N",):
            kwargs["N"] = _parse_int_list(value) \
                if not isinstance(value, tuple) else value
        elif key == "engines":
            kwargs["engines"] = tuple(str(value).replace(",", " ").split()) \
                if not isinstance(value, tuple) else value
        elif key in ("g_max", "n_max", "weight_cap", "dart_cap", "threads"):
            kwargs[key] = int(value)
        elif key == "out":
            kwargs["out"] = str(value)
        elif key == "cache_dir":
            kwargs["cache_dir"] = str(value) or None
        else:
            raise ValueError(f"unknown config key {key!r}")
    return RunConfig(**kwargs)
