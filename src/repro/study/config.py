"""Typed, validated run-configs for registered experiments.

Every experiment registered with :func:`repro.study.experiment` declares a
frozen dataclass subclassing :class:`StudyConfig` whose defaults reproduce
the paper's settings.  The base class supplies everything the registry and
the CLI need, derived from the dataclass fields alone:

* **validation on construction** -- field values are checked (and gently
  coerced, e.g. lists to tuples) against the dataclass annotations, with
  optional ``metadata={"min": ..., "max": ..., "choices": ...,
  "nonempty": ...}`` constraints, so a config object is valid by the time
  it exists;
* **alternate constructors** -- :meth:`StudyConfig.from_dict` (strict
  keyword dict, the JSON path) and :meth:`StudyConfig.from_cli_args`
  (``--flag`` style argv, the CLI path);
* **auto-generated CLI flags** -- :meth:`StudyConfig.add_arguments` turns
  each field into an ``argparse`` option (``bool`` fields become
  ``--flag/--no-flag`` switches, tuple fields take multiple values), which
  is what makes ``repro describe <name>`` and ``repro run <name> [flags]``
  work for every experiment without bespoke parser code.
"""

from __future__ import annotations

import argparse
import dataclasses
import types
import typing
from dataclasses import dataclass, fields
from typing import Any, Union

__all__ = ["ConfigField", "StudyConfig", "precision_field"]


def precision_field(default: str = "float64") -> Any:
    """A standard ``precision`` config field for compute-policy selection.

    Experiments whose hot path runs through the DNN substrate declare
    ``precision: str = precision_field()`` to expose the
    :class:`repro.nn.backend.PrecisionPolicy` choice as a validated,
    CLI-visible ``--precision`` flag with uniform help text.
    """
    return dataclasses.field(
        default=default,
        metadata={
            "help": (
                "compute precision policy: float64 is bit-exact to the "
                "reference results, float32 trades bit-identity for speed "
                "within the documented tolerance"
            ),
            "choices": ("float64", "float32"),
        },
    )


@dataclass(frozen=True)
class ConfigField:
    """Resolved description of one config dataclass field."""

    name: str
    kind: str  # "bool" | "int" | "float" | "str" | "tuple[int]" | "tuple[float]"
    optional: bool
    default: Any
    help: str
    choices: tuple[Any, ...] | None
    minimum: float | None
    maximum: float | None
    nonempty: bool

    @property
    def flag(self) -> str:
        """The CLI spelling of this field (``--some-field``)."""
        return "--" + self.name.replace("_", "-")

    @property
    def type_label(self) -> str:
        """Human-readable type for ``repro describe`` output."""
        label = self.kind
        if self.optional:
            label += "?"
        return label


_SCALARS = {bool: "bool", int: "int", float: "float", str: "str"}
_ELEMENT_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _resolve_kind(hint: Any, field_name: str) -> tuple[str, bool]:
    """Map a type annotation to a supported field kind (+ optionality)."""
    optional = False
    origin = typing.get_origin(hint)
    if origin in (Union, types.UnionType):
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(args) != 1 or len(typing.get_args(hint)) != len(args) + 1:
            raise TypeError(
                f"config field {field_name!r}: only 'T | None' unions are supported, got {hint!r}"
            )
        optional = True
        hint = args[0]
        origin = typing.get_origin(hint)
    if hint in _SCALARS:
        return _SCALARS[hint], optional
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis and args[0] in (int, float, str):
            return f"tuple[{args[0].__name__}]", optional
    raise TypeError(
        f"config field {field_name!r}: unsupported annotation {hint!r} "
        "(use bool, int, float, str, tuple[int, ...], tuple[float, ...], "
        "tuple[str, ...], or 'T | None' over those)"
    )


def _coerce_scalar(value: Any, kind: str, field_name: str) -> Any:
    """Validate/coerce one scalar against its kind; raise ValueError if bad."""
    if kind == "bool":
        if isinstance(value, bool):
            return value
    elif kind == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif kind == "str":
        if isinstance(value, str):
            return value
    raise ValueError(f"config field {field_name!r} expects {kind}, got {value!r}")


def _coerce(value: Any, spec: ConfigField) -> Any:
    """Validate/coerce a field value against its resolved spec."""
    if value is None:
        if spec.optional:
            return None
        raise ValueError(f"config field {spec.name!r} must not be None")
    if spec.kind.startswith("tuple["):
        element_kind = spec.kind[len("tuple["):-1]
        if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
            raise ValueError(
                f"config field {spec.name!r} expects a sequence of {element_kind}, got {value!r}"
            )
        if spec.nonempty and not value:
            raise ValueError(f"config field {spec.name!r} must not be empty")
        coerced = tuple(
            _coerce_scalar(item, element_kind, f"{spec.name}[{index}]")
            for index, item in enumerate(value)
        )
        _check_range(coerced, spec)
        return coerced
    value = _coerce_scalar(value, spec.kind, spec.name)
    _check_range((value,), spec)
    return value


def _check_range(values: tuple[Any, ...], spec: ConfigField) -> None:
    """Apply the metadata min/max/choices constraints to scalar values."""
    for value in values:
        if spec.choices is not None and value not in spec.choices:
            raise ValueError(
                f"config field {spec.name!r} must be one of {spec.choices}, got {value!r}"
            )
        if spec.minimum is not None and value < spec.minimum:
            raise ValueError(
                f"config field {spec.name!r} must be >= {spec.minimum}, got {value!r}"
            )
        if spec.maximum is not None and value > spec.maximum:
            raise ValueError(
                f"config field {spec.name!r} must be <= {spec.maximum}, got {value!r}"
            )


@dataclass(frozen=True)
class StudyConfig:
    """Base class of every experiment's frozen run-config dataclass."""

    def __post_init__(self) -> None:
        for spec in self.config_fields():
            coerced = _coerce(getattr(self, spec.name), spec)
            object.__setattr__(self, spec.name, coerced)
        self.check()

    def check(self) -> None:
        """Cross-field validation hook; subclasses override as needed."""

    @classmethod
    def config_fields(cls) -> tuple[ConfigField, ...]:
        """Resolved field descriptions, in declaration order."""
        hints = typing.get_type_hints(cls)
        specs = []
        for field in fields(cls):
            kind, optional = _resolve_kind(hints[field.name], field.name)
            if field.default is not dataclasses.MISSING:
                default = field.default
            elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                default = field.default_factory()  # type: ignore[misc]
            else:
                raise TypeError(
                    f"config field {field.name!r} needs a default "
                    "(paper settings are the defaults by convention)"
                )
            choices = field.metadata.get("choices")
            specs.append(
                ConfigField(
                    name=field.name,
                    kind=kind,
                    optional=optional,
                    default=default,
                    help=field.metadata.get("help", ""),
                    choices=tuple(choices) if choices is not None else None,
                    minimum=field.metadata.get("min"),
                    maximum=field.metadata.get("max"),
                    nonempty=bool(field.metadata.get("nonempty", False)),
                )
            )
        return tuple(specs)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: dict[str, Any] | None = None) -> "StudyConfig":
        """Build a config from a keyword dict, rejecting unknown keys."""
        data = dict(data or {})
        known = {spec.name for spec in cls.config_fields()}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"{cls.__name__} got unknown config keys {unknown}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_cli_args(cls, argv: list[str] | None = None) -> "StudyConfig":
        """Build a config by parsing ``--flag`` style command-line options."""
        parser = argparse.ArgumentParser(prog=cls.__name__, add_help=False)
        cls.add_arguments(parser)
        namespace = parser.parse_args(list(argv) if argv is not None else [])
        return cls.from_namespace(namespace)

    @classmethod
    def from_namespace(cls, namespace: argparse.Namespace) -> "StudyConfig":
        """Build a config from an argparse namespace produced by this class."""
        data = {
            spec.name: getattr(namespace, spec.name)
            for spec in cls.config_fields()
            if hasattr(namespace, spec.name)
        }
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # CLI generation / serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def add_arguments(cls, parser: argparse.ArgumentParser) -> None:
        """Add one auto-generated option per config field to ``parser``."""
        for spec in cls.config_fields():
            help_text = spec.help or spec.name.replace("_", " ")
            if spec.kind == "bool":
                parser.add_argument(
                    spec.flag,
                    dest=spec.name,
                    action=argparse.BooleanOptionalAction,
                    default=spec.default,
                    help=f"{help_text} (default: {spec.default})",
                )
                continue
            if spec.kind.startswith("tuple["):
                element = _ELEMENT_TYPES[spec.kind[len("tuple["):-1]]
                shown = (
                    " ".join(map(str, spec.default)) if spec.default is not None else "none"
                )
                parser.add_argument(
                    spec.flag,
                    dest=spec.name,
                    nargs="+",
                    type=element,
                    default=spec.default,
                    help=f"{help_text} (default: {shown})",
                )
                continue
            parser.add_argument(
                spec.flag,
                dest=spec.name,
                type=_ELEMENT_TYPES[spec.kind],
                default=spec.default,
                choices=spec.choices,
                help=f"{help_text} (default: {spec.default})",
            )

    def to_dict(self) -> dict[str, Any]:
        """The config as a plain dict (tuples become lists for JSON)."""
        data: dict[str, Any] = {}
        for spec in self.config_fields():
            value = getattr(self, spec.name)
            data[spec.name] = list(value) if isinstance(value, tuple) else value
        return data
