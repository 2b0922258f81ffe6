"""Run configuration: one JSON document drives a whole pipeline run.

The section dataclasses are the schema. A section's JSON keys are its
field names, or a field's ``metadata["key"]`` where it has one; a value's
JSON type is its field's annotation; and the config hash is taken over a
document read off the same fields. Validation is strict and happens
before any work: every section rejects unknown keys by name, every value
must have its annotated type, and every section range-checks itself in
``validate``. Each error names the one key at fault as ``section.key``.
All randomness flows from training.seed; the dataset seed, unless pinned
explicitly, is derived from it by labeled hashing so that one seed row
reproduces the entire run.
"""

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin

import numpy as np

from .datasets import MixtureSpec, blobs8
from .errors import ConfigurationError, ParseError
from .nn import parameter_count
from .objectives import OBJECTIVE_KINDS, ObjectiveConfig
from .selection import MECHANISM_KINDS, mechanism_compatible
from .training import TrainConfig
from .util import MAX_ARRAY_BYTES, config_hash, derive_seed

DEFAULT_COVERAGE_GRID = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]


def _key(f) -> str:
    """The JSON key of the dataclass field ``f``."""
    return f.metadata.get("key", f.name)


def _field_names(cls, d, where: str, given=()) -> dict:
    """{JSON key: field name} over the fields of ``cls`` outside ``given``,
    once ``d`` is checked to be a JSON object with only those keys."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} section must be a JSON object")
    names = {_key(f): f.name for f in fields(cls) if f.name not in given}
    for key in d:
        if key not in names:
            raise ConfigurationError(f"unknown key {key!r} in {where} section")
    return names


def _section(cls, d, where: str, **given):
    """The dataclass ``cls`` built from the JSON object ``d`` of section
    ``where`` and type-checked; ``given`` fills fields that are not JSON
    keys."""
    names = _field_names(cls, d, where, given)
    cfg = cls(**{names[key]: value for key, value in d.items()}, **given)
    _check_types(cfg, where)
    return cfg


def _is_a(value, kind) -> bool:
    """Whether a JSON value has the annotated type ``kind``: a class, a
    ``list[X]`` or a union. Integers are numbers; true and false are not,
    and neither are NaN, Infinity and integers too large for a float."""
    if type(kind) is not type:
        args = get_args(kind)
        if get_origin(kind) is list:
            return isinstance(value, list) and \
                all(_is_a(v, args[0]) for v in value)
        return any(_is_a(value, k) for k in args)
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is float:  # finite: no NaN, no value beyond the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _check_types(cfg, where: str = "") -> None:
    """Raise ConfigurationError naming the first field of the dataclass
    ``cfg`` whose value does not have its annotated type."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _is_a(value, f.type):
            kind = f.type if get_args(f.type) else f.type.__name__
            raise ConfigurationError(
                f"{where}{'.' if where else ''}{_key(f)} must be {kind}, got "
                f"{json.dumps(value)}")


def _normalized(value, kind):
    """The hash-document form of ``value``, annotated ``kind``. A section
    becomes an object keyed by JSON key, without the sections nested in
    it; lists are copied; every number annotated float becomes a float, so
    ``1`` and ``1.0`` hash alike."""
    if is_dataclass(value):
        return {_key(f): _normalized(getattr(value, f.name), f.type)
                for f in fields(value) if not is_dataclass(f.type)}
    kinds = (kind, *get_args(kind))
    if isinstance(value, list):
        item = next(get_args(k)[0] for k in kinds if get_origin(k) is list)
        return [_normalized(v, item) for v in value]
    return float(value) if float in kinds and value is not None else value


def _check_list(where: str, values: list, known=None) -> None:
    """Refuse an empty list, a repeated value and, given ``known``, a value
    outside it."""
    if not values:
        raise ConfigurationError(f"{where} must not be empty")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigurationError(
                f"{where} lists {json.dumps(value)} twice")
        if known is not None and value not in known:
            raise ConfigurationError(
                f"{where} lists unknown value {json.dumps(value)}")


@dataclass
class DatasetConfig:
    kind: str = "mixture"  # the only kind; kept so that configs may name it
    preset: str | None = "blobs8"
    means: list[list[float]] | None = None
    variances: list[float] | None = None
    priors: list[float] | None = None
    label_noise: float | None = None
    n_train: int | None = None
    n_val: int | None = None
    n_test: int | None = None
    seed: int | None = None

    def validate(self) -> None:
        if self.kind != "mixture":
            raise ConfigurationError(
                f"dataset.kind must be 'mixture', got {json.dumps(self.kind)}")
        if self.preset is None and self.means is None:
            raise ConfigurationError(
                "mixture dataset needs a preset or explicit means")
        if self.means is not None and len({len(r) for r in self.means}) != 1:
            raise ConfigurationError(
                "dataset.means must be a non-empty list of equal-length rows")
        if self.preset not in (None, "blobs8"):
            raise ConfigurationError(f"unknown dataset preset {self.preset!r}")

    def mixture_spec(self, root_seed: int) -> MixtureSpec:
        """The preset, or MixtureSpec's defaults, with every key that is set
        applied on top. ``means`` brings unit variances and uniform priors
        over its classes, which ``variances`` and ``priors`` override."""
        seed = self.seed if self.seed is not None \
            else derive_seed(root_seed, "dataset")
        given = {name: getattr(self, name)
                 for name in ("means", "variances", "priors", "label_noise",
                              "n_train", "n_val", "n_test")
                 if getattr(self, name) is not None}
        if self.means is not None:
            C = len(self.means)
            given = {"variances": np.ones(C), "priors": np.full(C, 1.0 / C),
                     **given}
        # validate() has ensured means wherever there is no preset
        spec = replace(blobs8(seed=seed), **given) \
            if self.preset == "blobs8" else MixtureSpec(seed=seed, **given)
        spec.validate()
        return spec


@dataclass
class ModelConfig:
    """The trunk's hidden widths; the head follows from the objective."""

    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])

    def validate(self) -> None:
        if any(w < 1 for w in self.hidden_dims):
            raise ConfigurationError("model.hidden_dims must hold widths >= 1")


@dataclass
class EvalConfig:
    mechanisms: list[str] = field(default_factory=lambda: ["softmax_response"])
    coverage_grid: list[float] = field(
        default_factory=lambda: list(DEFAULT_COVERAGE_GRID))
    calibration_split: str = "val"
    histogram_bins: int = 20

    def validate(self) -> None:
        _check_list("evaluation.mechanisms", self.mechanisms, MECHANISM_KINDS)
        if self.calibration_split not in ("val", "test"):
            raise ConfigurationError(
                "evaluation.calibration_split must be 'val' or 'test'")
        _check_list("evaluation.coverage_grid", self.coverage_grid)
        if any(not 0 < c <= 1 for c in self.coverage_grid):
            raise ConfigurationError(
                "evaluation.coverage_grid must lie in (0, 1]")
        if self.histogram_bins < 2:
            raise ConfigurationError("evaluation.histogram_bins must be >= 2")
        if self.histogram_bins >= 2 ** 53:  # np.linspace rounds its count
            raise ConfigurationError("evaluation.histogram_bins must be "
                                     f"<= 2**53 - 1, got {self.histogram_bins}")


@dataclass
class GridConfig:
    methods: list[str] = field(default_factory=lambda: ["CE"])
    mechanisms: list[str] = field(
        default_factory=lambda: ["softmax_response"])
    coverages: list[float] = field(default_factory=lambda: [0.9, 0.7, 0.5])
    seeds: list[int] = field(default_factory=lambda: [0])

    def validate(self) -> None:
        _check_list("grid.methods", self.methods, OBJECTIVE_KINDS)
        _check_list("grid.mechanisms", self.mechanisms, MECHANISM_KINDS)
        _check_list("grid.coverages", self.coverages)
        if any(not 0 < c <= 1 for c in self.coverages):
            raise ConfigurationError("grid.coverages must lie in (0, 1]")
        _check_list("grid.seeds", self.seeds)
        for method in self.methods:
            head = ObjectiveConfig(kind=method).required_head()
            if not any(mechanism_compatible(k, head) for k in self.mechanisms):
                raise ConfigurationError(
                    f"grid.mechanisms lists no mechanism that method "
                    f"{method!r} supports; its head is {head!r}")


@dataclass
class RunConfig:
    dataset: DatasetConfig
    model: ModelConfig
    objective: ObjectiveConfig
    training: TrainConfig
    evaluation: EvalConfig
    grid: GridConfig | None
    output_dir: str

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _field_names(cls, doc, "top-level")
        dataset = doc.get("dataset", {})
        if isinstance(dataset, dict) and "kind" in dataset:
            # an old CSV config is told its kind, not its first unknown key
            DatasetConfig(kind=dataset["kind"]).validate()
        objective = _section(ObjectiveConfig, doc.get("objective", {}),
                             "objective")
        cfg = cls(
            dataset=_section(DatasetConfig, dataset, "dataset"),
            model=_section(ModelConfig, doc.get("model", {}), "model"),
            objective=objective,
            training=_section(TrainConfig, doc.get("training", {}),
                              "training", objective=objective),
            evaluation=_section(EvalConfig, doc.get("evaluation", {}),
                                "evaluation"),
            grid=_section(GridConfig, doc["grid"], "grid")
            if "grid" in doc else None,
            output_dir=doc.get("output_dir", "runs/out"),
        )
        _check_types(cfg)
        for section in (cfg.dataset, cfg.model, cfg.training, cfg.evaluation,
                        cfg.grid):
            if section is not None:
                section.validate()
        spec = cfg.dataset.mixture_spec(cfg.training.seed)
        cfg.objective.validate(spec.n_classes)
        methods = cfg.grid.methods if cfg.grid is not None else []
        n_params = max(parameter_count(
            spec.dim, cfg.model.hidden_dims, spec.n_classes,
            ObjectiveConfig(kind=kind).required_head())
            for kind in (cfg.objective.kind, *methods))
        if 8 * n_params > MAX_ARRAY_BYTES:
            raise ConfigurationError(
                f"model.hidden_dims {json.dumps(cfg.model.hidden_dims)} make "
                f"a network of {n_params} float64 parameters, more than one "
                "numpy array holds")
        return cfg

    def normalized(self) -> dict:
        return {f.name: _normalized(getattr(self, f.name), f.type)
                for f in fields(self) if getattr(self, f.name) is not None}

    def hash(self) -> str:
        return config_hash(self.normalized())


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    try:
        return RunConfig.from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
