"""Run configuration: one JSON document drives a whole pipeline run.

Validation is strict and happens before any work: every section rejects
unknown keys by name, every value must have the JSON type its field is
annotated with and is range-checked through the component it configures.
All randomness flows from training.seed; the dataset seed, unless pinned
explicitly, is derived from it by labeled hashing so that one seed row
reproduces the entire run.
"""

import json
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from .datasets import MixtureSpec, blobs8
from .errors import ConfigurationError, ParseError
from .objectives import ObjectiveConfig
from .selection import MECHANISM_KINDS
from .training import TrainConfig
from .util import config_hash, derive_seed

DEFAULT_COVERAGE_GRID = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]


def _require_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} section must be a JSON object")
    for key in section:
        if key not in allowed:
            raise ConfigurationError(
                f"unknown key {key!r} in {where} section")


def _is_a(value, kind) -> bool:
    """Whether a JSON value has the annotated type ``kind``: a class, a
    ``list[X]`` or a union. Integers are numbers; true and false are not."""
    if type(kind) is not type:
        args = get_args(kind)
        if get_origin(kind) is list:
            return isinstance(value, list) and \
                all(_is_a(v, args[0]) for v in value)
        return any(_is_a(value, k) for k in args)
    if isinstance(value, bool) and kind is not bool:
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_types(cfg, where: str = "") -> None:
    """Raise ConfigurationError naming the first field of the dataclass
    ``cfg`` whose value does not have its annotated type."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _is_a(value, f.type):
            key = {"lam": "lambda"}.get(f.name, f.name)
            kind = f.type if get_args(f.type) else f.type.__name__
            raise ConfigurationError(
                f"{where}{'.' if where else ''}{key} must be {kind}, got "
                f"{json.dumps(value)}")


@dataclass
class DatasetConfig:
    kind: str = "mixture"
    preset: str | None = "blobs8"
    n_classes: int | None = None
    dim: int | None = None
    means: list[list[float]] | None = None
    variances: list[float] | None = None
    priors: list[float] | None = None
    label_noise: float | None = None
    n_train: int | None = None
    n_val: int | None = None
    n_test: int | None = None
    seed: int | None = None
    path: str | None = None
    fractions: list[float] = field(default_factory=lambda: [0.7, 0.15, 0.15])
    standardize: bool = False

    ALLOWED = ("kind", "preset", "n_classes", "dim", "means", "variances",
               "priors", "label_noise", "n_train", "n_val", "n_test", "seed",
               "path", "fractions", "standardize")

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetConfig":
        _require_keys(d, cls.ALLOWED, "dataset")
        cfg = cls(**d)
        _check_types(cfg, "dataset")
        if cfg.kind not in ("mixture", "csv"):
            raise ConfigurationError("dataset.kind must be 'mixture' or 'csv'")
        if cfg.kind == "csv" and not cfg.path:
            raise ConfigurationError("dataset.kind 'csv' needs a path")
        if cfg.kind == "mixture" and cfg.preset is None and cfg.means is None:
            raise ConfigurationError(
                "mixture dataset needs a preset or explicit means")
        if cfg.preset not in (None, "blobs8"):
            raise ConfigurationError(f"unknown dataset preset {cfg.preset!r}")
        return cfg

    def mixture_spec(self, root_seed: int) -> MixtureSpec:
        if self.kind != "mixture":
            raise ConfigurationError("not a mixture dataset")
        seed = self.seed if self.seed is not None \
            else derive_seed(root_seed, "dataset")
        if self.preset == "blobs8":
            spec = blobs8(seed=seed)
        else:
            C = self.n_classes or len(self.means)
            means = np.asarray(self.means, dtype=np.float64)
            spec = MixtureSpec(
                n_classes=C, dim=self.dim or means.shape[1], means=means,
                variances=np.asarray(self.variances, dtype=np.float64)
                if self.variances is not None else np.ones(C),
                priors=np.asarray(self.priors, dtype=np.float64)
                if self.priors is not None else np.full(C, 1.0 / C),
                seed=seed)
        for name in ("label_noise", "n_train", "n_val", "n_test"):
            value = getattr(self, name)
            if value is not None:
                setattr(spec, name, value)
        if self.preset is not None:
            # explicit geometry overrides apply on top of the preset too
            if self.means is not None:
                spec.means = np.asarray(self.means, dtype=np.float64)
            if self.variances is not None:
                spec.variances = np.asarray(self.variances, dtype=np.float64)
            if self.priors is not None:
                spec.priors = np.asarray(self.priors, dtype=np.float64)
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "preset": self.preset,
            "n_classes": self.n_classes, "dim": self.dim,
            "means": self.means, "variances": self.variances,
            "priors": self.priors, "label_noise": self.label_noise,
            "n_train": self.n_train, "n_val": self.n_val,
            "n_test": self.n_test, "seed": self.seed, "path": self.path,
            "fractions": list(self.fractions),
            "standardize": self.standardize,
        }


@dataclass
class ModelConfig:
    """The trunk's hidden widths; the head follows from the objective."""

    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])

    ALLOWED = ("hidden_dims",)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        _require_keys(d, cls.ALLOWED, "model")
        cfg = cls(**d)
        _check_types(cfg, "model")
        if any(w < 1 for w in cfg.hidden_dims):
            raise ConfigurationError("hidden widths must be >= 1")
        return cfg

    def to_dict(self) -> dict:
        return {"hidden_dims": list(self.hidden_dims)}


@dataclass
class EvalConfig:
    mechanisms: list[str] = field(default_factory=lambda: ["softmax_response"])
    coverage_grid: list[float] = field(
        default_factory=lambda: list(DEFAULT_COVERAGE_GRID))
    calibration_split: str = "val"
    histogram_bins: int = 20

    ALLOWED = ("mechanisms", "coverage_grid", "calibration_split",
               "histogram_bins")

    @classmethod
    def from_dict(cls, d: dict) -> "EvalConfig":
        _require_keys(d, cls.ALLOWED, "evaluation")
        cfg = cls(**d)
        _check_types(cfg, "evaluation")
        for m in cfg.mechanisms:
            if m not in MECHANISM_KINDS:
                raise ConfigurationError(
                    f"unknown mechanism {m!r} in evaluation.mechanisms")
        if cfg.calibration_split not in ("val", "test"):
            raise ConfigurationError(
                "evaluation.calibration_split must be 'val' or 'test'")
        if any(not 0 < float(c) <= 1 for c in cfg.coverage_grid):
            raise ConfigurationError("coverage grid values must lie in (0, 1]")
        if cfg.histogram_bins < 2:
            raise ConfigurationError("histogram_bins must be >= 2")
        return cfg

    def to_dict(self) -> dict:
        return {"mechanisms": list(self.mechanisms),
                "coverage_grid": [float(c) for c in self.coverage_grid],
                "calibration_split": self.calibration_split,
                "histogram_bins": self.histogram_bins}


@dataclass
class GridConfig:
    methods: list[str] = field(default_factory=lambda: ["CE"])
    mechanisms: list[str] = field(
        default_factory=lambda: ["softmax_response"])
    coverages: list[float] = field(default_factory=lambda: [0.9, 0.7, 0.5])
    seeds: list[int] = field(default_factory=lambda: [0])

    ALLOWED = ("methods", "mechanisms", "coverages", "seeds")

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        from .objectives import OBJECTIVE_KINDS

        _require_keys(d, cls.ALLOWED, "grid")
        cfg = cls(**d)
        _check_types(cfg, "grid")
        for m in cfg.methods:
            if m not in OBJECTIVE_KINDS:
                raise ConfigurationError(f"unknown grid method {m!r}")
        for m in cfg.mechanisms:
            if m not in MECHANISM_KINDS:
                raise ConfigurationError(f"unknown grid mechanism {m!r}")
        if any(not 0 < float(c) <= 1 for c in cfg.coverages):
            raise ConfigurationError("grid coverages must lie in (0, 1]")
        if not cfg.seeds:
            raise ConfigurationError("grid needs at least one seed")
        return cfg

    def to_dict(self) -> dict:
        return {"methods": list(self.methods),
                "mechanisms": list(self.mechanisms),
                "coverages": [float(c) for c in self.coverages],
                "seeds": [int(s) for s in self.seeds]}


def _objective_from_dict(d: dict) -> ObjectiveConfig:
    allowed = ("kind", "beta", "o", "lambda", "alpha_mix", "c_target",
               "coverage_penalty", "sat_momentum", "sat_pretrain_epochs",
               "sat_update")
    _require_keys(d, allowed, "objective")
    d = dict(d)
    if "lambda" in d:
        d["lam"] = d.pop("lambda")
    cfg = ObjectiveConfig(**d)
    _check_types(cfg, "objective")
    return cfg


def _training_from_dict(d: dict, objective: ObjectiveConfig) -> TrainConfig:
    allowed = ("epochs", "batch_size", "lr0", "momentum", "decay_factor",
               "decay_every", "seed", "weight_decay")
    _require_keys(d, allowed, "training")
    cfg = TrainConfig(objective=objective, **d)
    _check_types(cfg, "training")
    return cfg


@dataclass
class RunConfig:
    dataset: DatasetConfig
    model: ModelConfig
    objective: ObjectiveConfig
    training: TrainConfig
    evaluation: EvalConfig
    grid: GridConfig | None
    output_dir: str

    ALLOWED = ("dataset", "model", "objective", "training", "evaluation",
               "grid", "output_dir")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _require_keys(doc, cls.ALLOWED, "top-level")
        objective = _objective_from_dict(doc.get("objective", {}))
        cfg = cls(
            dataset=DatasetConfig.from_dict(doc.get("dataset", {})),
            model=ModelConfig.from_dict(doc.get("model", {})),
            objective=objective,
            training=_training_from_dict(doc.get("training", {}), objective),
            evaluation=EvalConfig.from_dict(doc.get("evaluation", {})),
            grid=GridConfig.from_dict(doc["grid"]) if "grid" in doc else None,
            output_dir=doc.get("output_dir", "runs/out"),
        )
        _check_types(cfg)
        cfg.training.validate()
        if cfg.dataset.kind == "mixture":
            spec = cfg.dataset.mixture_spec(cfg.training.seed)
            cfg.objective.validate(spec.n_classes)
        return cfg

    def normalized(self) -> dict:
        doc = {
            "dataset": self.dataset.to_dict(),
            "model": self.model.to_dict(),
            "objective": self.objective.to_dict(),
            "training": self.training.to_dict(),
            "evaluation": self.evaluation.to_dict(),
            "output_dir": self.output_dir,
        }
        if self.grid is not None:
            doc["grid"] = self.grid.to_dict()
        return doc

    def hash(self) -> str:
        return config_hash(self.normalized())


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    try:
        return RunConfig.from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
