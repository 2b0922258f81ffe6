"""Times selcls's public functions from outside the program.

``Tracer.install`` replaces every public function of every selcls module,
in every module namespace that binds it, by a wrapper that records a span:
label, variant, start, end, parent span, and the time its child spans
took. A function is wrapped under the name its caller looks it up by, for
example ``selcls.training.network_forward`` and ``selcls.cli.load_checkpoint``,
and carries the label of its home module (``nn.network_forward``). Spans
stay in memory and are written out by ``write_spans`` at the end.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

# Per-cell formatting and per-layer numeric kernels stay unwrapped: they
# run many times inside each wrapped call, so timing them would mostly
# measure the wrapper.
UNTRACED_MODULES = {"util"}
UNTRACED = {"nn.relu", "nn.sigmoid", "nn.log_softmax", "nn.stable_softmax",
            "nn.affine_forward"}

# largest row count of a network_forward call that counts as a training
# batch rather than a whole split
BATCH_ROWS = 256


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _forward_variant(args, kwargs):
    rows = len(_arg(args, kwargs, 1, "batch"))
    return "batch" if rows <= BATCH_ROWS else "full"


# label -> variant of one call, computed from its arguments
VARIANTS = {
    "nn.network_forward": _forward_variant,
    "objectives.objective_dispatch": lambda a, k: _arg(a, k, 0, "cfg").base_kind,
    "selection.score_batch": lambda a, k: _arg(a, k, 0, "mechanism").kind,
    "training.train": lambda a, k: _arg(a, k, 3, "cfg").objective.base_kind,
}
# label -> a number recorded once the call has returned
AFTER = {
    "nn.save_checkpoint": lambda a, k: os.path.getsize(_arg(a, k, 1, "path")),
    "training.train": lambda a, k: _arg(a, k, 3, "cfg").epochs,
}


def _guarded(fn):
    """A variant or after-hook that fails yields None instead of raising,
    so a changed signature loses one detail, not the run."""
    def call(args, kwargs):
        try:
            return fn(args, kwargs)
        except Exception:  # noqa: BLE001 - any signature drift
            return None
    return call


class Tracer:
    def __init__(self):
        # [label, variant, start, end, parent index, child seconds, after]
        self.spans = []
        self._stack = []
        self._installed = []

    def _wrap(self, fn, label):
        variant = _guarded(VARIANTS[label]) if label in VARIANTS else None
        after = _guarded(AFTER[label]) if label in AFTER else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [label, variant(args, kwargs) if variant else None,
                   0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2], rec[3] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if after:
                rec[6] = after(args, kwargs)
            return result
        return traced

    def install(self, package) -> None:
        wrappers = {}
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                short = home.rsplit(".", 1)[1]
                label = f"{short}.{obj.__name__}"
                if short in UNTRACED_MODULES or label in UNTRACED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, label)
                setattr(module, name, wrappers[obj])
                self._installed.append((module, name, obj))

    def uninstall(self) -> None:
        while self._installed:
            module, name, obj = self._installed.pop()
            setattr(module, name, obj)

    def write_spans(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("id\tparent\tlabel\tvariant\tstart_us\tdur_us\tself_us\n")
            for i, (label, variant, start, end, parent, child, _) in \
                    enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{label}\t{variant or ''}\t"
                        f"{(start - t0) * 1e6:.1f}\t{(end - start) * 1e6:.1f}\t"
                        f"{(end - start - child) * 1e6:.1f}\n")


class SpanIndex:
    """Queries over a finished trace; an empty selection yields None,
    which the report shows as an absent metric."""

    def __init__(self, spans):
        self.spans = spans
        self.by_label = defaultdict(list)
        for i, rec in enumerate(spans):
            self.by_label[rec[0]].append(i)

    def select(self, label, variant=None):
        return [self.spans[i] for i in self.by_label.get(label, ())
                if variant is None or self.spans[i][1] == variant]

    def median(self, label, variant=None, scale=1.0):
        durs = [r[3] - r[2] for r in self.select(label, variant)]
        return float(np.median(durs)) * scale if durs else None

    def median_after(self, label):
        values = [r[6] for r in self.select(label) if r[6] is not None]
        return float(np.median(values)) if values else None

    def children(self, label, parent_label):
        return [r for r in self.select(label)
                if r[4] >= 0 and self.spans[r[4]][0] == parent_label]

    def time_outside(self, label, child_label):
        """Per span of ``label``: its duration minus its ``child_label``
        children's."""
        inner = defaultdict(float)
        for r in self.select(child_label):
            if r[4] >= 0:
                inner[r[4]] += r[3] - r[2]
        return [self.spans[i][3] - self.spans[i][2] - inner[i]
                for i in self.by_label.get(label, ())]

    def train_epochs(self):
        return sum(r[6] or 0 for r in self.select("training.train"))


def count_calls_per_step(run_train, forward, train, steps_per_epoch: int):
    """Function calls per training step, seen through ``sys.setprofile``.

    A step starts where ``train`` calls ``network_forward`` on a batch; the
    calls between two such starts in the last epoch make up one step. The
    epoch's final step is left out, since the per-epoch evaluation follows
    it. Returns the per-step counts.
    """
    forward_code, train_code = forward.__code__, train.__code__
    count = 0
    starts = []

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1
            if event == "call" and frame.f_code is forward_code and \
                    frame.f_back is not None and frame.f_back.f_code is train_code:
                starts.append(count)

    sys.setprofile(profile)
    try:
        run_train()
    finally:
        sys.setprofile(None)
    return [int(d) for d in np.diff(starts[-steps_per_epoch:])]
