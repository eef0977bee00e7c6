"""In-memory span tracer that wraps mctg functions from outside the package.

Several mctg modules bind functions by name at import time: ``evalcli`` and
``cli`` do ``from .garch import rolling_forecast``, ``env`` imports
``window_at``, ``ppo`` imports ``adam_step``, and ``mctg/__init__`` re-exports
most public names. Replacing only the defining module's attribute would miss
every call made through those bindings, and the layer would silently read
zero. ``Tracer.install`` therefore replaces every binding of each target in
every loaded ``mctg`` module, then checks that no binding of an original is
left; methods are replaced on their class. ``Tracer.uninstall`` restores the
originals.

Each call records one span: id, parent span id, name, start and end
(``perf_counter_ns``) and an optional note taken from the call (rows in a
policy batch, a GARCH fit's convergence, bytes written). All spans of one
workload run share ``run_id``. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import itertools
import os
import statistics
import sys
import time
from collections import defaultdict


class TraceError(Exception):
    """Wrapping left a binding behind, or an expected span never fired."""


def _policy_rows(args, kwargs, result):
    first = next(iter(args[1].values()))
    return 1 if first.ndim == 1 else len(first)


def _fit_report(args, kwargs, result):
    return (result.converged, result.iterations)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# Span name -> (attribute in the module named by the prefix, note function).
# ``Class.method`` attributes are replaced on the class.
TARGETS = {
    "marketdata.simulate_market": ("simulate_market", None),
    "marketdata.save_bars": ("save_bars", None),
    "marketdata.load_bars": ("load_bars", None),
    "marketdata.resample": ("resample", None),
    "marketdata.align": ("align", None),
    "marketdata.window_at": ("window_at", None),
    "marketdata.normalizer_fit": ("ObservationNormalizer.fit", None),
    "garch.rolling_forecast": ("rolling_forecast", None),
    "garch.fit": ("fit", _fit_report),
    "garch.log_likelihood": ("log_likelihood", None),
    "garch.filter_variances": ("filter_variances", None),
    "nn.forward": ("forward", None),
    "nn.backward": ("backward", None),
    "nn.adam_step": ("adam_step", None),
    "policy.forward": ("Policy.forward", _policy_rows),
    "policy.backward": ("Policy.backward", None),
    "policy.flatten_observation": ("Policy.flatten_observation", None),
    "env.step": ("TradingEnv.step", None),
    "env.reset": ("TradingEnv.reset", None),
    "env.observation": ("TradingEnv.observation", None),
    "ppo.train": ("train", None),
    "ppo.collect_rollout": ("collect_rollout", None),
    "ppo.update": ("update", None),
    "ppo.compute_gae": ("compute_gae", None),
    "ppo.loss_and_grads": ("ppo_loss_and_grads", None),
    "ppo.clip_grad_norm": ("clip_grad_norm", None),
    "evalcli.build_dataset": ("build_dataset", None),
    "evalcli.backtest": ("backtest", None),
    "evalcli.save_checkpoint": ("save_checkpoint", _file_size),
    "evalcli.load_checkpoint": ("load_checkpoint", None),
    "cli.generate_data": ("cmd_generate_data", None),
    "cli.train": ("cmd_train", None),
    "cli.backtest": ("cmd_backtest", None),
}


def _mctg_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mctg" or name.startswith("mctg."))]


class Tracer:
    """Records a span for every call of every TARGETS entry while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, note):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              note(args, kwargs, result) if done and note else None))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        import mctg.cli  # noqa: F401  (loads every mctg module before scanning)

        modules = _mctg_modules()
        originals = {}
        for name, (attr, note) in TARGETS.items():
            owner = sys.modules["mctg." + name.split(".")[0]]
            if "." in attr:
                cls_name, leaf = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[leaf]
                self._replace(cls, leaf, orig, self._wrap(name, orig, note))
            else:
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig, note)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._replace(module, key, orig, wrapper)
            originals[id(orig)] = name
        left = [f"{module.__name__}.{key} ({originals[id(value)]})"
                for module in modules for key, value in vars(module).items()
                if id(value) in originals]
        if left:
            self.uninstall()
            raise TraceError("bindings not wrapped: " + ", ".join(left))
        return self

    def _replace(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def require(self, expected) -> None:
        """Fail when a span the workload is known to use never fired."""
        fired = {span[2] for span in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise TraceError("expected spans never fired: " + ", ".join(missing))

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV, one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns,note\n")
            for span_id, parent, name, start, end, note in self.spans:
                note_text = "" if note is None else str(note).replace(",", ";")
                fh.write(f"{self.run_id},{span_id},{parent},{name},{start},{end},{note_text}\n")


# -- per-layer metrics ---------------------------------------------------------

class SpanStats:
    """Per-name durations, self times, notes and parent names of a span list."""

    def __init__(self, spans):
        child_ns = defaultdict(int)
        name_of = {}
        for span_id, parent, name, start, end, _ in spans:
            child_ns[parent] += end - start
            name_of[span_id] = name
        self.by_name = defaultdict(list)
        for span_id, parent, name, start, end, note in spans:
            dur = end - start
            self.by_name[name].append(
                (dur, dur - child_ns.get(span_id, 0), note, name_of.get(parent)))

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def total_s(self, name: str) -> float:
        return sum(r[0] for r in self.by_name[name]) / 1e9

    def self_s(self, name: str) -> float:
        return sum(r[1] for r in self.by_name[name]) / 1e9

    def median_us(self, name: str, self_time: bool = False, where=None) -> float:
        rows = [r for r in self.by_name[name] if where is None or where(r)]
        if not rows:
            return 0.0
        return statistics.median(r[1] if self_time else r[0] for r in rows) / 1e3

    def notes(self, name: str) -> list:
        return [r[2] for r in self.by_name[name]]

    def calls_under(self, name: str, parent: str) -> int:
        return sum(1 for r in self.by_name[name] if r[3] == parent)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _forward_batch_us_per_row(s: SpanStats) -> float:
    rows = [r for r in s.by_name["policy.forward"] if r[2] and r[2] > 1]
    return _ratio(sum(r[0] for r in rows) / 1e3, sum(r[2] for r in rows))


def _fit_converged_ratio(s: SpanStats) -> float:
    notes = s.notes("garch.fit")
    return _ratio(sum(1 for converged, _ in notes if converged), len(notes))


# Per-layer metric -> (unit, value from SpanStats). Times ending in ``_s`` are
# inclusive totals over the traced run; ``_us``/``_ms`` are medians per call.
LAYER_METRICS = {
    "marketdata.simulate_s": ("s", lambda s: s.total_s("marketdata.simulate_market")),
    "marketdata.save_bars_s": ("s", lambda s: s.total_s("marketdata.save_bars")),
    "marketdata.load_bars_s": ("s", lambda s: s.total_s("marketdata.load_bars")),
    "marketdata.resample_s": ("s", lambda s: s.total_s("marketdata.resample")),
    "marketdata.align_s": ("s", lambda s: s.total_s("marketdata.align")),
    "marketdata.normalizer_fit_s": ("s", lambda s: s.total_s("marketdata.normalizer_fit")),
    "marketdata.window_at_calls": ("count", lambda s: s.calls("marketdata.window_at")),
    "marketdata.window_at_s": ("s", lambda s: s.total_s("marketdata.window_at")),
    "garch.rolling_forecast_s": ("s", lambda s: s.total_s("garch.rolling_forecast")),
    "garch.fit_calls": ("count", lambda s: s.calls("garch.fit")),
    "garch.fit_ms": ("ms", lambda s: s.median_us("garch.fit") / 1e3),
    "garch.fit_converged_ratio": ("ratio", _fit_converged_ratio),
    "garch.fit_iterations": ("count", lambda s: sum(n for _, n in s.notes("garch.fit"))),
    "garch.log_likelihood_calls": ("count", lambda s: s.calls("garch.log_likelihood")),
    "garch.log_likelihood_us": ("us", lambda s: s.median_us("garch.log_likelihood")),
    "garch.filter_variances_calls": ("count", lambda s: s.calls("garch.filter_variances")),
    "garch.filter_variances_us": ("us", lambda s: s.median_us("garch.filter_variances")),
    "nn.forward_calls": ("count", lambda s: s.calls("nn.forward")),
    "nn.forward_s": ("s", lambda s: s.total_s("nn.forward")),
    "nn.backward_calls": ("count", lambda s: s.calls("nn.backward")),
    "nn.backward_s": ("s", lambda s: s.total_s("nn.backward")),
    "nn.adam_step_calls": ("count", lambda s: s.calls("nn.adam_step")),
    "nn.adam_step_s": ("s", lambda s: s.total_s("nn.adam_step")),
    "policy.forward_calls": ("count", lambda s: s.calls("policy.forward")),
    "policy.forward_rows_per_call": (
        "rows", lambda s: _ratio(sum(s.notes("policy.forward")), s.calls("policy.forward"))),
    "policy.forward_single_us": (
        "us", lambda s: s.median_us("policy.forward", where=lambda r: r[2] == 1)),
    "policy.forward_batch_us_per_row": ("us", _forward_batch_us_per_row),
    "policy.backward_s": ("s", lambda s: s.total_s("policy.backward")),
    "policy.flatten_observation_calls": (
        "count", lambda s: s.calls("policy.flatten_observation")),
    "policy.flatten_observation_s": ("s", lambda s: s.total_s("policy.flatten_observation")),
    "env.step_calls": ("count", lambda s: s.calls("env.step")),
    "env.step_us": ("us", lambda s: s.median_us("env.step", self_time=True)),
    "env.reset_calls": ("count", lambda s: s.calls("env.reset")),
    "env.observation_calls": ("count", lambda s: s.calls("env.observation")),
    "env.obs_cache_hit_ratio": ("ratio", lambda s: 1.0 - _ratio(
        s.calls_under("marketdata.window_at", "env.observation"),
        s.calls("env.observation")) if s.calls("env.observation") else 0.0),
    "ppo.collect_rollout_s": ("s", lambda s: s.total_s("ppo.collect_rollout")),
    "ppo.update_s": ("s", lambda s: s.total_s("ppo.update")),
    "ppo.collect_share": ("ratio", lambda s: _ratio(
        s.total_s("ppo.collect_rollout"),
        s.total_s("ppo.collect_rollout") + s.total_s("ppo.update"))),
    "ppo.compute_gae_s": ("s", lambda s: s.total_s("ppo.compute_gae")),
    "ppo.loss_and_grads_s": ("s", lambda s: s.total_s("ppo.loss_and_grads")),
    "ppo.clip_grad_norm_s": ("s", lambda s: s.total_s("ppo.clip_grad_norm")),
    "evalcli.build_dataset_calls": ("count", lambda s: s.calls("evalcli.build_dataset")),
    "evalcli.build_dataset_s": ("s", lambda s: s.total_s("evalcli.build_dataset")),
    "evalcli.backtest_s": ("s", lambda s: s.total_s("evalcli.backtest")),
    "evalcli.save_checkpoint_calls": ("count", lambda s: s.calls("evalcli.save_checkpoint")),
    "evalcli.save_checkpoint_s": ("s", lambda s: s.total_s("evalcli.save_checkpoint")),
    "evalcli.save_checkpoint_bytes": (
        "bytes", lambda s: sum(s.notes("evalcli.save_checkpoint"))),
    "evalcli.load_checkpoint_s": ("s", lambda s: s.total_s("evalcli.load_checkpoint")),
    "cli.generate_data_s": ("s", lambda s: s.total_s("cli.generate_data")),
    "cli.train_s": ("s", lambda s: s.total_s("cli.train")),
    "cli.backtest_s": ("s", lambda s: s.total_s("cli.backtest")),
    "cli.self_s": ("s", lambda s: sum(s.self_s(n) for n in
                                      ("cli.generate_data", "cli.train", "cli.backtest"))),
}


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); layers a run never entered read 0."""
    stats = SpanStats(spans)
    return {name: (fn(stats), unit) for name, (unit, fn) in LAYER_METRICS.items()}
