"""Spans and counts around every public function of each divtraj layer.

The tracer patches the package from outside: every function a layer lists
in ``__all__`` is replaced, in every divtraj module that binds it by name
(``cli.greedy_map`` as well as ``dpp.greedy_map``), by a wrapper that
records a span (name, parent, start, end, flags). The decoders'
``decode_batch`` methods and the CLI's ``cmd_*`` handlers are wrapped too.
Spans live in typed arrays in memory and are summarised per pass into the
per-layer metrics listed in ``PER_LAYER``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "synth", "fileio", "decoders", "flows", "dpp", "energy", "training", "trajectory")
CLI_HANDLERS = {"cmd_gen_data": "gen_data", "cmd_train": "train", "cmd_sample": "sample", "cmd_eval": "eval"}
DECODER_CLASSES = ("LinearDecoder", "CrossroadDecoder", "TabulatedDecoder")

ERR, OUTER_NAME, OUTER_LAYER = 1, 2, 4

# Per-layer metrics of one traced pass (gen-data plus every timed stage), with units.
PER_LAYER = {
    "cli.gen_data.s": "s",
    "cli.train.s": "s",
    "cli.sample.s": "s",
    "cli.eval.s": "s",
    "training.numeric_gradient.calls": "count",
    "training.numeric_gradient.s": "s",
    "training.loss_evals_per_iter": "count/iter",
    "training.iters": "count",
    "training.train.s": "s",
    "decoders.decode_batch.calls": "count",
    "decoders.decode_batch.rows": "count",
    "decoders.decode_batch.s": "s",
    "trajectory.evaluate_sample_sets.s": "s",
    "trajectory.mm_metrics.s": "s",
    "trajectory.ade_fde.calls": "count",
    "trajectory.build_multimodal_gt.s": "s",
    "trajectory.mm_group_size.mean": "count",
    "dpp.greedy_map.calls": "count",
    "dpp.greedy_map.s": "s",
    "dpp.greedy_map.selected": "count",
    "dpp.build_kernel.calls": "count",
    "dpp.build_kernel.s": "s",
    "flows.apply_flows.calls": "count",
    "flows.apply_flows.s": "s",
    "fileio.read.s": "s",
    "fileio.write.s": "s",
    "fileio.bytes_written": "B",
    "synth.generate_crossroad.s": "s",
    "energy.calls": "count",
    "energy.s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


def _observe_rows(counts, args, result):
    counts["decode_rows"] += len(result)


def _observe_selected(counts, args, result):
    counts["map_selected"] += len(result)


def _observe_groups(counts, args, result):
    counts["mm_groups"] += len(result)
    counts["mm_members"] += sum(len(futures) for futures in result.values())


def _observe_written(counts, args, result):
    counts["bytes_written"] += os.path.getsize(args[0])


OBSERVERS = {
    "decoders.decode_batch": _observe_rows,
    "dpp.greedy_map": _observe_selected,
    "trajectory.build_multimodal_gt": _observe_groups,
    **{f"fileio.{w}": _observe_written for w in ("write_dataset", "write_model", "write_samples", "write_report")},
}


class Tracer:
    """Installs span-recording wrappers into a loaded divtraj package.

    Spans are recorded only while ``enabled`` is true, so harness-side
    checks between stages stay out of the trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.enabled = False
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self._collect()
        self.reset()

    # --- installation --------------------------------------------------------
    def _span_id(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _collect(self) -> None:
        layers = [importlib.import_module(f"divtraj.{layer}") for layer in LAYERS]
        binders = [m for n, m in sys.modules.items() if n == "divtraj" or n.startswith("divtraj.")]
        for lid, mod in enumerate(layers):
            targets = {attr: attr for attr in mod.__all__}
            if LAYERS[lid] == "cli":
                targets.update(CLI_HANDLERS)
            for attr, label in targets.items():
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(fn, self._span_id(f"{LAYERS[lid]}.{label}", lid))
                for binder in binders:
                    for name, value in vars(binder).items():
                        if value is fn:
                            self._patches.append((binder, name, fn, wrapper))
            if LAYERS[lid] == "decoders":
                sid = self._span_id("decoders.decode_batch", lid)
                for cls_name in DECODER_CLASSES:
                    cls = getattr(mod, cls_name)
                    method = cls.__dict__["decode_batch"]
                    self._patches.append((cls, "decode_batch", method, self._wrap(method, sid)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, sid: int):
        lid = self.layer_of[sid]
        observe = OBSERVERS.get(self.names[sid])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            flags = (OUTER_NAME if tracer.name_depth[sid] == 0 else 0) | (
                OUTER_LAYER if tracer.layer_depth[lid] == 0 else 0
            )
            tracer.name_id.append(sid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0)
            tracer.flags.append(flags)
            tracer.stack.append(idx)
            tracer.name_depth[sid] += 1
            tracer.layer_depth[lid] += 1
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.flags[idx] |= ERR
                raise
            finally:
                tracer.end[idx] = perf_counter_ns()
                tracer.stack.pop()
                tracer.name_depth[sid] -= 1
                tracer.layer_depth[lid] -= 1
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    # --- recording -----------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counts; start a new pass."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.flags = array("B")
        self.stack = [-1]
        self.name_depth = [0] * len(self.names)
        self.layer_depth = [0] * len(LAYERS)
        self.counts = dict.fromkeys(("decode_rows", "map_selected", "mm_groups", "mm_members", "bytes_written"), 0)

    def spans(self) -> dict:
        """The recorded spans as arrays (times in ns from perf_counter_ns)."""
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "flags": np.array(self.flags, dtype=np.uint8),
        }

    def pass_metrics(self) -> dict:
        """Summarise the recorded pass into the ``PER_LAYER`` metrics."""
        sp = self.spans()
        nid, flags = sp["name_id"], sp["flags"]
        start, end = sp["start_ns"], sp["end_ns"]
        n_names = len(self.names)
        dur = (end - start) * 1e-9
        layer = np.asarray(self.layer_of, dtype=np.int64)[nid]
        calls = np.bincount(nid, minlength=n_names)
        inclusive = np.bincount(nid, weights=dur * ((flags & OUTER_NAME) > 0), minlength=n_names)
        ids = {name: i for i, name in enumerate(self.names)}

        def n_calls(*names):
            return float(sum(calls[ids[name]] for name in names))

        def secs(*names):
            return float(sum(inclusive[ids[name]] for name in names))

        # Decodes attributed to optimizer iterations: those made before each
        # adam_step of a training run (the final post-loop evaluation is not
        # an iteration and is excluded).
        train_ids = [ids["training.train_dsf"], ids["training.train_dlow"]]
        adam, decode = ids["training.adam_step"], ids["decoders.decode_batch"]
        evals = iters = 0
        for i in np.flatnonzero(np.isin(nid, train_ids) & ((flags & OUTER_NAME) > 0)):
            inner = nid[i + 1 : np.searchsorted(start, end[i], side="left")]
            steps = np.flatnonzero(inner == adam)
            if steps.size:
                iters += steps.size
                evals += int(np.count_nonzero(inner[: steps[-1]] == decode))

        c = self.counts
        greedy_calls = n_calls("dpp.greedy_map")
        out = {
            "cli.gen_data.s": secs("cli.gen_data"),
            "cli.train.s": secs("cli.train"),
            "cli.sample.s": secs("cli.sample"),
            "cli.eval.s": secs("cli.eval"),
            "training.numeric_gradient.calls": n_calls("training.numeric_gradient"),
            "training.numeric_gradient.s": secs("training.numeric_gradient"),
            "training.loss_evals_per_iter": evals / iters if iters else 0.0,
            "training.iters": n_calls("training.adam_step"),
            "training.train.s": secs("training.train_dsf", "training.train_dlow"),
            "decoders.decode_batch.calls": n_calls("decoders.decode_batch"),
            "decoders.decode_batch.rows": float(c["decode_rows"]),
            "decoders.decode_batch.s": secs("decoders.decode_batch"),
            "trajectory.evaluate_sample_sets.s": secs("trajectory.evaluate_sample_sets"),
            "trajectory.mm_metrics.s": secs("trajectory.mm_metrics"),
            "trajectory.ade_fde.calls": n_calls("trajectory.ade", "trajectory.fde"),
            "trajectory.build_multimodal_gt.s": secs("trajectory.build_multimodal_gt"),
            "trajectory.mm_group_size.mean": c["mm_members"] / c["mm_groups"] if c["mm_groups"] else 0.0,
            "dpp.greedy_map.calls": greedy_calls,
            "dpp.greedy_map.s": secs("dpp.greedy_map"),
            "dpp.greedy_map.selected": c["map_selected"] / greedy_calls if greedy_calls else 0.0,
            "dpp.build_kernel.calls": n_calls("dpp.build_kernel"),
            "dpp.build_kernel.s": secs("dpp.build_kernel"),
            "flows.apply_flows.calls": n_calls("flows.apply_flows"),
            "flows.apply_flows.s": secs("flows.apply_flows"),
            "fileio.read.s": secs(*[m for m in ids if m.startswith("fileio.read_")]),
            "fileio.write.s": secs(*[m for m in ids if m.startswith("fileio.write_")]),
            "fileio.bytes_written": float(c["bytes_written"]),
            "synth.generate_crossroad.s": secs("synth.generate_crossroad"),
        }
        energy = LAYERS.index("energy")
        out["energy.calls"] = float(np.count_nonzero(layer == energy))
        out["energy.s"] = float(dur[(layer == energy) & ((flags & OUTER_LAYER) > 0)].sum())
        layer_errors = np.bincount(layer, weights=(flags & ERR) > 0, minlength=len(LAYERS))
        for lid, name in enumerate(LAYERS):
            out[f"{name}.errors"] = float(layer_errors[lid])
        return out
