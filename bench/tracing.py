"""Timing from outside the program: wrappers installed on qtmix's functions.

``Clock`` times the phases of ``training.train`` that the end-to-end
metrics need (set-up, evaluation, the rest) and is on in every run.
``Tracer`` records a span around every call into each layer's public
functions, for the per-layer metrics of a traced run.

A wrapper is installed under the name its caller looks up: functions that
a module imports by name (``training.evaluate``, ``model.mix_window``, ...)
are replaced in the importing module, functions reached through their
module (``kernels.ansatz_rows_forward``, ...) in the module itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from qtmix import circuits, kernels, mixer, model, optim, training

perf_counter = time.perf_counter


class FirstStep(Exception):
    """Raised at the first training step of a set-up probe."""


class Clock:
    """Set-up and evaluation times of one ``training.train`` call.

    Set-up runs from entering ``train`` to its first call of
    ``batch_gradients``, less the ``evaluate`` call that ``train`` makes
    on the val split before that step.
    """

    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self, stop_at_first_step: bool = False) -> None:
        self.stop_at_first_step = stop_at_first_step
        self.first_step = None
        self.eval_s = 0.0
        self.eval_docs = 0
        self.eval_s_before_first_step = 0.0

    def install(self) -> None:
        evaluate, batch_gradients = training.evaluate, training.batch_gradients

        def timed_evaluate(docs, *args, **kwargs):
            t0 = perf_counter()
            try:
                return evaluate(docs, *args, **kwargs)
            finally:
                self.eval_s += perf_counter() - t0
                self.eval_docs += len(docs)

        def first_step_batch_gradients(*args, **kwargs):
            if self.first_step is None:
                self.first_step = perf_counter()
                self.eval_s_before_first_step = self.eval_s
                if self.stop_at_first_step:
                    raise FirstStep
            return batch_gradients(*args, **kwargs)

        self._undo = [(training, "evaluate", evaluate),
                      (training, "batch_gradients", batch_gradients)]
        training.evaluate = timed_evaluate
        training.batch_gradients = first_step_batch_gradients

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def setup_s(self, entered: float) -> float:
        return self.first_step - entered - self.eval_s_before_first_step


# (owner, attribute, span name, what to count at the call)
_ROWS = "rows"          # first argument's leading dimension
_BUNDLE = "bundle"      # (train windows, vocabulary size) of the returned bundle
_GRAD_BYTES = "grad_bytes"   # bytes of the returned leaf gradients
_STATE_BYTES = "state_bytes"  # bytes of the optimizer's moment arrays

WRAPPED = (
    (training, "load_bundle", "data.load_bundle", _BUNDLE),
    (kernels, "ansatz_rows_forward", "kernels.fwd", _ROWS),
    (kernels, "ansatz_rows_vjp", "kernels.vjp", _ROWS),
    (kernels, "pauli_apply", "kernels.pauli_apply", None),
    (mixer, "ansatz_rows", "circuits.ansatz_rows", None),
    (circuits, "ansatz_rows", "circuits.ansatz_rows", None),
    (mixer, "pauli_expectations", "circuits.readout", None),
    (model, "mix_window", "mixer.mix_window", None),
    (training, "document_loss", "model.train_forward", None),
    (training, "forward_document", "model.eval_forward", None),
    (training, "backward", "autodiff.backward", _GRAD_BYTES),
    (training, "batch_gradients", "training.batch_gradients", None),
    (training, "evaluate", "training.evaluate", None),
    (training, "save_checkpoint", "training.save_checkpoint", None),
    (optim.AdamW, "step", "optim.step", _STATE_BYTES),
)


def _count(kind, args, result):
    if kind == _ROWS:
        return args[0].shape[0]
    if kind == _BUNDLE:
        return (sum(len(doc.windows) for doc in result.train), len(result.vocab))
    if kind == _GRAD_BYTES:
        return sum(g.nbytes for g in result.values())
    if kind == _STATE_BYTES:
        opt = args[0]
        return sum(a.nbytes for moments in (opt.m, opt.v) for a in moments.values())
    return None


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.tape_records: list[int] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo = []

    def span(self, name: str, fn, *args, count=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if count is not None:
            record[4] = _count(count, args, result)
        return result

    def install(self) -> None:
        for owner, attr, name, count in WRAPPED:
            label = f"{owner.__name__}.{attr}"
            self.calls[label] = 0
            original = getattr(owner, attr)

            def wrapper(*args, _fn=original, _name=name, _count=count, _label=label,
                        **kwargs):
                self.calls[_label] += 1
                return self.span(_name, _fn, *args, count=_count, **kwargs)

            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))

        tape_cls = training.Tape
        records = self.tape_records
        calls = self.calls
        calls["training.Tape"] = 0

        class CountingTape(tape_cls):
            """The tape of one training document; its length is counted on exit."""

            def __exit__(self, *exc):
                calls["training.Tape"] += 1
                records.append(len(self))
                return super().__exit__(*exc)

        training.Tape = CountingTape
        self._undo.append((training, "Tape", tape_cls))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def never_called(self) -> list[str]:
        return sorted(label for label, n in self.calls.items() if n == 0)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics as name -> (value, unit), each per round
        (one ``train`` call).

        A span's self time is its duration less its direct children's.
        """
        n = {}
        total = {}
        self_s = {}
        summed = {}
        counts = {}
        for name, start, end, parent, count in self.spans:
            dur = end - start
            n[name] = n.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - dur
            if count is not None:
                counts.setdefault(name, []).append(count)
                if isinstance(count, int):
                    summed[name] = summed.get(name, 0) + count

        def per_round(table, name):
            return table.get(name, 0) / rounds

        train_windows, vocab_size = counts["data.load_bundle"][-1]
        grad_bytes = counts["autodiff.backward"]
        sec, cnt, us, nbytes = "s", "count", "us", "bytes"
        return {
            "data.load_bundle_s": (per_round(total, "data.load_bundle"), sec),
            "data.train_windows": (train_windows, cnt),
            "data.vocab_size": (vocab_size, cnt),
            "kernels.fwd_calls": (per_round(n, "kernels.fwd"), cnt),
            "kernels.fwd_rows": (per_round(summed, "kernels.fwd"), cnt),
            "kernels.fwd_s": (per_round(total, "kernels.fwd"), sec),
            "kernels.fwd_us_per_row":
                (1e6 * total["kernels.fwd"] / summed["kernels.fwd"], us),
            "kernels.vjp_calls": (per_round(n, "kernels.vjp"), cnt),
            "kernels.vjp_rows": (per_round(summed, "kernels.vjp"), cnt),
            "kernels.vjp_s": (per_round(total, "kernels.vjp"), sec),
            "kernels.vjp_us_per_row":
                (1e6 * total["kernels.vjp"] / summed["kernels.vjp"], us),
            "kernels.pauli_apply_calls": (per_round(n, "kernels.pauli_apply"), cnt),
            "kernels.pauli_apply_s": (per_round(total, "kernels.pauli_apply"), sec),
            "circuits.ansatz_rows_calls": (per_round(n, "circuits.ansatz_rows"), cnt),
            "circuits.ansatz_rows_self_s": (per_round(self_s, "circuits.ansatz_rows"), sec),
            "circuits.readout_s": (per_round(total, "circuits.readout"), sec),
            "mixer.windows": (per_round(n, "mixer.mix_window"), cnt),
            "mixer.mix_window_s": (per_round(total, "mixer.mix_window"), sec),
            "mixer.self_s": (per_round(self_s, "mixer.mix_window"), sec),
            "mixer.rows_per_window":
                (summed["kernels.fwd"] / n["mixer.mix_window"], cnt),
            "model.train_forward_s": (per_round(total, "model.train_forward"), sec),
            "model.eval_forward_s": (per_round(total, "model.eval_forward"), sec),
            "model.self_s": (per_round(self_s, "model.train_forward")
                             + per_round(self_s, "model.eval_forward"), sec),
            "autodiff.backward_calls": (per_round(n, "autodiff.backward"), cnt),
            "autodiff.backward_s": (per_round(total, "autodiff.backward"), sec),
            "autodiff.backward_self_s": (per_round(self_s, "autodiff.backward"), sec),
            "autodiff.tape_records_per_doc":
                (sum(self.tape_records) / len(self.tape_records), cnt),
            "autodiff.leaf_grad_bytes_per_doc": (sum(grad_bytes) / len(grad_bytes), nbytes),
            "training.batch_gradients_s": (per_round(total, "training.batch_gradients"), sec),
            "training.batch_self_s": (per_round(self_s, "training.batch_gradients"), sec),
            "training.evaluate_s": (per_round(total, "training.evaluate"), sec),
            "training.checkpoint_save_s": (per_round(total, "training.save_checkpoint"), sec),
            "optim.steps": (per_round(n, "optim.step"), cnt),
            "optim.step_s": (per_round(total, "optim.step"), sec),
            "optim.state_bytes": (counts["optim.step"][-1], nbytes),
        }
