"""Spans around the calls into each latticesum layer, from outside the package.

The package binds its functions by name at each import site, so a layer's
entry point is wrapped in every namespace that calls it: ``cli`` binds the
``dispersion``, ``direct_sum`` and ``ewald`` entry points, ``dispersion``
binds those of ``ewald`` and ``direct_sum`` and calls its own ``j_intra`` and
``j_inter`` through module globals, and ``ewald`` binds ``bessel_k``.

A span records its name, parent span, start and end (ns) and an optional
note taken from the arguments (the k of a coupling, the window cutoff).
The hot leaves ``bessel_k`` and ``CouplingTensor`` are not spans: they are
kept as a call count and total time per parent span. Everything stays in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

ROOT = -1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, t0, t1, note]
        self.leaves = defaultdict(lambda: [0, 0])  # (parent, name) -> [calls, ns]
        self.stack = [ROOT]

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0, note(*args) if note else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return wrapper

    def leaf(self, name, fn):
        leaves, stack, clock = self.leaves, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg = leaves[(stack[-1], name)]
                agg[0] += 1
                agg[1] += clock() - t0

        return wrapper

    def dump(self, path):
        leaves = [[parent, name, n, ns] for (parent, name), (n, ns) in self.leaves.items()]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "leaves": leaves}, fh)


def _k(k, *_args):
    return [k.kxa, k.kya]


def _k_and_b(k, _dipole, b_over_a, *_args):
    return [k.kxa, k.kya, b_over_a]


def _cutoff(_k, cfg, *_args):
    return cfg.cutoff


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported latticesum in place."""
    from latticesum import cli, dispersion, ewald, model

    entry = {
        "d_tensor_direct": ("direct_sum.d_tensor_direct", _cutoff),
        "k0_tail_correction": ("direct_sum.k0_tail_correction", None),
        "d_intra_ewald": ("ewald.d_intra_ewald", None),
        "d_inter_ewald": ("ewald.d_inter_ewald", None),
        "coupling_from_tensor": ("dispersion.coupling_from_tensor", None),
        "j_intra": ("dispersion.j_intra", _k),
        "j_inter": ("dispersion.j_inter", _k_and_b),
        "stack_matrix": ("dispersion.stack_matrix", None),
        "symmetric_eigen": ("dispersion.symmetric_eigen", None),
    }
    for module in (cli, dispersion):
        for attr, (name, note) in entry.items():
            if hasattr(module, attr):
                setattr(module, attr, tracer.span(name, getattr(module, attr), note))
    for command, fn in cli._COMMANDS.items():
        cli._COMMANDS[command] = tracer.span("cli", fn)
    ewald.bessel_k = tracer.leaf("specfun.bessel_k", ewald.bessel_k)
    model.CouplingTensor.__init__ = tracer.leaf(
        "model.CouplingTensor", model.CouplingTensor.__init__
    )


def summarize(path):
    """Per-name calls and self time (s), plus the notes of each name."""
    with open(path) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    covered = defaultdict(int)  # span id -> ns spent in children and leaves
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    notes = defaultdict(list)
    for name, parent, t0, t1, note in spans:
        covered[parent] += t1 - t0
        calls[name] += 1
        if note is not None:
            notes[name].append(note)
    for parent, name, n, ns in trace["leaves"]:
        covered[parent] += ns
        calls[name] += n
        self_ns[name] += ns
    for sid, (name, _parent, t0, t1, _note) in enumerate(spans):
        self_ns[name] += t1 - t0 - covered[sid]
    return dict(calls), {k: v / 1e9 for k, v in self_ns.items()}, dict(notes)
