"""In-memory span tracing of risklab's public functions for the traced benchmark run.

Wrappers are installed at the module where each name is looked up at call
time, so nothing inside ``src/`` changes:

* ``risklab.cli.empirical_risk``, because the CLI's risk closures call it
  through ``cli``'s globals (and ``risklab.predictors.empirical_risk`` for
  library callers);
* ``risklab.mcmc.metropolis_step`` / ``annealed_step``, which ``run_chain``'s
  step closure resolves at call time, and the other ``mcmc`` entry points;
* the ``datasets``, ``reconstruction``, analytic and ``Manifest`` entry
  points as ``cli`` (or ``datasets`` / ``reconstruction``) sees them.

Chains run in a thread pool, so every thread keeps its own span stack and
tables.  Spans are aggregated in memory as they close (count, total time,
time covered by direct child spans, thread CPU time where asked for) and the
per-thread tables are merged when the run ends; nothing is written while the
workload runs.  A span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import threading
import time

import risklab.cli as cli
import risklab.datasets as datasets
import risklab.mcmc as mcmc
import risklab.predictors as predictors
import risklab.reconstruction as reconstruction

# risk callables handed to the samplers; a step's self time excludes them
RISK_SPANS = ("mcmc.risk_fn", "mcmc.library_risk_fn")
STEP_SPANS = ("mcmc.metropolis_step", "mcmc.annealed_step", "mcmc.minibatch_proposal_step")


class _Table:
    """One thread's span stack and running totals."""

    __slots__ = ("stack", "spans", "nested", "counts")

    def __init__(self):
        self.stack = []
        self.spans = {}  # name -> [calls, total_s, child_s, cpu_s]
        self.nested = {}  # (parent name, child name) -> seconds
        self.counts = {}  # key -> number


class Tracer:
    """Span wrappers with per-thread stacks; install() patches, uninstall() restores."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._undo = []

    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _Table()
            with self._lock:
                self._tables.append(table)
        return table

    def add(self, key, value):
        counts = self._table().counts
        counts[key] = counts.get(key, 0) + value

    def span(self, name, fn, after=None, cpu=False):
        """Wrap ``fn`` so each call records a span ``name``; ``after`` sees (args, kwargs, result)."""
        clock = time.perf_counter
        thread_clock = time.thread_time
        table_of = self._table

        def traced(*args, **kwargs):
            table = table_of()
            stack = table.stack
            frame = [name, 0.0]
            stack.append(frame)
            c0 = thread_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                entry = table.spans.get(name)
                if entry is None:
                    entry = table.spans[name] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]
                if cpu:
                    entry[3] += thread_clock() - c0
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    table.nested[key] = table.nested.get(key, 0.0) + dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None, cpu=False, factory=None):
        """Replace ``owner.attr`` by a traced wrapper (``factory`` adapts the original first)."""
        original = getattr(owner, attr)
        target = factory(original) if factory is not None else original
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, target, after=after, cpu=cpu))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def merged(self):
        """(spans, nested, counts) summed over every thread that recorded anything."""
        spans, nested, counts = {}, {}, {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, entry in table.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(entry):
                    acc[i] += v
            for key, v in table.nested.items():
                nested[key] = nested.get(key, 0.0) + v
            for key, v in table.counts.items():
                counts[key] = counts.get(key, 0) + v
        return spans, nested, counts

    def install(self):
        """Wrap the public entry points of every risklab layer the workloads reach."""
        add = self.add

        def count_floats_of_result(args, kwargs, result):
            add("datasets.dataset_from_csv.floats", result.features.size)

        def count_floats_of_input(args, kwargs, result):
            add("datasets.dataset_to_csv.floats", args[0].features.size)

        def count_kernel_call(args, kwargs, result):
            spec, data = args[0], args[2]
            subset = kwargs.get("subset", args[3] if len(args) > 3 else None)
            n = len(subset) if subset is not None else data.n
            add(("kernel", spec, n, subset is not None), 1)

        def count_chain(args, kwargs, result):
            add("mcmc.accepts", result.final_state.accepts)
            add("mcmc.recorded_steps", result.final_state.steps_taken)

        def count_hashed(field):
            def after(args, kwargs, result):
                add("cli.manifest.bytes_hashed", args[0].record[field][-1]["bytes"])
            return after

        def counting_write_csv(original):
            def write_csv(path, header, rows):
                n = 0

                def counted():
                    nonlocal n
                    for row in rows:
                        n += 1
                        yield row

                original(path, header, counted())
                add("cli.write_csv.rows", n)
            return write_csv

        def traced_risk_callables(original):
            # the sweep's risk closures are not public names; wrap them as passed
            def boltzmann_sweep(beta_grid, base_config, spec, risk_fn, report_risk_fn=None, **kw):
                risk = self.span("mcmc.risk_fn", risk_fn)
                report = None if report_risk_fn is None else self.span("mcmc.risk_fn", report_risk_fn)
                return original(beta_grid, base_config, spec, risk, report_risk_fn=report, **kw)
            return boltzmann_sweep

        self.patch(cli, "dispatch", "cli.dispatch")
        self.patch(cli, "write_csv", "cli.write_csv", factory=counting_write_csv)
        self.patch(cli.Manifest, "add_input", "cli.manifest.fingerprint",
                   after=count_hashed("dataset_fingerprints"))
        self.patch(cli.Manifest, "add_output", "cli.manifest.fingerprint",
                   after=count_hashed("outputs"))
        for owner in (cli, predictors):
            self.patch(owner, "empirical_risk", "predictors.empirical_risk", after=count_kernel_call)
        for owner in (predictors, datasets):
            self.patch(owner, "predict_batch", "predictors.predict_batch")
        for owner in (cli, datasets):
            self.patch(owner, "dataset_from_csv", "datasets.dataset_from_csv",
                       after=count_floats_of_result)
            self.patch(owner, "dataset_to_csv", "datasets.dataset_to_csv",
                       after=count_floats_of_input)
            self.patch(owner, "split", "datasets.split")
        for attr in ("teacher_relabel", "gen_gaussian_pair"):
            self.patch(cli, attr, f"datasets.{attr}")
        self.patch(cli, "boltzmann_sweep", "mcmc.boltzmann_sweep", factory=traced_risk_callables)
        self.patch(mcmc, "run_chain", "mcmc.run_chain", after=count_chain, cpu=True)
        for attr in ("metropolis_step", "annealed_step", "minibatch_proposal_step", "propose",
                     "sample_without_replacement"):
            self.patch(mcmc, attr, f"mcmc.{attr}")
        for attr in ("reconstruct", "predicted_annealed_risk"):
            self.patch(cli, attr, f"reconstruction.{attr}")
        self.patch(reconstruction, "gibbs_risk_saddle", "gibbs.gibbs_risk_saddle")
        for attr in ("boltzmann_risk_exact", "risk_entropy", "hebbian_simulate"):
            self.patch(cli, attr, f"perceptron.{attr}")
        self.patch(cli, "solve_saddle", "replica.solve_saddle")


def kernel_cost(spec, n: int, gathered: bool = False) -> tuple[int, int]:
    """Computed, not measured: (flops, bytes) of one ``empirical_risk`` call over n rows.

    Multiply-adds count 2 flops, bias adds and rectifier maxima 1; the
    argmax/threshold and label comparison are not counted.  Bytes are the
    compulsory float64 traffic: features, labels and weights read once, each
    layer's activations written once and read once, and for a gathered
    subset the copy of the selected rows (read from the source, written,
    then read by the forward pass).
    """
    p = spec.input_dim
    if spec.kind == predictors.SPHERE_LINEAR:
        flops, activations = 2 * n * p, n
    else:
        flops = activations = 0
        fan_in = p
        for i, fan_out in enumerate(spec.layer_sizes):
            flops += n * (2 * fan_in * fan_out + fan_out)
            if i < len(spec.layer_sizes) - 1:
                flops += n * fan_out
            activations += n * fan_out
            fan_in = fan_out
    rows = 8 * (n * p + n)
    moved = rows + 8 * predictors.weight_count(spec) + 2 * 8 * activations
    if gathered:
        moved += 2 * rows
    return flops, moved


def layer_metrics(tracer: Tracer, info: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced run (phase times and overhead are added by the caller)."""
    spans, nested, counts = tracer.merged()

    def calls(name):
        return spans[name][0] if name in spans else 0

    def busy(name):
        return spans[name][1] if name in spans else 0.0

    def per_call(name, scale):
        return busy(name) / calls(name) * scale if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def step_self_us(name):
        risk = sum(nested.get((name, r), 0.0) for r in RISK_SPANS)
        return ratio(busy(name) - risk, calls(name)) * 1e6

    kernel_calls = kernel_flops = kernel_bytes = 0
    for key, count in counts.items():
        if isinstance(key, tuple) and key[0] == "kernel":
            flops, moved = kernel_cost(key[1], key[2], key[3])
            kernel_calls += count
            kernel_flops += count * flops
            kernel_bytes += count * moved

    steps = sum(calls(s) for s in STEP_SPANS)
    risk_busy = busy("predictors.empirical_risk")
    chain_busy = busy("mcmc.run_chain")
    chain_cpu = spans["mcmc.run_chain"][3] if "mcmc.run_chain" in spans else 0.0
    accepts = counts.get("mcmc.accepts", 0) + info["library_accepts"]
    recorded = counts.get("mcmc.recorded_steps", 0) + info["library_steps"]
    dispatch = spans.get("cli.dispatch", [0, 0.0, 0.0, 0.0])
    tv = info["tv"]
    return {
        "predictors.empirical_risk.calls": calls("predictors.empirical_risk"),
        "predictors.empirical_risk.busy_s": risk_busy,
        "predictors.empirical_risk.us_per_call": per_call("predictors.empirical_risk", 1e6),
        "predictors.empirical_risk.share": ratio(risk_busy, wall_s),
        "predictors.empirical_risk.flops_per_call": ratio(kernel_flops, kernel_calls),
        "predictors.empirical_risk.bytes_per_call": ratio(kernel_bytes, kernel_calls),
        "predictors.empirical_risk.gflops": ratio(kernel_flops, risk_busy) / 1e9,
        "predictors.predict_batch.busy_s": busy("predictors.predict_batch"),
        "mcmc.steps": steps,
        "mcmc.calibration_steps": steps - info["manifest_steps"] - info["library_steps"],
        "mcmc.metropolis_step.self_us": step_self_us("mcmc.metropolis_step"),
        "mcmc.annealed_step.self_us": step_self_us("mcmc.annealed_step"),
        "mcmc.minibatch_proposal_step.self_us": step_self_us("mcmc.minibatch_proposal_step"),
        "mcmc.propose.us_per_call": per_call("mcmc.propose", 1e6),
        "mcmc.sample_without_replacement.us_per_call": per_call("mcmc.sample_without_replacement", 1e6),
        "mcmc.acceptance_ratio": ratio(accepts, recorded),
        "mcmc.run_chain.busy_s": chain_busy,
        "mcmc.risk_share": ratio(busy("mcmc.risk_fn"), chain_busy),
        "mcmc.run_chain.wait_share": 1.0 - ratio(chain_cpu, chain_busy) if chain_busy else 0.0,
        "mcmc.tv.metropolis": tv.get("metropolis", 0.0),
        "mcmc.tv.annealed": tv.get("annealed", 0.0),
        "mcmc.tv.minibatch": tv.get("minibatch", 0.0),
        "datasets.dataset_from_csv.busy_s": busy("datasets.dataset_from_csv"),
        "datasets.dataset_from_csv.us_per_float": ratio(
            busy("datasets.dataset_from_csv"), counts.get("datasets.dataset_from_csv.floats", 0)) * 1e6,
        "datasets.dataset_to_csv.busy_s": busy("datasets.dataset_to_csv"),
        "datasets.dataset_to_csv.us_per_float": ratio(
            busy("datasets.dataset_to_csv"), counts.get("datasets.dataset_to_csv.floats", 0)) * 1e6,
        "datasets.split.busy_s": busy("datasets.split"),
        "datasets.teacher_relabel.busy_s": busy("datasets.teacher_relabel"),
        "datasets.gen_gaussian_pair.busy_s": busy("datasets.gen_gaussian_pair"),
        "cli.write_csv.busy_s": busy("cli.write_csv"),
        "cli.write_csv.rows": counts.get("cli.write_csv.rows", 0),
        "cli.manifest.fingerprint_s": busy("cli.manifest.fingerprint"),
        "cli.manifest.bytes_hashed": counts.get("cli.manifest.bytes_hashed", 0),
        "cli.dispatch.self_s": dispatch[1] - dispatch[2],
        "reconstruction.reconstruct.busy_s": busy("reconstruction.reconstruct"),
        "reconstruction.predicted_annealed_risk.busy_s": busy("reconstruction.predicted_annealed_risk"),
        "perceptron.boltzmann_risk_exact.ms_per_call": per_call("perceptron.boltzmann_risk_exact", 1e3),
        "perceptron.risk_entropy.us_per_call": per_call("perceptron.risk_entropy", 1e6),
        "perceptron.hebbian_simulate.busy_s": busy("perceptron.hebbian_simulate"),
        "replica.solve_saddle.ms_per_call": per_call("replica.solve_saddle", 1e3),
        "gibbs.gibbs_risk_saddle.ms_per_call": per_call("gibbs.gibbs_risk_saddle", 1e3),
    }
