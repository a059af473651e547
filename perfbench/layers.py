"""
Layer entry points wrapped by the traced run, and the per-layer metrics
derived from their spans and counters.

Entry points are wrapped from outside: module functions are replaced in
every loaded ``micropolar`` module that holds them (callers that imported
the name directly see the wrapper too), methods are replaced on their
class.  An entry point that no longer exists is recorded as absent, so a
refactor that renames one does not break the trace.
"""

from __future__ import annotations

import inspect
import os
import sys

# (span name, "module:attribute" or "module:Class.method")
ENTRY_POINTS = [
    ("spectral.fft", "numpy.fft:fft2"),
    ("spectral.fft", "numpy.fft:ifft2"),
    ("spectral.fft", "numpy.fft:rfft2"),
    ("spectral.fft", "numpy.fft:irfft2"),
    ("spectral.leray", "micropolar.spectral:_leray_arrays"),
    ("spectral.norm", "micropolar.spectral:norm"),
    ("spectral.nodal", "micropolar.spectral:_sample_scalar"),
    ("spectral.nodal", "micropolar.spectral:_interpolant_scalar"),
    ("dynamics.step", "micropolar.dynamics:_Stepper.advance"),
    ("dynamics.explicit", "micropolar.dynamics:_explicit_terms"),
    ("dynamics.forcing_eval", "micropolar.dynamics:Forcing.f_at"),
    ("dynamics.forcing_eval", "micropolar.dynamics:Forcing.g_at"),
    ("dynamics.forcing_eval", "micropolar.dynamics:Forcing.f_hat"),
    ("dynamics.forcing_eval", "micropolar.dynamics:Forcing.g_hat"),
    ("dynamics.checkpoint_write", "micropolar.dynamics:write_checkpoint"),
    ("dynamics.checkpoint_read", "micropolar.dynamics:read_checkpoint"),
    ("estimates.audit", "micropolar.estimates:verify_energy_inequality"),
    ("estimates.audit", "micropolar.estimates:verify_time_averages"),
    ("estimates.audit", "micropolar.estimates:verify_h1_bound"),
    ("estimates.audit", "micropolar.estimates:verify_absorbing_ball"),
    ("estimates.bounds", "micropolar.estimates:modes_bound"),
    ("estimates.bounds", "micropolar.estimates:nodes_bound"),
    ("estimates.bounds", "micropolar.estimates:nodes_bound_log10"),
    ("estimates.bounds", "micropolar.estimates:attractor_bound"),
    ("estimates.constants", "micropolar.estimates:compute_constants"),
    ("assimilation.twin", "micropolar.assimilation:run_mode_sync"),
    ("assimilation.twin", "micropolar.assimilation:run_node_sync"),
    ("assimilation.gap_obs", "micropolar.assimilation:_eta_vec"),
    ("assimilation.gap_obs", "micropolar.assimilation:_eta_scalar"),
    ("assimilation.gap_obs", "micropolar.assimilation:_product_energy"),
    ("assimilation.gap_obs", "micropolar.assimilation:_h1_energy"),
    ("lyapunov.tangent", "micropolar.lyapunov:_tangent_explicit"),
    ("lyapunov.reorth", "micropolar.lyapunov:_mgs"),
    ("lyapunov.trace_sample", "micropolar.lyapunov:_trace_sample"),
    ("lyapunov.block", "micropolar.lyapunov:_TangentRun._advance_block"),
    ("cli.config", "micropolar.cli:load_config"),
    ("cli.config", "micropolar.cli:build_grid"),
    ("cli.config", "micropolar.cli:build_params"),
    ("cli.config", "micropolar.cli:build_forcing"),
    ("cli.config", "micropolar.cli:build_initial"),
    ("cli.config", "micropolar.cli:build_integrator"),
    ("cli.config", "micropolar.cli:build_constants"),
    ("cli.csv_write", "micropolar.cli:write_csv"),
    ("cli.json_write", "micropolar.cli:write_json"),
]
# Observer callables returned by this factory become dynamics.record spans.
OBSERVER_FACTORY = "micropolar.dynamics:standard_observers"
# The ``extra`` callable handed to this constructor (the nudging term)
# becomes an assimilation.nudge span.
STEPPER_INIT = "micropolar.dynamics:_Stepper.__init__"


def _resolve(target: str):
    """(owner, attribute, current value) or None when the target is gone."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        try:
            __import__(module_name)
        except ImportError:
            return None
        owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def _replace(owner, attr: str, old, new) -> None:
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    # also rebind names that other micropolar modules imported directly
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("micropolar"):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def _fft_counts(recorder):
    """Transforms done (planes) and bytes computed from the array sizes."""
    import numpy

    def after(args, kwargs, result):
        a = numpy.asarray(args[0] if args else kwargs["a"])
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
        plane = 1
        for ax in axes:
            plane *= result.shape[ax]
        recorder.counters["spectral.fft_planes"] += result.size // plane
        recorder.counters["spectral.fft_bytes_computed"] += a.nbytes + result.nbytes
    return after


def _file_bytes(recorder, counter: str):
    """Size of the file named by the call's path argument."""
    def after(args, kwargs, result):
        try:
            recorder.counters[counter] += os.path.getsize(args[0] if args else kwargs["path"])
        except (OSError, KeyError, TypeError):
            pass
    return after


def install(recorder) -> None:
    """Wrap every entry point in a span; record missing ones as absent."""
    extra_counts = {
        "spectral.fft": _fft_counts(recorder),
        "dynamics.checkpoint_write": _file_bytes(recorder, "dynamics.checkpoint_bytes"),
        "dynamics.checkpoint_read": _file_bytes(recorder, "dynamics.checkpoint_bytes"),
        "cli.csv_write": _file_bytes(recorder, "cli.output_bytes"),
        "cli.json_write": _file_bytes(recorder, "cli.output_bytes"),
    }
    for span, target in ENTRY_POINTS:
        found = _resolve(target)
        if found is None:
            recorder.absent.append(target)
            continue
        owner, attr, fn = found
        _replace(owner, attr, fn, recorder.wrap(span, fn, extra_counts.get(span)))

    found = _resolve(OBSERVER_FACTORY)
    if found is None:
        recorder.absent.append(OBSERVER_FACTORY)
    else:
        owner, attr, factory = found

        def observers(*args, **kwargs):
            return {name: recorder.wrap("dynamics.record", fn)
                    for name, fn in factory(*args, **kwargs).items()}

        _replace(owner, attr, factory, observers)

    found = _resolve(STEPPER_INIT)
    if found is None or "extra" not in inspect.signature(found[2]).parameters:
        recorder.absent.append(STEPPER_INIT + "(extra)")
    else:
        owner, attr, init = found
        signature = inspect.signature(init)

        def stepper_init(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("extra") is not None:
                bound.arguments["extra"] = recorder.wrap("assimilation.nudge",
                                                         bound.arguments["extra"])
            return init(*bound.args, **bound.kwargs)

        setattr(owner, attr, stepper_init)


# Per-layer metrics: name -> (unit, how to read it from the span summary).
# ("calls" | "total_s" | "self_s", span) reads that field of the span
# summary; ("counter", key) a recorder counter; ("child", key) a child timing.
METRICS = {
    "spectral.fft_calls": ("count", ("calls", "spectral.fft")),
    "spectral.fft_planes": ("count", ("counter", "spectral.fft_planes")),
    "spectral.fft_s": ("s", ("total_s", "spectral.fft")),
    "spectral.fft_bytes_computed": ("bytes", ("counter", "spectral.fft_bytes_computed")),
    "spectral.leray_calls": ("count", ("calls", "spectral.leray")),
    "spectral.leray_s": ("s", ("total_s", "spectral.leray")),
    "spectral.norm_calls": ("count", ("calls", "spectral.norm")),
    "spectral.norm_s": ("s", ("total_s", "spectral.norm")),
    "spectral.nodal_s": ("s", ("total_s", "spectral.nodal")),
    "dynamics.step_calls": ("count", ("calls", "dynamics.step")),
    "dynamics.step_s": ("s", ("total_s", "dynamics.step")),
    "dynamics.step_self_s": ("s", ("self_s", "dynamics.step")),
    "dynamics.explicit_s": ("s", ("total_s", "dynamics.explicit")),
    "dynamics.explicit_self_s": ("s", ("self_s", "dynamics.explicit")),
    "dynamics.record_calls": ("count", ("calls", "dynamics.record")),
    "dynamics.record_s": ("s", ("total_s", "dynamics.record")),
    "dynamics.forcing_eval_calls": ("count", ("calls", "dynamics.forcing_eval")),
    "dynamics.checkpoint_write_s": ("s", ("total_s", "dynamics.checkpoint_write")),
    "dynamics.checkpoint_read_s": ("s", ("total_s", "dynamics.checkpoint_read")),
    "dynamics.checkpoint_bytes": ("bytes", ("counter", "dynamics.checkpoint_bytes")),
    "estimates.audit_s": ("s", ("total_s", "estimates.audit")),
    "estimates.bounds_s": ("s", ("total_s", "estimates.bounds")),
    "estimates.constants_s": ("s", ("total_s", "estimates.constants")),
    "assimilation.twin_s": ("s", ("total_s", "assimilation.twin")),
    "assimilation.twin_self_s": ("s", ("self_s", "assimilation.twin")),
    "assimilation.nudge_s": ("s", ("total_s", "assimilation.nudge")),
    "assimilation.gap_obs_s": ("s", ("total_s", "assimilation.gap_obs")),
    "lyapunov.tangent_calls": ("count", ("calls", "lyapunov.tangent")),
    "lyapunov.tangent_s": ("s", ("total_s", "lyapunov.tangent")),
    "lyapunov.reorth_calls": ("count", ("calls", "lyapunov.reorth")),
    "lyapunov.reorth_s": ("s", ("total_s", "lyapunov.reorth")),
    "lyapunov.trace_sample_s": ("s", ("total_s", "lyapunov.trace_sample")),
    "lyapunov.block_self_s": ("s", ("self_s", "lyapunov.block")),
    "cli.import_s": ("s", ("child", "import_s")),
    "cli.config_s": ("s", ("total_s", "cli.config")),
    "cli.csv_write_s": ("s", ("total_s", "cli.csv_write")),
    "cli.json_write_s": ("s", ("total_s", "cli.json_write")),
    "cli.output_bytes": ("bytes", ("counter", "cli.output_bytes")),
}
# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = [name for name, (unit, _) in METRICS.items() if unit in ("count", "bytes")]


def layer_metrics(summary: dict, counters: dict, child: dict) -> dict[str, float]:
    """Per-layer metric values of one traced command (absent layers read 0)."""
    out = {}
    for name, (_, (kind, key)) in METRICS.items():
        if kind == "counter":
            out[name] = counters.get(key, 0)
        elif kind == "child":
            out[name] = child[key]
        else:
            out[name] = summary.get(key, {}).get(kind, 0)
    return out
