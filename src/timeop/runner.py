"""Deterministic experiment orchestration and report emission.

Given a validated configuration, every requested experiment runs once,
in config order.  No experiment draws random numbers: each verdict is
decided per label or on fixed vectors, and the assembled bundle is a
plain JSON-serializable tree, so a fixed config reproduces
byte-identical reports.
Module errors inside one experiment are captured in its record and the
bundle still emits, with that experiment marked errored.

Emission writes ``manifest.json``, ``report.json`` and one CSV per
trace-like experiment (``lyapunov.csv`` with columns t, norm,
lyapunov_form and, when the baker probe is active, min_cell;
``positivity_sweep.csv`` with columns a, t, density, min_cell).  A
rerun into the same directory overwrites each file in place and removes
a trace CSV the bundle no longer produces.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    AgeWindow,
    build_baker_cascade,
    build_shift_cascade,
    verify_age_transport,
    verify_covariance,
)
from .config import ExperimentConfig
from .duals import build_operator_web, verify_web
from .markov import (
    MarkovEvolution,
    density_walsh,
    lyapunov_traces,
    swept_minima,
)
from .profiles import (
    DecayProfile,
    build_decay_operator,
    check_admissible,
    gumbel,
    verify_covariant_transform,
)
from .rigging import (
    SingularSpectrum,
    build_tower,
    classify_spectrum,
    geometric_spectrum,
    kothe_nuclearity,
    power_spectrum,
)

__all__ = [
    "ReportBundle",
    "run_experiments",
    "emit_report",
    "build_system",
    "build_profile",
]


def build_system(config: ExperimentConfig):
    system = config.system
    if system["kind"] == "shift":
        return build_shift_cascade(AgeWindow(system["lo"], system["hi"]))
    return build_baker_cascade(system["m"])


def build_profile(config: ExperimentConfig) -> DecayProfile:
    profile = config.profile
    return DecayProfile(profile["family"], profile.get("a", 1.0), profile.get("points", ()))


@dataclass(frozen=True)
class ReportBundle:
    manifest: dict
    records: tuple
    summary: dict

    @property
    def all_gated_passed(self) -> bool:
        return self.summary["all_gated_passed"]

    def to_dict(self) -> dict:
        return {"manifest": self.manifest, "experiments": list(self.records),
                "summary": self.summary}


def _json_text(doc) -> str:
    """Strict JSON text of a report tree, with non-finite floats written as null.

    The text is ``json.dumps(doc, indent=2, sort_keys=True)`` with every
    non-finite float replaced by None first, byte for byte: dicts with
    str keys in sorted order, lists and tuples as lists, and numbers as
    ``repr`` writes them.  A value of any other type, or a non-str key,
    raises TypeError.  One recursive pass appends the chunks: with an
    indent the standard encoder runs its pure-Python generators, over a
    copy of the tree made to drop the non-finite floats.  A
    :class:`_Nested` value is a subtree already written by this function.
    """
    chunks = []
    _write_json(doc, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _write_json(value, put, newline):
    """Append the JSON chunks of ``value``, nested at ``newline``'s indent."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(float.__repr__(value) if math.isfinite(value) else "null")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        put("[")
        sep = inner
        for item in value:
            put(sep)
            _write_json(item, put, inner)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        put("{")
        sep = inner
        for key in sorted(value):
            put(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], put, inner)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, _Nested):
        put(value.text[:-1].replace("\n", newline))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Nested:
    """The :func:`_json_text` of a subtree, nested by indenting its lines.

    The text's final newline is dropped.  A string is written escaped,
    so every other newline of the text is one that the indent follows.
    """

    def __init__(self, text: str):
        self.text = text


class _Context:
    """Shared lazily-built objects for one bundle run."""

    def __init__(self, config: ExperimentConfig):
        self.system = build_system(config)
        self.profile = build_profile(config)

    @cached_property
    def decay(self):
        return build_decay_operator(self.profile, self.system)


def _run_covariance(ctx, params):
    worst_t = 0.0
    worst_transport = 0.0
    worst_weighted = 0.0
    for t in params["t_values"]:
        worst_t = max(worst_t, verify_covariance(ctx.system, t))
        worst_weighted = max(worst_weighted, verify_covariant_transform(ctx.decay, t))
        if t >= 1:
            worst_transport = max(worst_transport, verify_age_transport(ctx.system, t))
    details = {
        "t_values": list(params["t_values"]),
        "time_covariance_deviation": worst_t,
        "projector_transport_deviation": worst_transport,
        "weighted_covariance_deviation": worst_weighted,
    }
    passed = worst_t == 0.0 and worst_transport == 0.0 and worst_weighted == 0.0
    return passed, details


def _run_admissibility(ctx, params):
    record = check_admissible(
        ctx.profile, grid=(params["grid_lo"], params["grid_hi"]), t_set=params["t_set"]
    )
    passed = record["monotone_ok"] and record["limits_ok"] and record["ratio_ok"]
    return passed, {"profile": ctx.profile.describe(), **record}


def _interior_band(system, max_t):
    lo = system.window.lo + max_t
    hi = system.window.hi - max_t
    mask = (system.ages >= lo) & (system.ages <= hi)
    if not np.any(mask):
        raise ValueError(f"no labels inside the symmetric margin band for max_t={max_t}")
    return mask


def _run_lyapunov(ctx, params):
    """Norm decay of W_t on the margin band, decided per label; ignores ``n_random``.

    W_t, U^t conjugated by the log decay diagonal L, moves each label k
    onto its t-step image i_k(t) with the log weight r_k(t) = L(i_k(t)) -
    L(k), so ||W_t rho||^2 = sum_k rho_k^2 exp(2 r_k(t)) decays for every
    rho on the band exactly when each band label's r_k does, and its
    largest final ratio is max_k exp(r_k(max_t)).  That reading holds
    only for a step that raises ages by one: a band label whose t-step
    image, for some t <= max_t, does not have its age + t offends too,
    so a step map that turns labels into fixed points, whose constant
    ratio reads as a contraction, cannot pass.  A fail names the first
    offending label.  The canonical basis row and the band indicator
    take the two-route trace.
    """
    max_t = params["max_t"]
    ev = MarkovEvolution(ctx.decay, max_t)
    system = ctx.system
    labels = np.nonzero(_interior_band(system, max_t))[0]
    canonical_idx = int(labels[np.argmax(system.ages[labels])])
    block = np.zeros((2, system.dim))
    block[0, canonical_idx] = 1.0
    block[1, labels] = 1.0
    canonical = lyapunov_traces(ev, block)[0]
    # the band stays inside the margin up to max_t: only a truncated
    # image fails to land, and its NaN counts as a rise and a stray
    steps = [system.step(t, labels) for t in range(max_t + 1)]
    log_diag, ages = ctx.decay.log_diag, system.ages
    ratios = np.array([u.conjugate(log_diag, -log_diag).log_weights for u in steps])
    rises = ~(ratios[1:] <= ratios[:-1])
    # e^T U^t e^-T weighs e^t on a label whose t-step image has its age + t
    strays = np.array([u.conjugate(ages, -ages).log_weights != t for t, u in enumerate(steps)])
    offending = labels[rises.any(axis=0) | strays.any(axis=0)]
    worst = int(np.argmax(ratios[-1]))
    details = {
        "max_t": max_t,
        "canonical_label": system.label_text(canonical_idx),
        "trace_t": list(canonical.t_values),
        "trace_norm": list(canonical.norms),
        "trace_form": list(canonical.forms),
        "monotone": not offending.size,
        "offending_label": system.label_text(offending[0]) if offending.size else None,
        "worst_final_ratio": float(np.exp(ratios[-1, worst])),
        "worst_label": system.label_text(labels[worst]),
    }
    return details["monotone"], details


EXTREME_TOLERANCE = 1e-12


def _run_positivity(ctx, params):
    """Evolved minima of 1+chi({0}) and of one extreme density per (a, t); ignores ``n_random``.

    The labels of age <= N = hi - t_max resolve the functions on the
    cells of their digits; the nonnegative unit-mass ones are convex
    combinations of cell indicators, so an indicator attains the least
    evolved minimum.  With F_n the conditional expectation of a density
    delta on the digits of age <= n (F_{lo-1} = 1), W_t moves the age-n
    part F_n - F_{n-1} by U_t with the weight r_n = lambda(n+t)/lambda(n),
    so by parts

        W_t delta = (1 - r_lo) + sum_{lo <= n < N} (r_n - r_{n+1}) U_t F_n + r_N U_t F_N,

    at least 1 - r_lo when r is nonincreasing, as it is under every
    gumbel steepness: r_n = exp(-exp(a n) (exp(a t) - 1)).  Every F_n
    of a cell indicator vanishes off the cell's digit of age lo, so an
    indicator attains the bound.  The record passes when each extreme
    row, the indicator of cell 0, is nonnegative and within
    ``EXTREME_TOLERANCE`` of 1 - r_lo, read from the profile, not the
    operator, so that a defective operator cannot move both sides.

    The two densities stay separate blocks, so a margin error names one
    density's labels.  :func:`~timeop.markov.swept_minima` steps each
    (density, t) pair once for all steepnesses and takes one transform
    per pair, holding one row per a.  The decay operators are built one
    at a time, in sweep order, and each is checked on every label up to
    t_max by the check a ``MarkovEvolution`` runs; its log ratios are
    read only on the labels the pairs step.
    """
    system = ctx.system
    t_max = max(params["t_values"])
    lo = system.window.lo
    canonical = density_walsh(system, [[2.0, 0.0]], system.m)  # 1 + chi({0}) on coordinate 0
    # the cells of the live labels: one past t_max = 2m, where the canonical row raises first
    width = 1 << max(0, 2 * system.m + 1 - t_max)
    extreme = density_walsh(system, np.eye(1, width) * width, 0)
    decays = (build_decay_operator(gumbel(a), system) for a in params["sweep_a"])
    minima = swept_minima(decays, [canonical, extreme], params["t_values"])
    sweep, extremes = [], []
    for i, a in enumerate(params["sweep_a"]):
        profile = gumbel(a)
        for (canonical_minima, extreme_minima), t in zip(minima, params["t_values"]):
            sweep.append({"a": a, "t": t, "density": "1+chi({0})",
                          "min_cell": float(canonical_minima[i, 0])})
            extremes.append({
                "a": a, "t": t, "density": "extreme", "witness": f"cell 0 of {width}",
                "min_cell": float(extreme_minima[i, 0]),
                "closed_form": float(-np.expm1(profile.log_value(lo + t) - profile.log_value(lo)))})
            sweep.append(extremes[-1])
    gaps = [abs(row["min_cell"] - row["closed_form"]) for row in extremes]
    worst = min(entry["min_cell"] for entry in sweep)
    details = {"sweep": sweep, "worst_min_cell": worst, "negative_cells_observed": bool(worst < 0),
               "worst_closed_form_deviation": max(gaps)}
    return all(row["min_cell"] >= 0.0 and gap <= EXTREME_TOLERANCE
               for row, gap in zip(extremes, gaps)), details


def _run_tower(ctx, params):
    details = build_tower(ctx.decay, params["tower_type"], params["cutoff"])
    return details["isometry_deviation"] <= 1e-10, details


def _spectrum_from_params(params) -> SingularSpectrum:
    family, value = params["spectrum"]
    build = power_spectrum if family == "power" else geometric_spectrum
    return build(value, truncation=params["truncation"])


def _run_classify(ctx, params):
    details = classify_spectrum(_spectrum_from_params(params))
    bracket_ok = all(item["tail_lo"] <= item["tail_hi"] for item in details["evidence"]
                     if item["converges"] and item["tail_lo"] is not None)
    return bracket_ok, details


def _run_kothe(ctx, params):
    details = kothe_nuclearity(_spectrum_from_params(params), params["n1"], params["n2"])
    # the ratio-limit criterion is sufficient, not necessary: it must
    # imply convergence, while a power spectrum may converge without it
    return not details["criterion_met"] or details["sum_converges"], details


def _run_theorem(ctx, params):
    parts = [verify_web(build_operator_web(ctx.decay, t)) for t in params["t_values"]]
    return all(part["all_passed"] for part in parts), {"parts": parts}


_RUNNERS = {
    "covariance": (_run_covariance, "step covariance of the time operator and its projectors"),
    "admissibility": (_run_admissibility, "three-condition certificate of the decay profile"),
    "lyapunov": (_run_lyapunov, "monotone norm decay of the induced contraction semigroup"),
    "positivity": (_run_positivity, "minimum-cell sweep of evolved densities"),
    "tower": (_run_tower, "graded norm tower and the defining isometry"),
    "classify": (_run_classify, "compact/Hilbert-Schmidt/nuclear spectrum classification"),
    "kothe": (_run_kothe, "ratio-limit nuclearity criterion between grades"),
    "theorem": (_run_theorem, "identities and separations of the conjugated evolution web"),
}


def run_experiments(config: ExperimentConfig) -> ReportBundle:
    """Run every configured experiment once and assemble the bundle."""
    ctx = _Context(config)
    records = []
    for request in config.experiments:
        runner, checks = _RUNNERS[request.name]
        gated = bool(request.params.get("gate", True))
        record = {"name": request.name, "gated": gated, "checks": checks}
        try:
            passed, details = runner(ctx, request.params)
            record["details"] = details
            record["status"] = ("pass" if passed else "fail") if gated else "recorded"
        except Exception as exc:  # noqa: BLE001 - capture per-experiment
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)

    manifest = {
        "config": config.echo(),
        "seed": config.seed,
        "versions": {
            "timeop": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(p) for p in sys.version_info[:3]),
        },
    }
    statuses = [record["status"] for record in records]
    summary = {
        "experiments": len(records),
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "errored": statuses.count("error"),
        "recorded": statuses.count("recorded"),
        "all_gated_passed": all(record["status"] == "pass"
                                for record in records if record["gated"]),
    }
    return ReportBundle(manifest=manifest, records=tuple(records), summary=summary)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _overwrite(path: Path, text: str):
    """Write ``text`` over ``path``, then cut it to length: truncating to 0 first is slower."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode("utf-8"))
        f.truncate()


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    _overwrite(path, "\n".join(lines) + "\n")


def emit_report(bundle: ReportBundle, out_dir) -> list:
    """Write the bundle to disk; returns the written paths.

    Writes ``manifest.json``, ``report.json`` and the trace CSVs.  Both
    JSON files are strict JSON, with non-finite floats written as null;
    the manifest is rendered once and nested into the report.  Each file
    is overwritten in place, and a trace CSV this bundle does not write
    is removed, so a rerun leaves exactly the files a fresh one would.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    manifest = _json_text(bundle.manifest)
    report = _json_text({**bundle.to_dict(), "manifest": _Nested(manifest)})
    for name, text in (("manifest.json", manifest), ("report.json", report)):
        path = out / name
        _overwrite(path, text)
        written.append(path)

    by_name = {record["name"]: record for record in bundle.records}
    lyapunov = by_name.get("lyapunov")
    if lyapunov and "details" in lyapunov:
        d = lyapunov["details"]
        min_cells = _min_cells_by_t(by_name.get("positivity"), bundle)
        header = ["t", "norm", "lyapunov_form"]
        rows = []
        for i, t in enumerate(d["trace_t"]):
            row = [t, d["trace_norm"][i], d["trace_form"][i]]
            if min_cells is not None:
                row.append(min_cells.get(t, ""))
            rows.append(row)
        if min_cells is not None:
            header.append("min_cell")
        path = out / "lyapunov.csv"
        _write_csv(path, header, rows)
        written.append(path)
    positivity = by_name.get("positivity")
    if positivity and "details" in positivity:
        path = out / "positivity_sweep.csv"
        _write_csv(
            path,
            ["a", "t", "density", "min_cell"],
            [(e["a"], e["t"], e["density"], e["min_cell"])
             for e in positivity["details"]["sweep"]],
        )
        written.append(path)
    for name in ("lyapunov.csv", "positivity_sweep.csv"):
        if out / name not in written:
            (out / name).unlink(missing_ok=True)
    return written


def _min_cells_by_t(positivity_record, bundle):
    """Per-t minimum over the canonical-density rows at the config profile."""
    if not positivity_record or "details" not in positivity_record:
        return None
    profile = bundle.manifest["config"]["profile"]
    if profile.get("family") != "gumbel":
        return None
    a = profile.get("a")
    cells = {}
    for entry in positivity_record["details"]["sweep"]:
        if entry["a"] == a and entry["density"].startswith("1+chi"):
            cells[entry["t"]] = entry["min_cell"]
    return cells or None
