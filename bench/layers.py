"""Per-layer metrics from the spans of one traced operation, and the
predictions the traced run checks them against.

For a span name X the spans give `X.calls`, `X.busy_s` (time inside X,
outermost X call only), `X.self_s` (busy time minus the time of the spans X
called directly) and, where the span carries a size, `X.points`.  A few
derived figures follow in `layer_metrics`.  Standard library only.
"""

import statistics

from tracer import TARGETS
from workloads import VERIFY_SUITE

SOLVE, PICARD, VERIFY = "solve-n32", "picard-n32", "verify-default"
USED, BYPASSED = "used", "bypassed"
_ALL = {SOLVE: USED, PICARD: USED, VERIFY: USED}

# Which workload runs each layer, read from the code before measuring.  The
# longest prefix of a metric name that is listed here applies; a workload
# left out has no prediction.  The traced run requires a non-zero value
# where a layer is USED and zero where it is BYPASSED.
PREDICTIONS = {
    "_fft.": _ALL,
    "_fft.r2c.": {SOLVE: USED, PICARD: BYPASSED, VERIFY: BYPASSED},
    "solver.": {SOLVE: USED, PICARD: BYPASSED, VERIFY: BYPASSED},
    "dyadic.": _ALL,
    "dyadic.coverage_warnings": {SOLVE: USED},
    "dynamics.": {SOLVE: BYPASSED, PICARD: USED, VERIFY: BYPASSED},
    "fields.dealias_array.": {SOLVE: BYPASSED, PICARD: USED, VERIFY: USED},
    "fields.to_": _ALL,
    "operators.stokes_project.": {SOLVE: BYPASSED, PICARD: USED, VERIFY: BYPASSED},
    "operators.leray_project.": {SOLVE: USED, PICARD: USED},
    "quadrature.": {SOLVE: BYPASSED, PICARD: USED, VERIFY: BYPASSED},
    "picard.": {SOLVE: BYPASSED, PICARD: USED, VERIFY: BYPASSED},
    "paraproduct.": {SOLVE: BYPASSED, PICARD: BYPASSED, VERIFY: USED},
    "checks.": {SOLVE: BYPASSED, PICARD: BYPASSED, VERIFY: USED},
    "cli.": _ALL,
}

FFT_GROUPS = ("_fft.c2c", "_fft.r2c")
# nominal traffic of one transformed point: a complex128 value in and out
FFT_BYTES_PER_POINT = 32


def span_names():
    """Every span name a traced operation can record."""
    names = {label for _, _, label, _ in TARGETS if isinstance(label, str)}
    names.update(f"checks.{entry['id']}" for entry in VERIFY_SUITE["checks"])
    return sorted(names)


def _quantile(samples, q):
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, coverage_warnings, picard_report=None):
    """Metrics of one traced operation.

    `spans` is the worker's list of [name, start, end, parent, size];
    parents precede their children.  `picard_report` is the parsed
    picard_report.json, when the operation wrote one.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children = {}  # direct children of solve_ivp and picard_solve spans
    ancestors = [frozenset()] * n
    shared = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0:
            continue
        child_time[parent] += dur[i]
        key = (id(ancestors[parent]), names[parent])
        if key not in shared:
            shared[key] = ancestors[parent] | {names[parent]}
        ancestors[i] = shared[key]
        if names[parent] in ("solver.solve_ivp", "picard.picard_solve"):
            children.setdefault(parent, []).append(i)

    m = {}
    for name in span_names():
        m[f"{name}.calls"] = 0
        m[f"{name}.busy_s"] = 0.0
        m[f"{name}.self_s"] = 0.0
    for name in FFT_GROUPS + ("cli.write",):
        m[f"{name}.points"] = 0
    for i, (name, _, _, _, size) in enumerate(spans):
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += dur[i] - child_time[i]
        if name not in ancestors[i]:
            m[f"{name}.busy_s"] += dur[i]
        if f"{name}.points" in m:
            m[f"{name}.points"] += size

    c2c, r2c = (m[f"{g}.points"] for g in FFT_GROUPS)
    m["_fft.bytes_computed"] = FFT_BYTES_PER_POINT * (c2c + r2c)
    m["_fft.c2c_share"] = c2c / (c2c + r2c) if c2c + r2c else 0.0
    m["cli.output_bytes"] = m.pop("cli.write.points")

    fft_in_step = sum(
        dur[i] for i in range(n)
        if names[i] in FFT_GROUPS and "solver.step" in ancestors[i]
    )
    fft_in_norm = sum(
        spans[i][4] for i in range(n)
        if names[i] in FFT_GROUPS and "dyadic.besov_norm" in ancestors[i]
    )
    m["solver.step.fft_ratio"] = m["solver.step.busy_s"] / fft_in_step if fft_in_step else 0.0
    norms = m["dyadic.besov_norm.calls"]
    m["dyadic.fft_points_per_norm"] = fft_in_norm / norms if norms else 0.0
    m["dyadic.coverage_warnings"] = coverage_warnings

    # one stepping-loop iteration runs from a step's start to the next
    # step's start, so it includes the diagnostics and Besov rows after it
    iterations, sweeps = [], []
    for parent, kids in children.items():
        end = spans[parent][2]
        if names[parent] == "solver.solve_ivp":
            starts = [spans[i][1] for i in kids if names[i] == "solver.step"]
        else:
            # a sweep starts at its first nonlinearity call after the
            # previous sweep's Duhamel quadrature
            starts, armed = [], True
            for i in kids:
                if armed and names[i] == "dynamics.nonlinearity_V":
                    starts.append(spans[i][1])
                    armed = False
                elif names[i] == "quadrature.duhamel_on_nodes":
                    armed = True
        target = iterations if names[parent] == "solver.solve_ivp" else sweeps
        target += [b - a for a, b in zip(starts, starts[1:] + [end])]
    m["solver.step.ms_p50"] = 1e3 * _quantile(iterations, 50)
    m["solver.step.ms_p90"] = 1e3 * _quantile(iterations, 90)
    m["picard.sweep_s"] = statistics.median(sweeps) if sweeps else 0.0
    m["picard.sweeps"] = picard_report["iterates"] if picard_report else 0
    m["picard.residual_final"] = picard_report["residuals"][-1] if picard_report else 0.0
    return m


def prediction(metric, workload):
    prefixes = [p for p in PREDICTIONS if metric.startswith(p)]
    if not prefixes:
        return None
    return PREDICTIONS[max(prefixes, key=len)].get(workload)


def check_predictions(metrics, workload, names):
    """Problems where a metric in `names` contradicts its prediction."""
    problems = []
    for name in names:
        expected = prediction(name, workload)
        value = metrics[name]
        if expected == USED and not value:
            problems.append(f"{name} is 0 on {workload}, predicted non-zero")
        elif expected == BYPASSED and value:
            problems.append(f"{name} is {value!r} on {workload}, predicted 0")
    return problems


def check_counts_repeat(first, second):
    """Problems where a call or point count differs between two runs."""
    return [
        f"{name}: {first[name]} then {second[name]}"
        for name in sorted(first)
        if name.endswith((".calls", ".points")) and first[name] != second.get(name)
    ]
