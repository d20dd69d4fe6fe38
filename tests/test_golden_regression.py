"""Golden-regression suite: seeded numeric snapshots of every experiment.

Each experiment in :data:`repro.analysis.registry.EXPERIMENTS` is run at
a fixed seed and reduced batch size, its result object is flattened into
a JSON-able numeric summary, and that summary is compared against the
checked-in golden under ``tests/golden/``.  Any numeric drift beyond
1e-9 — a changed RNG stream, a reordered reduction, an edited model —
fails the suite with the exact path of the deviating value.

Regenerate intentionally-changed goldens with::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py \
        --regenerate-goldens

and commit the diff; CI's golden-drift job re-runs this suite against
the committed snapshots (the 1e-9 tolerance, not a byte-exact diff, so
sub-tolerance ulp changes from numpy/scipy releases don't flake it) and
fails when a registered experiment has no committed golden at all.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.registry import EXPERIMENTS, parse_runner_options

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Absolute/relative tolerance of the drift check.
TOLERANCE = 1e-9

#: Reduced-scale parameters per experiment: (seed, batch_size).  Small
#: enough to keep the suite in tier-1 territory, large enough that every
#: code path (yield Monte-Carlo, binning, assembly, compilation) runs.
GOLDEN_PARAMS: dict[str, tuple[int, int | None]] = {
    "fig3": (11, None),
    "table1": (0, None),
    "fig4": (7, 120),
    "fig6": (7, 5000),
    "sec5c": (7, 200),
    "fig7": (11, None),
    "fig8": (2022, 200),
    "fig9": (2022, 200),
    "fig10": (2022, 200),
    "table2": (5, None),
    "topoyield": (7, 120),
    "topomcm": (7, 400),
    "tunedyield": (7, 120),
    "repairbudget": (7, 200),
    "appsweep": (7, 200),
}

#: Recursion cap for the structural summary (pathological cycles guard).
MAX_DEPTH = 14


def summarize(value, depth: int = 0):
    """Flatten an arbitrary result object into JSON-able numeric structure.

    Dataclasses recurse over their comparable fields, arrays become
    shape/moments/head digests, mappings stringify their keys (sorted),
    and anything unrecognised collapses to its type name — so the golden
    captures every number an experiment produces without pinning
    implementation details like object identity.
    """
    if depth > MAX_DEPTH:
        return f"<depth-capped:{type(value).__name__}>"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        flat = value.ravel()
        head = [summarize(v, depth + 1) for v in flat[:16].tolist()]
        summary = {
            "__ndarray__": list(value.shape),
            "dtype": str(value.dtype),
            "head": head,
        }
        if flat.size and np.issubdtype(value.dtype, np.number):
            finite = flat[np.isfinite(flat.astype(float))]
            summary["sum"] = float(finite.sum()) if finite.size else 0.0
            summary["mean"] = float(finite.mean()) if finite.size else None
        return summary
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: summarize(getattr(value, f.name), depth + 1)
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, dict):
        return {
            repr(k): summarize(v, depth + 1)
            for k, v in sorted(value.items(), key=lambda item: repr(item[0]))
        }
    if isinstance(value, (list, tuple)):
        return [summarize(v, depth + 1) for v in value]
    return f"<{type(value).__name__}>"


def _drift(golden, actual, path: str = "$") -> list[str]:
    """Every numeric/structural deviation between two summaries."""
    problems: list[str] = []
    if isinstance(golden, float) or isinstance(actual, float):
        if not isinstance(golden, (int, float)) or not isinstance(actual, (int, float)):
            return [f"{path}: type changed {type(golden).__name__} -> {type(actual).__name__}"]
        g, a = float(golden), float(actual)
        if math.isnan(g) or math.isnan(a):
            # nan == nan counts as stable; nan vs. a real number is drift
            # (abs(nan - x) > tol is always False, so it must not fall
            # through to the tolerance comparison).
            return [] if math.isnan(g) and math.isnan(a) else [
                f"{path}: {g!r} != {a!r}"
            ]
        if math.isinf(g) or math.isinf(a):
            return [] if g == a else [f"{path}: {g!r} != {a!r}"]
        if abs(g - a) > TOLERANCE + TOLERANCE * abs(g):
            return [f"{path}: {g!r} != {a!r} (|delta|={abs(g - a):.3e})"]
        return []
    if type(golden) is not type(actual):
        return [f"{path}: type changed {type(golden).__name__} -> {type(actual).__name__}"]
    if isinstance(golden, dict):
        for key in sorted(set(golden) | set(actual)):
            if key not in golden:
                problems.append(f"{path}.{key}: new key")
            elif key not in actual:
                problems.append(f"{path}.{key}: missing key")
            else:
                problems.extend(_drift(golden[key], actual[key], f"{path}.{key}"))
        return problems
    if isinstance(golden, list):
        if len(golden) != len(actual):
            return [f"{path}: length {len(golden)} -> {len(actual)}"]
        for index, (g, a) in enumerate(zip(golden, actual)):
            problems.extend(_drift(g, a, f"{path}[{index}]"))
        return problems
    if golden != actual:
        return [f"{path}: {golden!r} != {actual!r}"]
    return []


def _run_experiment(name: str):
    seed, batch = GOLDEN_PARAMS[name]
    spec = EXPERIMENTS.get(name)
    kwargs, _ = parse_runner_options(
        spec, {"seed": seed, "batch_size": batch, "full": False}
    )
    result, text = spec.runner(None, **kwargs)
    return {
        "experiment": name,
        "seed": seed,
        "batch_size": batch,
        "summary": summarize(result),
        "text_line_count": len(text.splitlines()),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_PARAMS))
def test_experiment_matches_golden(name, request):
    regenerate = request.config.getoption("--regenerate-goldens")
    golden_path = GOLDEN_DIR / f"{name}.json"
    actual = _run_experiment(name)

    if regenerate:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return

    assert golden_path.exists(), (
        f"no golden for {name!r}; generate it with "
        "`python -m pytest tests/test_golden_regression.py --regenerate-goldens`"
    )
    golden = json.loads(golden_path.read_text())
    problems = _drift(golden, actual)
    assert not problems, (
        f"{name}: {len(problems)} value(s) drifted beyond {TOLERANCE}:\n"
        + "\n".join(problems[:25])
    )


def test_every_registered_experiment_has_golden_params():
    """Adding an experiment to the registry must extend the golden suite."""
    assert set(EXPERIMENTS.names()) == set(GOLDEN_PARAMS)


def test_summarize_is_deterministic_and_tolerant():
    payload = {"b": np.arange(3.0), "a": (1, 2.5, float("nan"))}
    first = summarize(payload)
    second = summarize(payload)
    assert _drift(first, second) == []
    assert _drift(first, summarize({"b": np.arange(3.0), "a": (1, 2.5 + 1e-12, float("nan"))})) == []
    drift = _drift(first, summarize({"b": np.arange(3.0), "a": (1, 2.6, float("nan"))}))
    assert drift and "$.'a'[1]" in drift[0]
