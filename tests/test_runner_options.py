"""Properties of the runner-options table shared by the CLI and the service.

:func:`repro.analysis.registry.parse_runner_options` either refuses a
params dict with ``ValueError`` or returns keyword arguments the
experiment's runner accepts, for every registered experiment and any
params, well-formed or not.
"""

from __future__ import annotations

import inspect

from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.analysis.registry import EXPERIMENTS, RUNNER_OPTIONS, parse_runner_options
from repro.engine.runner import ExecutionEngine

#: Names a client might type: valid entries of every name registry,
#: near misses and junk.
_NAMES = st.sampled_from(
    [
        "heavy-hex", "square", "ring", "squre",
        "basic", "noise-aware", "noise_aware",
        "greedy", "anneal", "gredy",
        "bv", "qaoa", "ghz", "qaoaa", "bv,ghz", ",", "",
    ]
)

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=200),
    st.floats(allow_nan=True, allow_infinity=True),
    _NAMES,
    st.lists(_NAMES, max_size=3),
    st.dictionaries(st.sampled_from(["chunk_size", "strategy"]), st.integers(0, 5), max_size=1),
)

_KEYS = st.sampled_from([*RUNNER_OPTIONS.names(), "sed", "stats", "jobs"])

_PARAMS = st.dictionaries(_KEYS, _VALUES, max_size=5)


@given(name=st.sampled_from(EXPERIMENTS.names()), params=_PARAMS)
@settings(max_examples=400, deadline=None)
def test_params_refused_or_bindable(name, params):
    spec = EXPERIMENTS.get(name)
    try:
        kwargs, ignored = parse_runner_options(spec, params)
    except ValueError:
        return
    inspect.signature(spec.runner).bind(None, **kwargs)
    assert set(kwargs) == set(spec.options)
    assert set(ignored) <= set(params)
    for option in ignored:
        assert RUNNER_OPTIONS.get(option).reads not in spec.options


#: Params a sec5c client might send: mostly in range, sometimes not.
_SEC5C_PARAMS = st.dictionaries(
    st.sampled_from(["seed", "chunk_size", "ci_target", "max_samples", "topology"]),
    st.one_of(
        st.integers(min_value=0, max_value=120),
        st.floats(min_value=0.0, max_value=0.5),
        _VALUES,
    ),
    max_size=4,
)


@given(
    params=st.one_of(_PARAMS, _SEC5C_PARAMS),
    batch_size=st.integers(min_value=1, max_value=40),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_accepted_sec5c_params_run(params, batch_size):
    spec = EXPERIMENTS.get("sec5c")
    try:
        kwargs, _ = parse_runner_options(spec, {**params, "batch_size": batch_size})
    except ValueError:
        event("refused")
        return
    event("ran")
    engine = ExecutionEngine(jobs=1, use_cache=False)
    result, text = spec.runner(engine, **kwargs)
    assert result.gain >= 0 and text
