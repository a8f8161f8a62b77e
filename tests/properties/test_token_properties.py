"""Property tests for the tokens and run keys every cache entry rests on.

A cached point is found again only if its run key is reproduced exactly,
and run keys embed scenario and adaptive-policy *tokens* verbatim.  So:

* a token parses back to a spec whose token is the same string;
* the order in which dicts or fields are written never changes a token,
  a campaign's content hash or a run key;
* different specs never share a token, and different runs never share a
  run key.

``CampaignSpec`` has no token of its own; its identity is
:meth:`~repro.runners.spec.CampaignSpec.content_hash` plus the run keys
it enumerates, and those are what the campaign properties check.
"""

import json
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.controller import AdaptivePolicy
from repro.runners.spec import KINDS, CampaignSpec, run_key
from repro.scenarios import (
    SOURCE_POLICIES,
    ClockSkew,
    FailureTimes,
    ScenarioSpec,
    available_families,
)

FAMILIES = [family.name for family in available_families()]

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**9, 10**9), finite,
    st.text(max_size=6),
)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
probabilities = st.floats(min_value=0.0, max_value=1.0)

#: Small domains, so two independent draws often differ in one field
#: only — the near-misses a key collision would hide in.
few_scalars = st.one_of(
    st.sampled_from([0, 1, 2, True, False, None, "a", "b"]),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.25]),
)
few_names = st.sampled_from(["a", "b", "side"])
few_probabilities = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])


def reorder(value, rng):
    """``value`` with every dict rebuilt in a random key order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: reorder(item, rng) for key, item in items}
    if isinstance(value, list):
        return [reorder(item, rng) for item in value]
    return value


def reordered_json(token, rng):
    """The same JSON document as ``token``, keys in a random order."""
    return json.dumps(reorder(json.loads(token), rng))


@st.composite
def failure_times(draw, fractions=None, times=None):
    if fractions is None:
        fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if times is None:
        times = st.floats(0.0, 1e4)
    start, end = sorted(draw(st.lists(times, min_size=2, max_size=2)))
    fraction = draw(fractions)
    return FailureTimes(fraction, start, end)


@st.composite
def scenario_specs(draw, small=False):
    if small:
        params = st.dictionaries(few_names, few_scalars, max_size=2)
        fraction = st.sampled_from([0.0, 0.1, 0.5])
        deaths = failure_times(
            fractions=st.sampled_from([0.1, 0.5]),
            times=st.sampled_from([0.0, 10.0, 20.0]),
        )
        skew = st.builds(ClockSkew, std=st.sampled_from([0.5, 1.0]))
    else:
        params = st.dictionaries(names, scalars, max_size=4)
        fraction = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
        deaths = failure_times()
        skew = st.builds(ClockSkew, std=st.floats(1e-6, 10.0))
    return ScenarioSpec.build(
        family=draw(st.sampled_from(FAMILIES)),
        params=draw(params),
        source=draw(st.sampled_from(SOURCE_POLICIES)),
        failure_fraction=draw(fraction),
        failure_times=draw(st.none() | deaths),
        clock_skew=draw(st.none() | skew),
    )


@st.composite
def adaptive_policies(draw, small=False):
    probability = few_probabilities if small else probabilities
    target = (
        st.sampled_from([0.0, 1.0, 2.0]) if small else st.floats(0.0, 100.0)
    )
    p_min, p_max = sorted(draw(st.lists(probability, min_size=2, max_size=2)))
    q_min, q_max = sorted(draw(st.lists(probability, min_size=2, max_size=2)))
    return AdaptivePolicy(
        p_min=p_min, p_max=p_max, q_min=q_min, q_max=q_max,
        p_step=draw(probability), q_step=draw(probability),
        activity_target=draw(target), miss_target=draw(probability),
    )


@st.composite
def campaign_layouts(draw):
    """Plain-mapping arguments for ``CampaignSpec.build``."""
    pool = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    n_axes = draw(st.integers(1, len(pool)))
    values = st.lists(
        st.one_of(few_scalars, scenario_specs(small=True).map(lambda s: s.token)),
        min_size=1, max_size=3, unique_by=json.dumps,
    )
    axes = {name: draw(values) for name in pool[:n_axes]}
    fixed = {name: draw(few_scalars) for name in pool[n_axes:]}
    # An extra point overlays only ``fixed``, so it names every axis.
    extra_points = draw(st.lists(
        st.fixed_dictionaries(
            {name: few_scalars for name in axes},
            optional={name: few_scalars for name in fixed},
        ),
        max_size=2,
    ))
    seed_params = draw(st.lists(st.sampled_from(pool), unique=True))
    return {
        "kind": draw(st.sampled_from(KINDS)),
        "axes": axes,
        "fixed": fixed,
        "extra_points": extra_points,
        "seed_params": seed_params,
        "n_seeds": draw(st.integers(1, 3)),
    }


def scenario_run_key(spec):
    return run_key("ideal", {"scenario": spec.token, "p": 0.5, "q": 0.5}, 7)


def policy_run_key(policy):
    return run_key("detailed", {"adaptive": policy.token, "p": 0.5}, 7)


class TestScenarioTokens:
    @settings(max_examples=150, deadline=None)
    @given(scenario_specs())
    def test_token_spec_token_is_the_identity(self, spec):
        parsed = ScenarioSpec.from_token(spec.token)
        assert parsed == spec
        assert parsed.token == spec.token
        assert ScenarioSpec.from_token(parsed.token).token == spec.token

    @settings(max_examples=100, deadline=None)
    @given(scenario_specs(), st.randoms(use_true_random=False))
    def test_key_order_never_changes_the_token(self, spec, rng):
        rebuilt = ScenarioSpec.build(
            family=spec.family,
            params=reorder(spec.params_dict(), rng),
            source=spec.source,
            failure_fraction=spec.failure_fraction,
            failure_times=spec.failure_times,
            clock_skew=spec.clock_skew,
        )
        assert rebuilt.token == spec.token
        parsed = ScenarioSpec.from_token(reordered_json(spec.token, rng))
        assert parsed.token == spec.token
        assert scenario_run_key(parsed) == scenario_run_key(spec)

    @settings(max_examples=150, deadline=None)
    @given(scenario_specs(small=True), scenario_specs(small=True))
    def test_distinct_specs_give_distinct_run_keys(self, one, other):
        if one != other:
            assert one.token != other.token
        same_key = scenario_run_key(one) == scenario_run_key(other)
        assert same_key == (one.token == other.token)


class TestAdaptivePolicyTokens:
    @settings(max_examples=150, deadline=None)
    @given(adaptive_policies())
    def test_token_policy_token_is_the_identity(self, policy):
        parsed = AdaptivePolicy.from_token(policy.token)
        assert parsed == policy
        assert parsed.token == policy.token

    @settings(max_examples=150, deadline=None)
    @given(adaptive_policies(), st.randoms(use_true_random=False))
    def test_field_order_never_changes_the_token(self, policy, rng):
        assert AdaptivePolicy(**reorder(asdict(policy), rng)).token == policy.token
        parsed = AdaptivePolicy.from_token(reordered_json(policy.token, rng))
        assert parsed.token == policy.token
        assert policy_run_key(parsed) == policy_run_key(policy)

    @settings(max_examples=150, deadline=None)
    @given(adaptive_policies(small=True), adaptive_policies(small=True))
    def test_distinct_policies_give_distinct_run_keys(self, one, other):
        assert (one == other) == (one.token == other.token)
        assert (policy_run_key(one) == policy_run_key(other)) == (one == other)


def build(layout, rng=None):
    if rng is None:
        return CampaignSpec.build(**layout)
    return CampaignSpec.build(**reorder(layout, rng))


def run_identities(spec):
    return sorted((run.key, run.seed) for run in spec.runs())


class TestCampaignIdentity:
    @settings(max_examples=50, deadline=None)
    @given(campaign_layouts())
    def test_spec_rebuilt_from_its_stored_form_is_identical(self, layout):
        spec = build(layout)
        rebuilt = CampaignSpec.build(
            kind=spec.kind,
            axes=dict(spec.axes),
            fixed=dict(spec.fixed),
            extra_points=[dict(extra) for extra in spec.extra_points],
            seed_params=spec.seed_params,
            n_seeds=spec.n_seeds,
            base_seed=spec.base_seed,
            seed_with_run_index=spec.seed_with_run_index,
        )
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()
        assert rebuilt.runs() == spec.runs()

    @settings(max_examples=50, deadline=None)
    @given(campaign_layouts(), st.randoms(use_true_random=False))
    def test_dict_order_never_changes_hash_or_run_keys(self, layout, rng):
        spec, shuffled = build(layout), build(layout, rng)
        assert shuffled.content_hash() == spec.content_hash()
        assert run_identities(shuffled) == run_identities(spec)
        for run in spec.runs():
            params = reorder(run.params_dict(), rng)
            assert run_key(run.kind, params, run.seed) == run.key

    @settings(max_examples=50, deadline=None)
    @given(scenario_specs(small=True), st.sampled_from(KINDS))
    def test_scenario_values_key_like_their_tokens(self, scenario, kind):
        by_spec = CampaignSpec.build(kind=kind, axes={"scenario": [scenario]})
        by_token = CampaignSpec.build(
            kind=kind, axes={"scenario": [scenario.token]}
        )
        assert by_spec == by_token
        assert run_identities(by_spec) == run_identities(by_token)

    @settings(max_examples=50, deadline=None)
    @given(campaign_layouts(), campaign_layouts())
    def test_distinct_runs_never_share_a_run_key(self, one, other):
        identity = {}
        for spec in (build(one), build(other)):
            for run in spec.runs():
                params = json.dumps(run.params_dict(), sort_keys=True)
                content = (run.kind, params, run.seed)
                assert identity.setdefault(run.key, content) == content
