"""Property tests of the spec-grammar kernel over the live role table.

For every role and every registered family, the bare name, the full
default signature and explicit parameter subsets drawn from the
family's defaults and choices (plus nearby numbers and flipped
booleans; draws ``validate`` rejects are skipped) must satisfy
``parse(canonical(s)) == s`` with an idempotent canonical form, and a
comma-joined list of canonical strings — ``+``-joined pairs, plans and
method sets included — must split back into the same list.
"""

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.methods.spec import LEGACY, MethodSpec
from repro.spec import field_roles, roles, split_spec_list

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much,
                                           HealthCheck.too_slow])

CASES = [(role, name) for role in roles()
         for name in role.registry.families()]
#: Each family's bare name and full default signature, checked on
#: every run rather than whenever Hypothesis happens to draw them.
FIXED = [(role, name, text) for role in roles()
         for name, family in role.registry.families().items()
         for text in dict.fromkeys((name, family.signature()))]


def _value(data, registry, param):
    """One explicit value for ``param``: a choice, the default, or (for
    unconstrained numbers and booleans) a nearby alternative."""
    default = param.default
    if param.choices is not None:
        return data.draw(st.sampled_from(param.choices))
    if isinstance(default, bool):
        return data.draw(st.booleans())
    if isinstance(default, int) and not registry.floats:
        return data.draw(st.one_of(st.just(default), st.integers(1, 512)))
    if isinstance(default, (int, float)):
        return data.draw(st.one_of(
            st.just(float(default)),
            st.integers(0, 100).map(float),
            st.floats(0.0, 1000.0, allow_nan=False)))
    return default


def _spell(value) -> str:
    """A value as a user types it (independent of the kernel's own
    formatter, so a lossy canonical form cannot hide behind it)."""
    if isinstance(value, bool):
        return "on" if value else "off"
    return repr(value) if isinstance(value, float) else str(value)


def _draw_text(data, role, name):
    """A grammar string naming family ``name`` of ``role`` with a drawn
    explicit parameter subset (aliases spelled sometimes), or None when
    the family's ``validate`` rejects the draw."""
    family = role.registry.get(name)
    keys = data.draw(st.lists(st.sampled_from(sorted(family.params)),
                              unique=True)) if family.params else []
    explicit = {key: _value(data, role.registry, family.params[key])
                for key in keys}
    resolved = {key: role.registry.default(pd)
                for key, pd in family.params.items()}
    resolved.update(explicit)
    try:
        family.validate(**resolved)
    except ValueError:
        return None
    if not explicit:
        return name
    parts = []
    for key, value in explicit.items():
        alias = family.params[key].alias
        spelled = alias if alias and data.draw(st.booleans()) else key
        parts.append(f"{spelled}={_spell(value)}")
    return f"{name}?{','.join(parts)}"


@pytest.mark.parametrize(
    "role, name, text",
    [(r, n, None) for r, n in CASES] + FIXED,
    ids=[f"{r.name}-{n}" for r, n in CASES]
    + [f"{r.name}-{n}-{'bare' if t == n else 'signature'}"
       for r, n, t in FIXED])
@SETTINGS
@given(data=st.data())
def test_canonical_round_trips(role, name, text, data):
    text = text or _draw_text(data, role, name)
    if text is None:
        reject()
    spec = role.spec.parse(text)
    canon = spec.canonical()
    assert role.spec.parse(canon) == spec
    assert role.spec.canonicalize(canon) == canon
    assert role.spec.canonicalize(text) == canon


def _draw_entry(data, field):
    """One canonical value of a Scenario spec field: a single spec, a
    ``+``-joined pair or fault plan, or a method set."""
    group = [role for role in roles() if role.field == field]
    if len(group) == 2:                      # dispatch+placement etc.
        chosen = data.draw(st.lists(st.sampled_from(group), min_size=1,
                                    max_size=2, unique_by=lambda r: r.name))
        chosen.sort(key=group.index)
    elif field in ("methods", "faults"):      # sets and plans
        chosen = group * data.draw(st.integers(1, 3))
    else:
        chosen = group
    texts = []
    for role in chosen:
        if field == "methods" and data.draw(st.booleans()):
            texts.append(data.draw(st.sampled_from(sorted(LEGACY))))
            continue
        name = data.draw(st.sampled_from(sorted(role.registry.families())))
        text = _draw_text(data, role, name)
        if text is None:
            reject()
        texts.append(text)
    if field == "methods":
        return "+".join(MethodSpec.canonicalize(t) for t in texts)
    return field_roles()[field].spec.canonicalize("+".join(texts))


@pytest.mark.parametrize("field", list(field_roles()))
@SETTINGS
@given(data=st.data())
def test_split_spec_list_recovers_canonicals(field, data):
    canonicals = [_draw_entry(data, field)
                  for _ in range(data.draw(st.integers(1, 4)))]
    assert split_spec_list(",".join(canonicals)) == canonicals
