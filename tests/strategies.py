"""Hypothesis strategies, a formula enumerator and a model reader shared by
the property tests."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from permitmc.formula import BOT, TOP, Modal, Modality, Neg, Or, Prop
from permitmc.generate import GenParams, random_model


# arbitrary JSON values, for decoders that must fail only with InputError
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def formulas(agents=("a", "b"), props=("p0", "q0"), max_leaves=10):
    base = st.one_of(
        st.sampled_from([Prop(p) for p in props]),
        st.sampled_from([TOP, BOT]),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            children.map(Neg),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(
                st.sampled_from(list(Modality)), st.sampled_from(list(agents)), children
            ).map(lambda t: Modal(*t)),
        ),
        max_leaves=max_leaves,
    )


def enumerate_formulas(max_depth, modalities, agents, base):
    """All structurally distinct formulas of tree height <= max_depth built
    from the base formulas with negation, disjunction, and the given
    modality/agent pairs, in order of first appearance. Grows fast; meant
    for depth <= 3 sweeps."""
    level = list(base)
    for _ in range(max_depth):
        level = [
            *base,
            *(Neg(f) for f in level),
            *(Or(left, right) for left in level for right in level),
            *(Modal(mod, agent, f) for mod in modalities for agent in agents for f in level),
        ]
    return list(dict.fromkeys(level))


@st.composite
def models(draw, max_states=4, max_agents=2, max_actions=2, branching=2,
           deterministic=False, single_agent=False, density=None):
    params = GenParams(
        seed=draw(st.integers(0, 2**32 - 1)),
        num_agents=1 if single_agent else draw(st.integers(1, max_agents)),
        num_states=draw(st.integers(1, max_states)),
        max_actions=draw(st.integers(1, max_actions)),
        num_props=2,
        permitted_density=density if density is not None else draw(st.sampled_from((0.5, 1.0))),
        branching=1 if deterministic else branching,
    )
    return random_model(params)


@st.composite
def model_and_formulas(draw, n_formulas=1, max_leaves=6, **model_kwargs):
    """A model paired with formulas over exactly its agents and propositions."""
    m = draw(models(**model_kwargs))
    props = tuple(sorted(m.valuation)) or ("p0",)
    fs = tuple(
        draw(formulas(agents=m.agents, props=props, max_leaves=max_leaves))
        for _ in range(n_formulas)
    )
    return (m, *fs)


def deep_chain(
    seed, depth=10**5, kinds=("neg", "modal", "left", "right"), agents="ab", props="pq"
):
    """A formula ``depth`` levels deep: each level wraps the one below in a
    seeded choice of ``kinds``: a negation, a modality, or a disjunction with
    a proposition on its left or right side."""
    rng = random.Random(seed)
    modalities = list(Modality)
    f = Prop(props[0])
    for _ in range(depth):
        kind = rng.choice(kinds)
        if kind == "neg":
            f = Neg(f)
        elif kind == "modal":
            f = Modal(rng.choice(modalities), rng.choice(agents), f)
        elif kind == "left":
            f = Or(Prop(rng.choice(props)), f)
        else:
            f = Or(f, Prop(rng.choice(props)))
    return f


def action_unions(m, s, agent):
    """action -> its successor union at ``s``, read off
    ``m.successor_unions``, whose rows list each state's actions on a side
    in their ``action_set`` order."""
    permitted = m.permitted_set(s, agent)
    out = {}
    for side, (states, unions) in enumerate(m.successor_unions[agent]):
        actions = [i for i in m.action_set(s, agent) if (i not in permitted) == side]
        out.update(zip(actions, [u for t, u in zip(states, unions) if t == s]))
    return out
