"""GOOD: every literal in the batched derivation's lists is registered."""


def family_states(streams, StreamFamily, user_ids, keys, extra):
    family = StreamFamily([
        "write-mix", "think",
        *(name for key in keys for name in (f"count:{key}",)),
        *extra,  # a variable: checked at its own literal source
    ])
    return family.states(streams, [f"user-{user_id}" for user_id in user_ids])
