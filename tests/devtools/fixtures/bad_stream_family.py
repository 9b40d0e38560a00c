"""BAD: a misspelled name inside a batched-derivation name list."""


def family_states(streams, StreamFamily, user_ids, keys):
    family = StreamFamily([
        "write-mix", "thnik",
        *(f"cnt:{key}" for key in keys),
    ])
    return family.states(streams, [f"usr-{user_id}" for user_id in user_ids])
