"""Shared fixtures of the pipeline tests."""

import pytest


@pytest.fixture(params=["per-token", "batch"])
def drive(request):
    """Run a streamed LOAD -> COMPUTE -> STORE chain over its tokens.

    ``per-token`` calls each action once per token, as the event engine
    does; ``batch`` calls each action's ``batch`` form once per task, as
    the vectorized schedule engine does.
    """

    def run(actions, tokens: int) -> None:
        if request.param == "batch":
            payload = actions["load"].batch(tokens, ())
            payload = actions["compute"].batch(tokens, (payload,))
            sinks = actions["store"].batch(tokens, (payload,))
            assert sinks == [None] * tokens
            return
        for token in range(tokens):
            payload = actions["load"](token, ())
            payload = actions["compute"](token, (payload,))
            assert actions["store"](token, (payload,)) is None

    return run
