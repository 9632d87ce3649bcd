"""Model registry: the benchmark's model names -> MRMs.

Names are the ``Query.model`` keys of :mod:`corpus`.  ``tmr3``/``tmr9``/
``tmr11``/``tmr11v`` are the paper's TMR systems built in Python (the
paper tables); ``*.mrm`` names compile the shipped guarded-command
models, with ``#NAME=VALUE`` overriding one constant, exactly as the
daemon and the CLI compile them.
"""

from __future__ import annotations

from repro.lang.compiler import compile_model
from repro.models import TMRParameters, build_mm1k_queue, build_phone_model, build_tmr
from repro.models.tmr import TMR11_REWARDS

from common import MODELS


def model_source(name: str) -> str:
    return (MODELS / name.split("#", 1)[0]).read_text(encoding="utf-8")


def constants_of(name: str):
    if "#" not in name:
        return None
    key, _, value = name.split("#", 1)[1].partition("=")
    return {key: float(value)}


def build(name: str):
    if name == "tmr3":
        return build_tmr(3)
    if name == "tmr9":
        return build_tmr(9)
    if name == "tmr11":
        return build_tmr(11, rewards=TMR11_REWARDS)
    if name == "tmr11v":
        return build_tmr(
            11, TMRParameters(variable_failure_rates=True), rewards=TMR11_REWARDS
        )
    if name == "queue":
        return build_mm1k_queue()
    if name == "phone":
        return build_phone_model()
    return compile_model(model_source(name), constants=constants_of(name)).mrm
