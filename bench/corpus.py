"""The ``cli_reports`` corpus: instance, distribution and contract files.

A corpus is written into a directory at set-up; a pass runs every call in
it through ``agency.cli.main``. Every call is expected to exit 0: ``verify``
checks ``upper_n``, whose hypotheses hold on every atom-free pair, the
contracts are incentive compatible by construction, and every canonical
example reproduces.
"""

from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np

from agency import binary_action_optimal, to_spec, uniform
from agency.examples import EXAMPLE_IDS, menu

import gen

#: Distribution family and outcome count per analyzed instance. All have
#: three actions and a one-part distribution, so their ``analyze``,
#: ``sweep-alpha`` and ``verify`` calls form one cluster of similar times
#: and the operation-time percentiles fall inside it rather than between
#: clusters. ``verify`` checks ``upper_n``, whose hypotheses always hold.
ANALYZED = (("uniform", 3), ("exponential", 2), ("uniform", 4), ("exponential", 3))


class Call(NamedTuple):
    subcommand: str
    argv: list[str]


def _instance_record(inst) -> dict:
    return {"gammas": list(inst.gammas), "rewards": list(inst.rewards),
            "F": [list(row) for row in inst.outcome_probs]}


def _write(directory: str, name: str, payload: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def build(seed: int, stream: int, directory: str) -> list[Call]:
    """Write a seeded corpus into ``directory`` and return its calls."""
    rng = np.random.default_rng([seed, stream])
    calls: list[Call] = []
    for k, (family, m) in enumerate(ANALYZED):
        inst = gen.random_instance(rng, 3, m)
        dist = gen.regular_distribution(rng, inst, family)
        path = _write(directory, f"instance{k}.json", {**_instance_record(inst), "dist": to_spec(dist)})
        fmt = "csv" if k == 0 else "json"
        calls += [
            Call("analyze", ["analyze", "--instance", path]),
            Call("sweep-alpha", ["sweep-alpha", "--instance", path, "--format", fmt]),
            Call("verify", ["verify", "--instance", path, "--theorem", "upper_n"]),
        ]
    contracts = []
    for n in sorted(rng.choice(np.arange(3, 9), size=3, replace=False).tolist()):
        ex = menu(n=n, r1=float(rng.uniform(n + 1.0, n + 10.0)))
        contracts.append((ex.instance, ex.contract))
    for _ in range(2):
        inst = gen.binary_action_instance(rng)
        dist = uniform(0.0, float(rng.uniform(0.8, 1.5)))
        contracts.append((inst, binary_action_optimal(inst, dist)))
    for k, (inst, contract) in enumerate(contracts):
        ipath = _write(directory, f"contract_instance{k}.json", _instance_record(inst))
        cpath = _write(directory, f"contract{k}.json", contract.to_dict())
        calls.append(Call("check-ic", ["check-ic", "--instance", ipath, "--contract", cpath]))
    calls += [Call("reproduce", ["reproduce", example]) for example in EXAMPLE_IDS]
    return calls
