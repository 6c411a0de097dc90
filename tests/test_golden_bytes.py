"""Golden bytes: churn-family runs pinned to the event loop they replaced.

The event queue keeps its heap as ``(time, sequence, event)`` tuples, and
dynamics halt once the federator finishes, cancelling the churn, burst,
trace and check-in events that could no longer act.  Neither change may
move a single output byte.  These SHA-256 digests were captured at commit
a71e2bf, before both changes, from that commit's own code: smoke scale,
mnist, noniid, seed 42, float32.  ``rounds`` is the digest of the
``rounds.jsonl`` that ``RunStore.put`` writes; ``summary`` is the digest
of ``json.dumps(result.summary(), sort_keys=True)``.

The cases cover every dynamics kind the halt touches at smoke scale:
churn windows (``churn``, ``lossy-churn``, ``mega-churn``) for the
synchronous, Aergia and buffered-async engines; bandwidth traces
(``flaky-network``) and loss bursts (``partition-storm``), whose random
client pick now draws ``choice(num_clients)`` rather than choice over a
rebuilt id list.

The configs pin ``dtype="float32"``, so the digests hold under the CI
dtype matrix too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.store import ROUNDS_NAME, RunStore
from repro.experiments.workloads import SCALES, evaluation_config
from repro.fl.runtime import run_experiment

#: (algorithm, scenario) -> (rounds.jsonl digest, summary digest).
GOLDEN_DIGESTS = {
    ("fedavg", "churn"): (
        "d0cec335691587165805bb93b8c116498f15e466ae16cdc25a8fcea298c92b3a",
        "c7be85bfcfc09275ea065ae176798f19d40f12260abc72ede20e1cf2ed1e46b6",
    ),
    ("fedavg", "lossy-churn"): (
        "213dfe9fa3fb4ab54a2192aafabbe1f1bfa555f2554952d0fe9d130f3ec2fa57",
        "3bd3e7d48dd145e4c6d10a9a6aab7c091f96beb33874ab8e828bf5ac5af7036e",
    ),
    ("aergia", "churn"): (
        "f6ff408eae814b60793f154719686a25ada6c3752728b9e33c886e74727f7bd8",
        "3bb290435370abd5548e5e0b215f0e1aa8ecc8ebaad97aff793f0ed4856073e3",
    ),
    ("fedbuff", "churn"): (
        "8f352916b354845ccff6a0dfb555a4704f4b053004d4b8929ba2cc9d8af560f0",
        "3f5f59a5ed9caa8e99c3b5b7b4ef1a13fc8a52fa7ce342cb4115ca346a918af3",
    ),
    ("fedavg", "mega-churn"): (
        "88bd53c1fedae8e8358aa7461ed88f1e5baddab690261b14e3f16641769c7e9c",
        "d6e3637ba654c85060cbf1f089c5286fa3d856504542d950af1150575feb2b53",
    ),
    ("fedavg", "partition-storm"): (
        "8f986bc139caf0dd87cba2571de1ad864a242e8326d66c1caf949aeee7e96ef2",
        "263c24454d4f66368428a293f2f3593f79776751277cf0b82b219073eebe1662",
    ),
    ("fedavg", "flaky-network"): (
        "98c2e44f06ce259b3c853c36e1530ddc6060c39b6844d53dc558aa634ede79ef",
        "31a91752ce8dca34eff792bbdb2621af712f3d0c040c2dfb4d1fe8774b204783",
    ),
}


@pytest.mark.parametrize(
    "algorithm,scenario", sorted(GOLDEN_DIGESTS), ids=lambda value: value
)
def test_run_bytes_match_the_pinned_digests(algorithm, scenario, tmp_path):
    config = evaluation_config(
        "mnist", algorithm, "noniid", SCALES["smoke"], scenario=scenario, dtype="float32"
    )
    result = run_experiment(config)
    stored = RunStore(tmp_path).put(config, result)
    rounds = hashlib.sha256((stored.path / ROUNDS_NAME).read_bytes()).hexdigest()
    summary = hashlib.sha256(json.dumps(result.summary(), sort_keys=True).encode()).hexdigest()
    assert (rounds, summary) == GOLDEN_DIGESTS[(algorithm, scenario)]
