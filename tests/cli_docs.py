"""Scenario documents the CLI is run on, shared by ``tests/test_cli.py`` and
``tools/equal.py``: the harness runs exactly the inputs the tests do."""

DECAY = {"family": "exponential-decay", "c": 0.5, "rate": 1.0}
HUGE = {"family": "constant", "c": 1e12}


def scenario_doc(mode="discrete", **over):
    doc = {
        "schema_version": 1,
        "name": "doc",
        "mode": mode,
        "nodes": 2,
        "arcs": [
            {"tail": 0, "head": 1, "weight": {"family": "constant", "c": 0.25}},
            {"tail": 1, "head": 0, "weight": {"family": "constant", "c": 0.25}},
        ],
        "x0": [0.0, 1.0],
        "horizon": 5,
    }
    if mode == "discrete":
        doc["self_weights"] = "stochastic-complement"
    doc.update(over)
    return doc


# Each run is refused by its stepper, whether the base run or a certificate
# drives it: the discrete rows sum to 0.9 + 0.5 e^-t, never 1; the
# continuous inflow of 1e12 caps every step below the smallest allowed.
# By id: the network's mode, the arcs' weight, the certificate, and the start
# of the error.
REFUSALS = {
    "window-violation": ("discrete", DECAY, {"certificate": "window-violation", "epsilon": 0.5,
                                             "T": 5, "A": 1.0, "scan_limit": 10},
                         "row of node 0 sums to 0.967"),
    "discrete-rate": ("discrete", DECAY, {"certificate": "discrete-rate", "eta": 0.5,
                                          "a_star": 0.5, "T_star": 1},
                      "row of node 0 sums to 1.4 at t=0"),
    "agreement-ratio": ("continuous", HUGE, {"certificate": "agreement-ratio", "target": 0.01,
                                             "A": 1.0},
                        "step size underflow at t=0.0"),
    "continuous-rate": ("continuous", HUGE, {"certificate": "continuous-rate", "A": 1.0,
                                             "a_star": 0.5, "tau0": 1.0},
                        "step size underflow at t=0.0"),
}


def refused_doc(mode, family, cert):
    arcs = [{"tail": 0, "head": 1, "weight": family}, {"tail": 1, "head": 0, "weight": family}]
    doc = scenario_doc(mode, arcs=arcs, certificates=[cert])
    if mode == "discrete":
        doc["self_weights"] = [{"family": "constant", "c": 0.9}] * 2
    return doc


# A negative seed is refused by name, whether a sampled check would read it or
# not. By id: the checks, and (the document's seed, the options, the seed shown).
SEED_CHECKS = {"no-checks": [], "cut-balance": [{"check": "cut-balance", "K": 2.0}]}
NEGATIVE_SEEDS = {"field": (-1, [], "-1"), "option": (0, ["--seed", "-3"], "-3")}
