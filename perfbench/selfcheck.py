"""Self-check of the benchmark's correctness checks.

    python3 perfbench/selfcheck.py

Sends two rounds of every workload's queries with every check on (the deep
modal checks included) and requires each result to pass.  Then, for every
method, it shows that the checker rejects a result whose label was changed
and one whose largest coefficient was scaled by 1 + 1e-4.  Exits 0 when all
of that holds.
"""

import sys
from dataclasses import replace

from run import prepare

SEED = 0
ROUNDS = 2


def main():
    error = prepare()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import numpy as np

    from checks import Checker
    from harness import spec_for
    from mrarc import Dictionary, classify, classify_multimodal
    from workloads import QUERY_STREAM, WORKLOADS, Generator

    bad = 0
    for name, workload in WORKLOADS.items():
        gen = Generator(workload, SEED)
        dicts = [Dictionary.from_samples(S, gen.labels) for S in gen.gallery]
        checker = Checker(gen.gallery, gen.labels, workload.n_classes)
        specs = {p.method: spec_for(p) for p in workload.plans}
        tally = {p.method: [0, 0, 0, 0] for p in workload.plans}  # sent, passed, label caught, coef caught
        rounds = gen.rounds(QUERY_STREAM)
        for _ in range(ROUNDS):
            for q in next(rounds):
                spec = specs[q.plan.method]
                if workload.multimodal:
                    res = classify_multimodal(dicts, list(q.ys), spec)
                else:
                    res = classify(dicts[0], q.ys[0], spec)
                t = tally[q.plan.method]
                t[0] += 1
                found = checker.check(q, res, deep=True)
                t[1] += not found
                if found:
                    print(f"{name} {q.plan.method}/{q.noise}: {found[0]}")
                wrong = replace(res, label=(res.label + 1) % workload.n_classes)
                t[2] += bool(checker.check(q, wrong, deep=True))
                coef = np.array(res.coefficients, dtype=np.float64)
                flat = coef.reshape(-1)
                j = int(np.argmax(np.abs(flat)))
                flat[j] *= 1.0 + 1e-4
                t[3] += bool(checker.check(q, replace(res, coefficients=coef), deep=True))
        for method, (sent, passed, label_caught, coef_caught) in tally.items():
            ok = passed == label_caught == coef_caught == sent
            bad += not ok
            print(
                f"{name:15s} {method:7s} {passed}/{sent} pass, wrong label caught "
                f"{label_caught}/{sent}, perturbed coefficients caught {coef_caught}/{sent}"
                f"{'' if ok else '  <-- FAIL'}"
            )
    print("self-check " + ("passed" if bad == 0 else f"FAILED for {bad} method(s)"))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
