"""The payment mechanism and strategic effort choice.

Payment is zero up to a floor precision, the full per-example budget above a
ceiling, and linear in between.  Three cost shapes reproduce the three
possible annotator situations: never profitable (stay out), an interior sweet
spot, and a corner solution at the top of the band.
"""

import numpy as np

from crowdreg import (
    AnnotatorProfile,
    CostFunction,
    PaymentScheme,
    PrecisionPosterior,
    optimal_effort,
    payment,
    settle,
    utility,
)

scheme = PaymentScheme(budget=10.0, beta_lower=1.0, beta_upper=3.0)

print("payment curve:")
for beta in (0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
    print(f"  effort {beta:3.1f} -> pay {payment(beta, scheme):5.2f}")

cases = {
    "overpriced (stays out)": CostFunction("linear", (12.0,)),
    "quadratic (interior)": CostFunction("quadratic", (1.0,)),
    "cheap linear (corner)": CostFunction("linear", (0.5,)),
}

print("\nstrategic effort choices:")
for name, cost in cases.items():
    worker = AnnotatorProfile(best_precision=8.0, cost=cost)
    effort, joins = optimal_effort(worker, scheme)
    gain = utility(effort, cost, scheme) if joins else 0.0
    print(f"  {name:24s} effort {effort:5.3f}  participates={joins}"
          f"  utility {gain:5.2f}")

# participation is voluntary and never loss-making; anyone who joins works
# strictly above the zero-pay floor
rng = np.random.default_rng(4)
audited = 0
for _ in range(200):
    lo = float(rng.uniform(0.3, 2.0))
    hi = lo + float(rng.uniform(0.5, 4.0))
    sch = PaymentScheme(float(rng.uniform(2.0, 15.0)), lo, hi)
    cost = CostFunction("quadratic", (sch.budget / (2 * hi**2),))
    worker = AnnotatorProfile(best_precision=2 * hi, cost=cost)
    effort, joins = optimal_effort(worker, sch)
    if joins:
        assert utility(effort, cost, sch) >= 0
        assert effort > sch.beta_lower
        audited += 1
print(f"\naudited {audited} random schemes: every participant profits and "
      "works above the floor")

# the learner settles per label on its posterior-mean precision estimates
posterior = PrecisionPosterior(shape=[25.0], rate=[10.0])  # estimate: 2.5
print(f"\nper-label settlement at estimated precision 2.5: "
      f"{settle(posterior, scheme)[0]:.2f}")
