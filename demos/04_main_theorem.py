"""End-to-end verification across the whole catalog.

For every built-in pair: compute the k-invariants of the enveloping algebra
by degree, project them, and compare the image dimension with the
membership-defined invariant ring; check Weyl invariance, membership of
every image polynomial, and that the right-ideal part of the invariants
maps to zero.
"""

import time

from superhc import CATALOG, verify_main_theorem


def main():
    for name in CATALOG:
        t0 = time.monotonic()
        report = verify_main_theorem(name)
        print(f"{name}  (degree {report['degree']}):  "
              f"{'ok' if report['ok'] else 'FAILED'}  "
              f"[{time.monotonic() - t0:.1f}s]")
        header = ("deg", "inv", "ker", "img", "J", "I", "S^W0")
        print("   " + "".join(f"{h:>6}" for h in header))
        for row in report["rows"]:
            print("   " + "".join(f"{row[k]:>6}" for k in (
                "degree", "dim_invariants", "dim_kernel", "dim_image",
                "dim_J", "dim_I", "dim_SW0")))
        flags = ", ".join(k for k, v in report["flags"].items() if not v)
        if flags:
            print("   failed flags:", flags)
        if report["gated_roots"]:
            print("   gated odd roots (2*lambda is a root):",
                  report["gated_roots"])
        print()


if __name__ == "__main__":
    main()
