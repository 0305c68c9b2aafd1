"""Zero-divisor certificates for configuration spaces of the torus.

For each n the script multiplies out an explicit product of 2n bar
classes in the tensor square of the Totaro model and confirms the
result is a single nonzero multiple of a basis tensor.  That witness
certifies zcl >= 2n, which is the exact value: the power-iteration
routine confirms it for the small cases where it is cheap to run.
"""

from tcsurf import case_certificate, totaro_algebra, zcl_exact


def main():
    for n in range(1, 6):
        cert = case_certificate("torus", totaro_algebra(1, n))
        data = cert.to_json()
        print(f"n = {n}: product of {cert.certified_length} zero-divisors")
        print(f"  witness   {data['witness'][0]} (x) {data['witness'][1]}")
        print(f"  coefficient {data['coefficient']}")
        if n <= 3:
            exact = zcl_exact(totaro_algebra(1, n))
            agree = "matches" if exact.value == cert.certified_length else "DISAGREES"
            print(f"  power iteration gives {exact.value} ({agree})")
        print()


if __name__ == "__main__":
    main()
