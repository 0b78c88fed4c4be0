"""Exception types shared across the package, and the cap guard that raises one."""


class EcsumprodError(Exception):
    """Base class for package-specific errors."""


class NotAUnit(EcsumprodError):
    """Residue is not invertible modulo the given ring order."""


class NotOnCurve(EcsumprodError):
    """Point fails the curve equation."""


class CapExceeded(EcsumprodError):
    """Requested computation is above a desk-scale cap."""


def check_cap(what: str, p: int, cap: int):
    """The one cap guard: CapExceeded for work over F_p with p above cap,
    made before any allocation."""
    if p > cap:
        raise CapExceeded(f"{what} needs p <= {cap}, got {p}")


class OrderNotDividing(EcsumprodError):
    """The claimed group order does not annihilate the point."""


class OrderMismatch(EcsumprodError):
    """Point does not have the exact order claimed for an orbit."""


class IdentityHasNoX(EcsumprodError):
    """An x-coordinate was requested at the group identity."""


class TrivialCharacter(EcsumprodError):
    """Operation needs a nontrivial additive character (lambda != 0 mod p)."""


class DomainError(EcsumprodError):
    """A bound formula was evaluated outside its domain."""


class TooLarge(EcsumprodError):
    """Requested sample size exceeds the available population."""


class InvariantViolation(EcsumprodError):
    """A fact that holds for every valid instance failed to hold."""
