// Fixture for the errhygiene analyzer: identity comparison against
// sentinels, message-text matching, and unwrapped fmt.Errorf are
// violations in the sentinel-error packages.
package fixture

import (
	"errors"
	"fmt"
	"strings"
)

// ErrGone is this fixture's sentinel.
var ErrGone = errors.New("gone")

// Identity compares a (possibly wrapped) error by identity.
func Identity(err error) bool {
	return err == ErrGone // want "compared by identity"
}

// TextContains matches on the rendered message.
func TextContains(err error) bool {
	return strings.Contains(err.Error(), "gone") // want "strings.Contains over err.Error"
}

// TextEqual compares the rendered message.
func TextEqual(err error) bool {
	return err.Error() == "gone" // want "matched by message text"
}

// StringifyWrap loses the cause from the errors.Is chain.
func StringifyWrap(err error) error {
	return fmt.Errorf("reading shard: %v", err) // want "without %w"
}

// NilCheck is fine: nil comparisons are the idiomatic presence test.
func NilCheck(err error) bool { return err == nil }

// IsCheck is the sanctioned sentinel test.
func IsCheck(err error) bool { return errors.Is(err, ErrGone) }

// GoodWrap keeps the chain intact.
func GoodWrap(err error) error { return fmt.Errorf("reading shard: %w", err) }

// NoCause has no error argument at all: nothing to wrap.
func NoCause(n int) error { return fmt.Errorf("bad shard count %d", n) }

// Commented compares by identity under a justifying comment: there is
// no site-level waiver, so it is still flagged.
func Commented(err error) bool {
	// a comment is not an exemption
	return err == ErrGone // want "compared by identity"
}

// ErrDeviceGone mirrors faults.ErrDeviceLost: the permanent whole-
// device sentinel the recovery paths classify on.
var ErrDeviceGone = errors.New("device lost")

// LostIdentity classifies a device loss by identity. The recovery
// stack wraps the sentinel at every layer (scan → shard → stripe), so
// identity silently stops matching.
func LostIdentity(err error) bool {
	return err == ErrDeviceGone // want "compared by identity"
}

// LostIs is the sanctioned classification on the recovery paths.
func LostIs(err error) bool { return errors.Is(err, ErrDeviceGone) }

// LostCommented claims the identity check is deliberate; it is still
// flagged.
func LostCommented(err error) bool {
	// identity claimed deliberate here
	return err == ErrDeviceGone // want "compared by identity"
}
