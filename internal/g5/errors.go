package g5

import (
	"errors"
	"fmt"
)

// HardwareError is the typed failure reported by the emulated GRAPE-5
// hardware path. Recovery code (and tests) use it to distinguish
// transient faults worth retrying — bus transfer errors, compute
// timeouts — from permanent failures and host programming bugs,
// without string matching.
type HardwareError struct {
	// Op names the failing operation ("compute", "input", "bus
	// transfer", "compute timeout", ...).
	Op string
	// Transient marks faults that a retry may clear. The real host
	// library's error handling makes the same split: DMA retries are
	// routine, a wedged pipeline is not.
	Transient bool
	// Err is the underlying cause, if any.
	Err error
}

// Error implements the error interface.
func (e *HardwareError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	if e.Err == nil {
		return fmt.Sprintf("g5: %s %s failure", kind, e.Op)
	}
	return fmt.Sprintf("g5: %s %s failure: %v", kind, e.Op, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *HardwareError) Unwrap() error { return e.Err }

// IsTransient reports whether err is (or wraps) a HardwareError marked
// transient, i.e. one worth retrying.
func IsTransient(err error) bool {
	var hw *HardwareError
	return errors.As(err, &hw) && hw.Transient
}
