package layers

import (
	"encoding/json"
	"fmt"
	"time"
)

// Duration is the JSON wire form of a time span: a time.Duration that
// marshals as a human-readable string ("200ms", "2s") and accepts both
// that form and raw integer nanoseconds on decode. The fabric Spec, the
// serve op log and every protocol config struct use it so spec files stay
// legible; it lives in this leaf package because the protocol packages'
// config structs are themselves the spec-file form (topo.Duration and
// fabric.Duration are aliases).
type Duration time.Duration

// D converts back to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings and integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\" or integer nanoseconds: %w", err)
	}
	*d = Duration(n)
	return nil
}
