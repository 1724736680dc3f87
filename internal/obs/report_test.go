package obs

import (
	"reflect"
	"testing"
)

// TestPhaseSecondsAddCoversEveryField sets every field of a
// PhaseSeconds to a distinct non-zero value via reflection and requires
// Add to double each one and Scale(3) to triple it: a phase added to the
// struct but forgotten in either would keep its old value and fail here.
func TestPhaseSecondsAddCoversEveryField(t *testing.T) {
	for name, tc := range map[string]struct {
		op     func(p *PhaseSeconds)
		factor float64
	}{
		"Add":   {func(p *PhaseSeconds) { p.Add(*p) }, 2},
		"Scale": {func(p *PhaseSeconds) { p.Scale(3) }, 3},
	} {
		var p PhaseSeconds
		v := reflect.ValueOf(&p).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetFloat(float64(i + 1))
		}
		tc.op(&p)
		for i := 0; i < v.NumField(); i++ {
			want := tc.factor * float64(i+1)
			if got := v.Field(i).Float(); got != want {
				t.Errorf("%s missed field %s: got %v, want %v",
					name, v.Type().Field(i).Name, got, want)
			}
		}
	}
}

// TestPhaseSecondsAddZero: adding a zero value must change nothing.
func TestPhaseSecondsAddZero(t *testing.T) {
	p := PhaseSeconds{MortonSort: 1, Checkpoint: 2}
	q := p
	p.Add(PhaseSeconds{})
	if p != q {
		t.Errorf("Add(zero) changed the value: %+v != %+v", p, q)
	}
}
