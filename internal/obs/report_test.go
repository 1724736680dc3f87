package obs

import (
	"reflect"
	"testing"
)

// TestPhaseSecondsAddCoversEveryField sets every field of a
// PhaseSeconds to a distinct non-zero value via reflection and requires
// Add to double each one: a phase added to the struct but forgotten in
// Add would keep its old value and fail here.
func TestPhaseSecondsAddCoversEveryField(t *testing.T) {
	var p PhaseSeconds
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetFloat(float64(i + 1))
	}
	p.Add(p)
	for i := 0; i < v.NumField(); i++ {
		if got, want := v.Field(i).Float(), 2*float64(i+1); got != want {
			t.Errorf("Add missed field %s: got %v, want %v", v.Type().Field(i).Name, got, want)
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
