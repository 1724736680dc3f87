package g5

import (
	"reflect"
	"testing"
)

func TestCountersAddIsFieldComplete(t *testing.T) {
	// Every field of the sum must differ from the base when the live side
	// is all-ones; a zero delta means Add forgot a field.
	base := Counters{Interactions: 10, PipeSeconds: 1, BusSeconds: 2,
		BytesTransferred: 3, Runs: 4, JPasses: 5, RangeClamps: 6}
	live := Counters{Interactions: 1, PipeSeconds: 1, BusSeconds: 1,
		BytesTransferred: 1, Runs: 1, JPasses: 1, RangeClamps: 1}
	got := base.Add(live)
	want := Counters{Interactions: 11, PipeSeconds: 2, BusSeconds: 3,
		BytesTransferred: 4, Runs: 5, JPasses: 6, RangeClamps: 7}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	bv, gv := reflect.ValueOf(base), reflect.ValueOf(got)
	for i := 0; i < bv.NumField(); i++ {
		if reflect.DeepEqual(bv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("field %s unchanged by Add", bv.Type().Field(i).Name)
		}
	}
}

func TestRecoveryAddTakesLiveHostOnly(t *testing.T) {
	base := Recovery{Checks: 5, Retries: 4, CorruptResults: 3,
		ExcludedBoards: 2, FallbackBatches: 1, HostOnly: true}
	live := Recovery{Checks: 1, Retries: 1, CorruptResults: 1,
		ExcludedBoards: 1, FallbackBatches: 1, HostOnly: false}
	got := base.Add(live)
	want := Recovery{Checks: 6, Retries: 5, CorruptResults: 4,
		ExcludedBoards: 3, FallbackBatches: 2, HostOnly: false}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	// Fresh incarnation already degraded: HostOnly must track live side.
	if got := base.Add(Recovery{HostOnly: true}); !got.HostOnly {
		t.Error("live HostOnly=true not propagated")
	}
}

func TestFaultStatsAdd(t *testing.T) {
	base := FaultStats{JMemBitFlips: 1, StuckPipeCalls: 2, BusErrors: 3, Transients: 4}
	got := base.Add(FaultStats{JMemBitFlips: 10, StuckPipeCalls: 10, BusErrors: 10, Transients: 10})
	want := FaultStats{JMemBitFlips: 11, StuckPipeCalls: 12, BusErrors: 13, Transients: 14}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

// fillOnes sets every field of the struct p points to to one (true for
// bools); checkTwos asserts a two-shard sum of such structs.
func fillOnes(t *testing.T, p any) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("%s.%s: kind %s not handled by the completeness check", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

func checkTwos(t *testing.T, total any) {
	t.Helper()
	v := reflect.ValueOf(total)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().String()+"."+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			if f.Int() != 2 {
				t.Errorf("%s = %d over two shards of 1: dropped from the cluster total", name, f.Int())
			}
		case reflect.Float64:
			if f.Float() != 2 {
				t.Errorf("%s = %v over two shards of 1: dropped from the cluster total", name, f.Float())
			}
		case reflect.Bool:
			if !f.Bool() {
				t.Errorf("%s false with it set on every shard", name)
			}
		}
	}
}

// TestClusterTotalsAreFieldComplete: a field added to Counters,
// Recovery or FaultStats must reach the cluster totals, which are
// summed through the same Add methods as the checkpoint merge.
func TestClusterTotalsAreFieldComplete(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = &FaultModel{Seed: 1, TransientRate: 0.5} // an enabled model gives each shard a fault tally to fill
	cl, err := NewCluster(ClusterConfig{Shards: 2, Board: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, sh := range cl.shards {
		fillOnes(t, &sh.sys.cnt)
		fillOnes(t, &sh.sys.fault.stats)
		fillOnes(t, &sh.eng.rec)
	}
	checkTwos(t, cl.Counters())
	checkTwos(t, cl.FaultStats())
	checkTwos(t, cl.Recovery())

	// HostOnly is the all-shards AND, not a sum and not the last shard's.
	cl.shards[0].eng.rec.HostOnly = false
	if cl.Recovery().HostOnly {
		t.Error("cluster HostOnly with a shard still on hardware")
	}
}
