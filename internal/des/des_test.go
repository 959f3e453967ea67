package des

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"gridvine/internal/simnet"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	sim := New()
	var order []int
	sim.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	sim.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	sim.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	n := sim.Run()
	if n != 3 {
		t.Fatalf("Run processed %d events", n)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if sim.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", sim.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		sim.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	sim := New()
	sim.Schedule(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sim.Schedule(5*time.Millisecond, func() {})
	})
	sim.Run()
}

func TestScheduleAfterFromCallback(t *testing.T) {
	sim := New()
	var fired time.Duration
	sim.Schedule(10*time.Millisecond, func() {
		sim.ScheduleAfter(15*time.Millisecond, func() { fired = sim.Now() })
	})
	sim.Run()
	if fired != 25*time.Millisecond {
		t.Errorf("fired at %v, want 25ms", fired)
	}
}

func TestScheduleAfterNegativeClamps(t *testing.T) {
	sim := New()
	ran := false
	sim.ScheduleAfter(-5*time.Millisecond, func() { ran = true })
	sim.Run()
	if !ran {
		t.Error("negative delay event did not run")
	}
	if sim.Now() != 0 {
		t.Errorf("Now = %v, want 0", sim.Now())
	}
}

func TestStep(t *testing.T) {
	sim := New()
	if sim.Step() {
		t.Error("Step on empty simulator should return false")
	}
	sim.Schedule(time.Millisecond, func() {})
	if !sim.Step() {
		t.Error("Step should process the event")
	}
	if sim.Steps() != 1 {
		t.Errorf("Steps = %d", sim.Steps())
	}
}

func TestServerFIFOQueueing(t *testing.T) {
	sim := New()
	srv := sim.Server("p")
	var finishes []time.Duration
	// Two 10ms jobs arriving at t=0 and t=2ms: the second must wait.
	sim.Schedule(0, func() {
		srv.Enqueue(10*time.Millisecond, func(start, finish time.Duration) {
			if start != 0 {
				t.Errorf("job1 start = %v", start)
			}
			finishes = append(finishes, finish)
		})
	})
	sim.Schedule(2*time.Millisecond, func() {
		srv.Enqueue(10*time.Millisecond, func(start, finish time.Duration) {
			if start != 10*time.Millisecond {
				t.Errorf("job2 start = %v, want 10ms", start)
			}
			finishes = append(finishes, finish)
		})
	})
	sim.Run()
	if len(finishes) != 2 || finishes[0] != 10*time.Millisecond || finishes[1] != 20*time.Millisecond {
		t.Errorf("finishes = %v", finishes)
	}
}

func TestServerIdleGap(t *testing.T) {
	sim := New()
	srv := sim.Server("p")
	sim.Schedule(0, func() { srv.Enqueue(time.Millisecond, nil) })
	sim.Schedule(10*time.Millisecond, func() {
		srv.Enqueue(time.Millisecond, func(start, _ time.Duration) {
			if start != 10*time.Millisecond {
				t.Errorf("start = %v, want 10ms (no queueing after idle)", start)
			}
		})
	})
	sim.Run()
}

func TestServerReuseSameID(t *testing.T) {
	sim := New()
	a := sim.Server("x")
	b := sim.Server("x")
	if a != b {
		t.Error("Server should return the same instance per id")
	}
	if a.ID() != "x" {
		t.Errorf("ID = %q", a.ID())
	}
}

func TestNegativeServiceClamps(t *testing.T) {
	sim := New()
	srv := sim.Server("p")
	sim.Schedule(0, func() {
		srv.Enqueue(-time.Second, func(start, finish time.Duration) {
			if start != finish {
				t.Error("negative service should clamp to zero")
			}
		})
	})
	sim.Run()
}

func TestReplaySingleQueryLatency(t *testing.T) {
	sim := New()
	rng := rand.New(rand.NewSource(1))
	cfg := ReplayConfig{
		Transit: simnet.ConstantLatency{D: 100 * time.Millisecond},
		Service: simnet.ConstantLatency{D: 10 * time.Millisecond},
		Rng:     rng,
	}
	queries := []QueryTrace{{
		Issuer:    "p0",
		Contacted: []string{"p1", "p2"},
		LocalWork: 5 * time.Millisecond,
	}}
	lat := Replay(sim, queries, []time.Duration{0}, cfg)
	sim.Run()
	// 2 hops × (100ms out + service + 100ms back) + LocalWork on the last:
	// hop1: 100+10+100 = 210ms ; hop2: 100+(10+5)+100 = 215ms ⇒ 425ms.
	want := 425 * time.Millisecond
	if lat[0] != want {
		t.Errorf("latency = %v, want %v", lat[0], want)
	}
}

func TestReplayQueueingAcrossQueries(t *testing.T) {
	// Two queries hitting the same destination at the same time must serialize
	// on its server.
	sim := New()
	rng := rand.New(rand.NewSource(1))
	cfg := ReplayConfig{
		Transit: simnet.ConstantLatency{D: 0},
		Service: simnet.ConstantLatency{D: 50 * time.Millisecond},
		Rng:     rng,
	}
	queries := []QueryTrace{
		{Issuer: "a", Contacted: []string{"dest"}},
		{Issuer: "b", Contacted: []string{"dest"}},
	}
	lat := Replay(sim, queries, []time.Duration{0, 0}, cfg)
	sim.Run()
	got := []time.Duration{lat[0], lat[1]}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if got[0] != 50*time.Millisecond || got[1] != 100*time.Millisecond {
		t.Errorf("latencies = %v, want [50ms 100ms]", got)
	}
}

func TestReplayEmptyContactedCompletesImmediately(t *testing.T) {
	sim := New()
	cfg := ReplayConfig{
		Transit: simnet.ConstantLatency{D: time.Second},
		Service: simnet.ConstantLatency{D: time.Second},
		Rng:     rand.New(rand.NewSource(1)),
	}
	lat := Replay(sim, []QueryTrace{{Issuer: "a"}}, []time.Duration{3 * time.Millisecond}, cfg)
	sim.Run()
	if lat[0] != 0 {
		t.Errorf("latency = %v, want 0 (query answered locally)", lat[0])
	}
}

func TestReplayMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths should panic")
		}
	}()
	Replay(New(), []QueryTrace{{}}, nil, ReplayConfig{})
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	arr := PoissonArrivals(10000, 10*time.Millisecond, rng)
	if len(arr) != 10000 {
		t.Fatalf("len = %d", len(arr))
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
		t.Error("arrivals not monotone")
	}
	mean := arr[len(arr)-1] / time.Duration(len(arr))
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("mean gap = %v, want ≈10ms", mean)
	}
}
