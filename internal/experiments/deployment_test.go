package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func constant(d time.Duration) func() time.Duration {
	return func() time.Duration { return d }
}

// TestReplay pins the queueing semantics EXP-A's latency figures rest on.
func TestReplay(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name             string
		routes           [][]string
		arrivals         []time.Duration
		transit, service time.Duration
		want             []time.Duration
		wantEvents       int
	}{
		{
			// 2 hops × (100ms out + 10ms service + 100ms back).
			name:       "latency sums transit plus service plus transit per hop",
			routes:     [][]string{{"p1", "p2"}},
			arrivals:   []time.Duration{0},
			transit:    100 * ms,
			service:    10 * ms,
			want:       []time.Duration{420 * ms},
			wantEvents: 1 + 3*2,
		},
		{
			name:       "queries sharing a peer queue first come first served",
			routes:     [][]string{{"dest"}, {"dest"}},
			arrivals:   []time.Duration{0, 2 * ms},
			transit:    0,
			service:    10 * ms,
			want:       []time.Duration{10 * ms, 18 * ms},
			wantEvents: 2 * (1 + 3),
		},
		{
			name:       "an idle peer serves at once",
			routes:     [][]string{{"dest"}, {"dest"}},
			arrivals:   []time.Duration{0, 10 * ms},
			transit:    0,
			service:    ms,
			want:       []time.Duration{ms, ms},
			wantEvents: 2 * (1 + 3),
		},
		{
			// Both requests reach the peer at 0; the one scheduled first is
			// served first.
			name:       "events at equal times run in schedule order",
			routes:     [][]string{{"dest"}, {"dest"}},
			arrivals:   []time.Duration{0, 0},
			transit:    0,
			service:    50 * ms,
			want:       []time.Duration{50 * ms, 100 * ms},
			wantEvents: 2 * (1 + 3),
		},
		{
			// Disjoint first hops are served side by side; both requests
			// then reach dest at 50ms and the second waits for the first.
			name:       "queries meeting at a shared peer serialize on its queue",
			routes:     [][]string{{"a", "dest"}, {"b", "dest"}},
			arrivals:   []time.Duration{0, 0},
			transit:    0,
			service:    50 * ms,
			want:       []time.Duration{100 * ms, 150 * ms},
			wantEvents: 2 * (1 + 3*2),
		},
		{
			name:       "an empty route completes at its arrival",
			routes:     [][]string{nil},
			arrivals:   []time.Duration{3 * ms},
			transit:    time.Second,
			service:    time.Second,
			want:       []time.Duration{0},
			wantEvents: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, events := replay(c.routes, c.arrivals, constant(c.transit), constant(c.service))
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("latencies = %v, want %v", got, c.want)
			}
			if events != c.wantEvents {
				t.Errorf("events = %d, want %d", events, c.wantEvents)
			}
		})
	}
}

// TestReplayWANGolden replays fixed synthetic routes (50 queries over 8
// peers, 0 to 3 hops each) under the default WAN model with seed 1. The
// latencies are the ones the replay produced before it was folded into this
// package, so any change to the order of draws or events shows up here
// without going through product routing.
func TestReplayWANGolden(t *testing.T) {
	routes := make([][]string, 50)
	for i := range routes {
		for k := 0; k < i%4; k++ {
			routes[i] = append(routes[i], fmt.Sprintf("p%d", (i*5+k*3)%8))
		}
	}
	got, events := replayWAN(routes, DeploymentConfig{}.withDefaults(), rand.New(rand.NewSource(1)))
	want := []time.Duration{
		0, 221230578, 455279863, 1342128418, 0,
		113820025, 12839038291, 659241219, 0, 328983917,
		20433554281, 1157860994, 0, 958117212, 1077426700,
		1947790864, 0, 162776590, 5449104603, 1461867722,
		0, 234038099, 674157292, 7262620137, 0,
		198034534, 692597632, 11979310852, 0, 350241350,
		423041179, 1301917503, 0, 3975928983, 1509568465,
		5703108183, 0, 524539502, 7123701168, 2329969200,
		0, 464948529, 6099706182, 765721566, 0,
		1740558817, 645810918, 6931718082, 0, 2650682966,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("latencies drifted from the recorded replay:\n got %v\nwant %v", got, want)
	}
	if events != 269 {
		t.Errorf("events = %d, want 269", events)
	}
}

func TestPoissonArrivals(t *testing.T) {
	arr := poissonArrivals(10000, 10*time.Millisecond, rand.New(rand.NewSource(5)))
	if len(arr) != 10000 {
		t.Fatalf("len = %d", len(arr))
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
		t.Error("arrivals not monotone")
	}
	// The first arrival is one drawn gap after 0.
	if first := exponential(rand.New(rand.NewSource(5)), 10*time.Millisecond); arr[0] != first {
		t.Errorf("first arrival at %v, want the first drawn gap %v", arr[0], first)
	}
	mean := arr[len(arr)-1] / time.Duration(len(arr))
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("mean gap = %v, want ≈10ms", mean)
	}
}

func TestLogNormalLatencyMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	samples := make([]time.Duration, 20001)
	for i := range samples {
		samples[i] = logNormal(rng, 100*time.Millisecond, 1.0)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[len(samples)/2]
	// Median of a log-normal is exp(mu); allow 10% sampling error.
	lo, hi := 90*time.Millisecond, 110*time.Millisecond
	if med < lo || med > hi {
		t.Errorf("empirical median %v outside [%v,%v]", med, lo, hi)
	}
}

func TestLogNormalHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	over1s := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if logNormal(rng, 100*time.Millisecond, 1.0) > time.Second {
			over1s++
		}
	}
	// P(X > 10×median) = P(Z > ln10) ≈ 1.07% for sigma=1.
	frac := float64(over1s) / n
	if frac < 0.003 || frac > 0.03 {
		t.Errorf("tail fraction = %v, want ≈0.01", frac)
	}
}

func TestExponentialLatencyMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += exponential(rng, 15*time.Millisecond)
	}
	mean := sum / n
	if mean < 14*time.Millisecond || mean > 16*time.Millisecond {
		t.Errorf("empirical mean %v, want ≈15ms", mean)
	}
}
