package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/vtime"
)

// ScalePoint is one measurement of the discovery-scaling experiment:
// how long the full dynamic-group-discovery cycle takes (one discovery
// round + interest gathering + group formation) as the neighborhood
// grows. The thesis's conclusion names this as future work —
// "performance testing during the dynamic group discovery in the social
// network on mobile environment ... to analyze the efficiency".
type ScalePoint struct {
	Peers int
	// Search is the full cold-start search time (inquiry + SDP +
	// interest gathering + grouping).
	Search time.Duration
	// Gather is the post-inquiry part only (SDP + interests +
	// grouping), the part that actually scales with peers.
	Gather time.Duration
	// Groups formed.
	Groups int
}

// RunDiscoveryScale measures the discovery cycle for each peer count.
// All peers share one interest so a single group forms with everyone.
func RunDiscoveryScale(scale vtime.Scale, peerCounts []int) ([]ScalePoint, error) {
	if scale.Factor() == 1 {
		scale = vtime.NewScale(1e-2)
	}
	out := make([]ScalePoint, 0, len(peerCounts))
	for _, n := range peerCounts {
		point, err := runScalePoint(scale, n)
		if err != nil {
			return nil, fmt.Errorf("harness: scale point %d: %w", n, err)
		}
		out = append(out, point)
	}
	return out, nil
}

func runScalePoint(scale vtime.Scale, peers int) (ScalePoint, error) {
	if peers < 1 {
		return ScalePoint{}, fmt.Errorf("need at least one peer")
	}
	builder := scenario.NewBuilder().WithScale(scale).WithSeed(int64(peers))
	// Peers on a tight grid, all inside one Bluetooth cell.
	for i := 0; i < peers; i++ {
		builder.AddPeer(scenario.PeerSpec{
			Member:    ids.MemberID(fmt.Sprintf("peer-%03d", i)),
			Position:  geo.Pt(float64(i%4), float64(i/4)),
			Interests: []string{"football"},
		})
	}
	builder.AddPeer(scenario.PeerSpec{
		Member:    "active",
		Device:    "active-dev",
		Position:  geo.Pt(1.5, 1.5),
		Interests: []string{"football"},
	})
	d, err := builder.Build()
	if err != nil {
		return ScalePoint{}, err
	}
	defer d.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	active := d.MustPeer("active")

	sw := vtime.NewStopwatch(d.Env.Clock(), d.Env.Scale())
	if err := active.Daemon.RefreshNow(ctx); err != nil {
		return ScalePoint{}, err
	}
	if _, err := active.Client.RefreshGroups(ctx); err != nil {
		return ScalePoint{}, err
	}
	total := sw.Elapsed()
	groups := active.Client.Groups()
	if len(groups) == 0 {
		return ScalePoint{}, fmt.Errorf("no groups formed with %d peers", peers)
	}
	inquiry := d.Env.PHY(radio.Bluetooth).InquiryDuration
	gather := total - inquiry
	if gather < 0 {
		gather = 0
	}
	return ScalePoint{Peers: peers, Search: total, Gather: gather, Groups: len(groups)}, nil
}

// NeighborScalePoint is one row of the substrate-scaling experiment:
// the cost of one neighborhood query — the paper's scaling primitive,
// what every discovery round performs once per device — on the
// grid-indexed path versus the brute-force per-pair oracle, at a given
// world size.
type NeighborScalePoint struct {
	Devices int
	// GridPerQuery is the wall cost of one grid-indexed Neighbors call,
	// with the per-epoch world snapshot amortized over one query per
	// device (one discovery round).
	GridPerQuery time.Duration
	// BrutePerQuery is the same for the brute-force oracle.
	BrutePerQuery time.Duration
	// Speedup is BrutePerQuery / GridPerQuery.
	Speedup float64
	// AvgNeighbors is the mean neighborhood size, a density sanity
	// check.
	AvgNeighbors float64
}

// neighborScaleEpochs is how many distinct query epochs each point
// averages over; every epoch forces a fresh world snapshot, so the
// grid figure honestly includes the snapshot build cost.
const neighborScaleEpochs = 3

// RunNeighborScale measures neighbor-query cost at each world size. The
// world is a frozen-clock Bluetooth deployment at constant density
// (~50 m² per device, ≈6 devices per 10 m cell), so growing the device
// count grows the world, not the crowding — the regime where an O(n)
// scan per query turns a discovery round quadratic.
func RunNeighborScale(deviceCounts []int) ([]NeighborScalePoint, error) {
	out := make([]NeighborScalePoint, 0, len(deviceCounts))
	for _, n := range deviceCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: neighbor scale: need at least one device, got %d", n)
		}
		clk := vtime.NewManual(time.Unix(0, 0))
		env := radio.NewEnvironment(radio.WithClock(clk))
		devs, err := placeUniform(env, n, int64(n))
		if err != nil {
			return nil, err
		}

		point := NeighborScalePoint{Devices: n}
		var neighborSum int
		sw := vtime.NewStopwatch(vtime.Real(), vtime.Identity())
		for epoch := 0; epoch < neighborScaleEpochs; epoch++ {
			for _, id := range devs {
				neighborSum += len(env.Neighbors(id, radio.Bluetooth))
			}
			clk.Advance(time.Second)
		}
		point.GridPerQuery = sw.Elapsed() / time.Duration(neighborScaleEpochs*n)
		sw.Restart()
		for epoch := 0; epoch < neighborScaleEpochs; epoch++ {
			for _, id := range devs {
				_ = env.NeighborsBrute(id, radio.Bluetooth)
			}
			clk.Advance(time.Second)
		}
		point.BrutePerQuery = sw.Elapsed() / time.Duration(neighborScaleEpochs*n)
		if point.GridPerQuery > 0 {
			point.Speedup = float64(point.BrutePerQuery) / float64(point.GridPerQuery)
		}
		point.AvgNeighbors = float64(neighborSum) / float64(neighborScaleEpochs*n)
		out = append(out, point)
	}
	return out, nil
}

// placeUniform fills the environment with n static Bluetooth devices
// uniformly over a square sized for ~50 m² per device, seeded for
// reproducibility.
func placeUniform(env *radio.Environment, n int, seed int64) ([]ids.DeviceID, error) {
	rng := rand.New(rand.NewSource(seed))
	side := geoSide(n)
	devs := make([]ids.DeviceID, n)
	for i := range devs {
		devs[i] = ids.DeviceIDf("dev-%04d", i)
		at := geo.Pt(rng.Float64()*side, rng.Float64()*side)
		if err := env.Add(devs[i], mobility.Static{At: at}, radio.Bluetooth); err != nil {
			return nil, err
		}
	}
	return devs, nil
}

// newBuilder starts a deployment description on the given engine.
func newBuilder(e scenario.Engine) *scenario.Builder {
	b := scenario.NewBuilder()
	if e.DES {
		b.WithDES(e.Shards).WithDESWorkers(e.Workers)
	}
	return b
}

// sweepPool runs fn(i) for every i in [0, n) with at most width calls
// in flight: the goroutine-driven sweeps' device pool, sized so a
// sweep never needs one goroutine per device.
func sweepPool(n, width int, fn func(i int)) {
	width = min(width, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// serveReplies answers every message on c with reply until either side
// fails: the advertisement service of the goroutine-driven sweeps.
func serveReplies(ctx context.Context, c *netsim.Conn, reply []byte) {
	for {
		if _, err := c.Recv(ctx); err != nil {
			return
		}
		if c.Send(reply) != nil {
			return
		}
	}
}

// geoSide returns the square side holding n devices at ~50 m² each.
func geoSide(n int) float64 {
	side := 1.0
	for side*side < float64(n)*50 {
		side *= 1.1
	}
	return side
}

// FormatNeighborScale renders the substrate series as a table.
func FormatNeighborScale(points []NeighborScalePoint) string {
	header := []string{"Devices", "Grid/query", "Brute/query", "Speedup", "Avg neighbors"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			p.GridPerQuery.String(),
			p.BrutePerQuery.String(),
			fmt.Sprintf("%.1fx", p.Speedup),
			fmt.Sprintf("%.1f", p.AvgNeighbors),
		})
	}
	return FormatTable(header, rows)
}

// FormatDiscoveryScale renders the series as a table.
func FormatDiscoveryScale(points []ScalePoint) string {
	header := []string{"Peers", "Search (cold)", "Post-inquiry gather", "Groups"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Peers),
			fmt.Sprintf("%.1f s", p.Search.Seconds()),
			fmt.Sprintf("%.1f s", p.Gather.Seconds()),
			fmt.Sprintf("%d", p.Groups),
		})
	}
	return FormatTable(header, rows)
}
