package main

import (
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
)

// Every input the program sees is drawn here from the -seed. Each named
// use of the seed gets its own stream, so phases draw disjoint inputs and
// a change to one phase's length never shifts another phase's inputs.

func stream(seed int64, name string, i int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name + "/" + strconv.Itoa(i)))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

func sortedDraws(r *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = uniform(r, lo, hi)
	}
	sort.Float64s(xs)
	return xs
}

// flowInputs are the operating points of one design-flow repetition.
type flowInputs struct {
	// Fig. 9-a: chip powers (W) × laser powers (W).
	chips9a, lasers9a []float64
	// Fig. 9-b: one chip power, laser powers × heater powers (W).
	chip9b            float64
	lasers9b, heaters []float64
	// Fig. 10: laser powers compared with and without the heater at the
	// paper's 0.3 ratio.
	chip10   float64
	lasers10 []float64
	// Optimal-heater searches at (chip, laser) pairs.
	heaterChips, heaterLasers []float64
	// randomSeed seeds the random chip activity.
	randomSeed int64
	// Fig. 12 SNR scenarios, evaluated for each placement case × activity.
	snrChip, snrLaser float64
	// check is the point where the basis answer is compared with a direct
	// solve.
	check point
}

func newFlowInputs(seed int64) flowInputs {
	r := stream(seed, "flow", 0)
	in := flowInputs{
		chips9a:  sortedDraws(r, 4, 10, 35),
		lasers9a: sortedDraws(r, 7, 0.5e-3, 7e-3),
		chip9b:   uniform(r, 20, 30),
		lasers9b: sortedDraws(r, 4, 1e-3, 6e-3),
		chip10:   uniform(r, 20, 30),
		lasers10: sortedDraws(r, 6, 1e-3, 7e-3),
	}
	// 21 heater powers from 0 to 0.8 × the largest laser power: fine enough
	// that each row's optimum (near 0.3 × its laser power) is interior.
	top := 0.8 * in.lasers9b[len(in.lasers9b)-1]
	for j := 0; j <= 20; j++ {
		in.heaters = append(in.heaters, top*float64(j)/20)
	}
	for i := 0; i < 6; i++ {
		in.heaterChips = append(in.heaterChips, uniform(r, 15, 35))
		in.heaterLasers = append(in.heaterLasers, uniform(r, 1e-3, 6e-3))
	}
	in.randomSeed = r.Int64N(1 << 30)
	in.snrChip = uniform(r, 20, 28)
	in.snrLaser = uniform(r, 2.5e-3, 4.5e-3)
	in.check = drawPoint(r)
	return in
}

// point is one gradient query's operating point (uniform activity, driver
// power equal to the laser power).
type point struct {
	Chip float64 `json:"chip"`
	PV   float64 `json:"pvcsel"`
	PH   float64 `json:"pheater"`
}

func drawPoint(r *rand.Rand) point {
	pv := uniform(r, 1e-3, 6e-3)
	return point{Chip: uniform(r, 15, 35), PV: pv, PH: uniform(r, 0, 0.6*pv)}
}

// slot is one step of a phase: one key per client.
type slot [clients]point

// keyStream hands each client its i-th key of one phase. Every key is a
// fresh continuous draw from the phase's own stream, so no key repeats
// within or across phases and vcseld's query cache never hits. Slots are
// drawn lazily but in order, so a client's i-th key does not depend on how
// far the other client has got.
type keyStream struct {
	mu    sync.Mutex
	r     *rand.Rand
	slots []slot
}

// newKeyStream is the key stream of phase `phase` on daemon i.
func newKeyStream(seed int64, phase string, i int) *keyStream {
	return &keyStream{r: stream(seed, "unique/"+phase, i)}
}

func (k *keyStream) slot(i int) slot {
	k.mu.Lock()
	defer k.mu.Unlock()
	for len(k.slots) <= i {
		var s slot
		for c := range s {
			s[c] = drawPoint(k.r)
		}
		k.slots = append(k.slots, s)
	}
	return k.slots[i]
}

func (k *keyStream) key(client, i int) point { return k.slot(i)[client] }
