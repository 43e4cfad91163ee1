package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/lattice"
)

// deadBits is the sentinel written into the slots a packed field leaves
// out: a NaN, so a value read from one poisons whatever it reaches, with
// a payload nothing else here writes.
const deadBits = 0x7ff8_dead_0bad_f00d

// packedRun is what one rank leaves behind after stepping: its owned
// block, its force series, and whether every dead slot of its classic
// fields still holds the sentinel.
type packedRun struct {
	block  []float64
	forces []float64
	packed bool // the fields were packed (len(Data) < Q·cells)
	dead   int  // sentinels overwritten (classic fields only)
	slots  int  // sentinels written
}

// stepRanks runs cfg rank by rank. With classic set it allocates every
// field whole, fills every slot outside a velocity's live planes
// (LivePlanes, asked directly) with the sentinel, steps, and counts the
// sentinels that did not survive.
func stepRanks(t *testing.T, cfg Config, classic bool) []packedRun {
	t.Helper()
	testClassicFields = classic
	defer func() { testClassicFields = false }()
	out := make([]packedRun, cfg.Ranks)
	onRanks(t, cfg, func(cs *cartStepper) {
		run := &out[cs.r.ID]
		live := LivePlanes(cs.model.Cx, cs.own[0], cs.w, cs.k, cs.cfg.Boundary.BoundedAxes()[0], cs.cfg.Opt, false)
		plane := cs.d.PlaneCells()
		fields := []*grid.Field{cs.f, cs.fadv}
		run.packed = len(cs.f.Data) < cs.model.Q*cs.d.Cells()
		dead := func(visit func(slot *float64)) {
			for _, f := range fields {
				for v, p := range live {
					blk := f.V(v)
					for i := range blk[:p.Lo*plane] {
						visit(&blk[i])
					}
					for i := range blk[p.Hi*plane:] {
						visit(&blk[p.Hi*plane+i])
					}
				}
			}
		}
		if classic {
			dead(func(slot *float64) { *slot = math.Float64frombits(deadBits); run.slots++ })
		}
		if bad := cs.initField(); bad != 0 {
			t.Fatalf("init failed at cell %d", bad-1)
		}
		cs.run()
		if classic {
			dead(func(slot *float64) {
				if math.Float64bits(*slot) != deadBits {
					run.dead++
				}
			})
		}
		run.block, run.forces = cs.ownedBlock(), cs.forceSer
	})
	return out
}

// TestPackedFieldsTouchOnlyLivePlanes: on every configuration LivePlanes
// packs, nothing touches a slot outside a velocity's live planes. The
// classic layout with a NaN sentinel in each of those slots steps with
// every sentinel intact (nothing wrote one), and its owned field and
// force series equal the packed run's bit for bit (nothing read one: a
// read NaN reaches the owned cells). Both lattices, 1, 2 and 3 slab
// ranks, every ghost-cell rung (GC-C's split path and the SIMD sweep
// among them), and masked runs with a body force and the
// momentum-exchange forces.
func TestPackedFieldsTouchOnlyLivePlanes(t *testing.T) {
	for _, m := range []*lattice.Model{lattice.D3Q19(), lattice.D3Q39()} {
		n := grid.Dims{NX: 6 * m.MaxSpeed, NY: 10, NZ: 7}
		var cases []Config
		for ranks := 1; ranks <= 3; ranks++ {
			for _, opt := range Levels()[1:] { // every ghost-cell rung
				cases = append(cases, Config{Model: m, N: n, Tau: 0.8, Steps: 4, Opt: opt, Ranks: ranks, Threads: 2, Init: waveInit(n)})
			}
		}
		for _, opt := range []OptLevel{OptGCC, OptSIMD} {
			cases = append(cases, Config{Model: m, N: n, Tau: 0.8, Steps: 4, Opt: opt, Ranks: 2, Threads: 1, Init: waveInit(n),
				Solid: noiseMask(n, 7), Accel: [3]float64{2e-5, -1e-5, 0}, MeasureForces: true})
		}
		for _, cfg := range cases {
			name := fmt.Sprintf("%s %s %d ranks masked=%v", m.Name, cfg.Opt, cfg.Ranks, cfg.Solid != nil)
			classic, packed := stepRanks(t, cfg, true), stepRanks(t, cfg, false)
			for r := range classic {
				c, p := classic[r], packed[r]
				if c.packed || !p.packed {
					t.Fatalf("%s rank %d: classic run packed %v, packed run packed %v", name, r, c.packed, p.packed)
				}
				if c.slots == 0 || c.dead != 0 {
					t.Errorf("%s rank %d: %d of %d dead slots written", name, r, c.dead, c.slots)
				}
				for i := range c.block {
					if math.Float64bits(c.block[i]) != math.Float64bits(p.block[i]) {
						t.Errorf("%s rank %d: owned value %d is %v with sentinels, %v packed (want the same bits)", name, r, i, c.block[i], p.block[i])
						break
					}
				}
				if len(c.forces) != len(p.forces) {
					t.Fatalf("%s rank %d: %d force entries with sentinels, %d packed", name, r, len(c.forces), len(p.forces))
				}
				for i := range c.forces {
					if math.Float64bits(c.forces[i]) != math.Float64bits(p.forces[i]) {
						t.Errorf("%s rank %d: force entry %d is %v with sentinels, %v packed", name, r, i, c.forces[i], p.forces[i])
						break
					}
				}
			}
		}
	}
}
