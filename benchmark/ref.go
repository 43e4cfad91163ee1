package main

import (
	"sync"
	"time"

	"repro/internal/lattice"
)

// The reference kernel: a textbook D3Q19 BGK pull-stream-and-collide step
// on a small periodic box, written here and sharing no code with the
// solver (only the lattice's velocity and weight tables). It is the
// benchmark's yardstick for the host, not for the solver: run between ops,
// its rate says how fast this machine was just then for this kind of work
// — nineteen strided streams in, arithmetic, nineteen streams out — and a
// change to the solver cannot move it.

const (
	refEdge  = 40 // cells per edge: 64 000 cells, 19 MB for both fields
	refSteps = 6  // steps per reading
	refTau   = 0.8
	// refNominal is the reference kernel's rate, in MFlup/s, on the host
	// the timings are normalised to: what this kernel reads on the
	// benchmark's home host (2 vCPUs of a 2.1 GHz Xeon) when nothing else
	// competes for it. A reading of half this doubles the host factor.
	refNominal = 5.0
)

// refLattice is one reference problem: two fields in structure-of-arrays
// layout and the periodic neighbour tables.
type refLattice struct {
	m    *lattice.Model
	f, g [][]float64
	prev [3][]int32 // prev[d][i] = i-1 wrapped; next[d][i] = i+1 wrapped
	next [3][]int32
}

func newRefLattice() *refLattice {
	m := lattice.D3Q19()
	n := refEdge
	r := &refLattice{m: m}
	feq := make([]float64, m.Q)
	m.Equilibrium(1, 0.02, -0.01, 0.015, feq)
	for _, field := range []*[][]float64{&r.f, &r.g} {
		*field = make([][]float64, m.Q)
		for v := range *field {
			(*field)[v] = make([]float64, n*n*n)
			for i := range (*field)[v] {
				(*field)[v][i] = feq[v]
			}
		}
	}
	for d := 0; d < 3; d++ {
		r.prev[d], r.next[d] = make([]int32, n), make([]int32, n)
		for i := 0; i < n; i++ {
			r.prev[d][i], r.next[d][i] = int32((i+n-1)%n), int32((i+1)%n)
		}
	}
	return r
}

// shifted returns the coordinate a population moving with velocity
// component c arrived from: D3Q19 components are -1, 0 or +1.
func (r *refLattice) shifted(d int, i int, c int) int {
	switch c {
	case 1:
		return int(r.prev[d][i])
	case -1:
		return int(r.next[d][i])
	}
	return i
}

// step advances the reference problem by one time step.
func (r *refLattice) step() {
	m, n := r.m, refEdge
	var fl [19]float64
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				var rho, jx, jy, jz float64
				for v := 0; v < m.Q; v++ {
					sx := r.shifted(0, x, m.Cx[v])
					sy := r.shifted(1, y, m.Cy[v])
					sz := r.shifted(2, z, m.Cz[v])
					fv := r.f[v][(sx*n+sy)*n+sz]
					fl[v] = fv
					rho += fv
					jx += float64(m.Cx[v]) * fv
					jy += float64(m.Cy[v]) * fv
					jz += float64(m.Cz[v]) * fv
				}
				ux, uy, uz := jx/rho, jy/rho, jz/rho
				usq := ux*ux + uy*uy + uz*uz
				idx := (x*n+y)*n + z
				for v := 0; v < m.Q; v++ {
					cu := float64(m.Cx[v])*ux + float64(m.Cy[v])*uy + float64(m.Cz[v])*uz
					feq := m.W[v] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*usq)
					r.g[v][idx] = fl[v] - (fl[v]-feq)/refTau
				}
			}
		}
	}
	r.f, r.g = r.g, r.f
}

// hostFactor is what a timing taken at a reference reading of ref MFlup/s
// is multiplied by to become the time the same work takes at the nominal
// host speed: below 1 when the host was slower than nominal, because the
// work would have been quicker there.
func hostFactor(ref float64) float64 { return ref / refNominal }

// refReading takes one reading of the reference kernel, in MFlup/s: the
// rate of one goroutine running refSteps steps on a problem of its own,
// while every other worker's goroutine runs beside it for the first half
// of them. A shared host takes capacity away unevenly — two busy threads
// may each run at half speed while a lone one keeps three quarters — and a
// multi-worker step, which alternates between parallel kernels and
// stretches where a worker waits for another, sits between the two cases;
// so does this reading. With one worker it is simply that worker's rate.
// The problems are built before the clock starts and dropped on return, so
// the collection that opens the next op takes their memory back first.
func refReading(workers int) float64 {
	lats := make([]*refLattice, workers)
	for i := range lats {
		lats[i] = newRefLattice()
	}
	const half = refSteps / 2
	var wg sync.WaitGroup
	for _, l := range lats[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < half; s++ {
				l.step()
			}
		}()
	}
	t0 := time.Now()
	for s := 0; s < half; s++ {
		lats[0].step()
	}
	wg.Wait()
	for s := half; s < refSteps; s++ {
		lats[0].step()
	}
	return float64(refSteps*refEdge*refEdge*refEdge) / time.Since(t0).Seconds() / 1e6
}
