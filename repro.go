// Package repro is a Go reproduction of Randles, Kale, Hammond, Gropp &
// Kaxiras, "Performance Analysis of the Lattice Boltzmann Model Beyond
// Navier-Stokes" (IPDPS 2013): a 3-D lattice Boltzmann solver with the
// standard D3Q19 and the higher-order D3Q39 discrete velocity models, a
// 1-D decomposed message-passing runtime, deep-halo ghost cells, the
// paper's full ladder of optimizations, its roofline performance model,
// and a discrete-event simulator that projects the solver's schedule onto
// the Blue Gene/P and Blue Gene/Q machine models to regenerate the paper's
// evaluation at scale.
//
// This package is the public façade: it re-exports the configuration and
// entry points a downstream user needs. The implementation lives in the
// internal packages (see DESIGN.md for the system inventory).
//
// Quick start:
//
//	res, err := repro.Run(repro.Config{
//		Model: repro.D3Q19(),
//		N:     repro.Dims{NX: 64, NY: 32, NZ: 32},
//		Tau:   0.8,
//		Steps: 100,
//		Opt:   repro.OptSIMD,
//		Ranks: 4, Threads: 2,
//		GhostDepth: 2,
//	})
//	fmt.Printf("%.1f MFlup/s\n", res.MFlups)
package repro

import (
	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
	"repro/internal/machine"
	"repro/internal/perfsim"
)

// Core solver types.
type (
	// Config describes one simulation; see core.Config for field docs.
	Config = core.Config
	// Result summarizes a completed run.
	Result = core.Result
	// OptLevel is a rung on the paper's optimization ladder.
	OptLevel = core.OptLevel
	// InitFunc provides the initial macroscopic state per lattice point.
	InitFunc = core.InitFunc
	// Dims is a 3-D box extent (z fastest).
	Dims = grid.Dims
	// Model is a discrete velocity lattice.
	Model = lattice.Model
)

// Optimization levels (cumulative), the x-axis of the paper's Fig. 8.
const (
	OptOrig = core.OptOrig
	OptGC   = core.OptGC
	OptDH   = core.OptDH
	OptCF   = core.OptCF
	OptLoBr = core.OptLoBr
	OptNBC  = core.OptNBC
	OptGCC  = core.OptGCC
	OptSIMD = core.OptSIMD
)

// Global boundary conditions (non-periodic domains).
type (
	// BoundarySpec assigns a condition to each of the six global faces;
	// see core.BoundarySpec for semantics.
	BoundarySpec = core.BoundarySpec
	// BoundaryFace is the condition on one global face.
	BoundaryFace = core.Face
	// BCKind identifies a face condition.
	BCKind = core.BCKind
)

// Boundary face kinds.
const (
	BCPeriodic       = core.BCPeriodic
	BCWall           = core.BCWall
	BCMovingWall     = core.BCMovingWall
	BCOutflow        = core.BCOutflow
	BCInlet          = core.BCInlet
	BCPressureOutlet = core.BCPressureOutlet
)

// Geometry subsystem (Config.Solid): voxelized solid masks over the
// global lattice, built programmatically or loaded from voxel files.
type Mask = geom.Mask

// MaskFromFunc builds a voxel mask by evaluating solid at every global
// lattice point.
func MaskFromFunc(d Dims, solid func(ix, iy, iz int) bool) *Mask {
	return geom.FromFunc(d, solid)
}

// CylinderZ returns a mask with a z-aligned circular cylinder (center
// (cx, cy), radius r) marked solid — the vortex-shedding obstacle.
func CylinderZ(d Dims, cx, cy, r float64) *Mask { return geom.CylinderZ(d, cx, cy, r) }

// LoadMask reads a voxel mask from a .csv or .raw file (see geom.Load).
func LoadMask(path string) (*Mask, error) { return geom.Load(path) }

// SaveMask writes a voxel mask to a .csv or .raw file.
func SaveMask(path string, m *Mask) error { return geom.Save(path, m) }

// Collision operators (Config.Collision). The zero CollisionSpec is the
// paper's BGK and keeps the specialized kernels bit-for-bit; TRT and MRT
// trade a generic per-cell kernel for stability at low viscosity (high
// Reynolds numbers).
type (
	// CollisionSpec selects and parameterizes the collision operator.
	CollisionSpec = collision.Spec
	// CollisionKind enumerates the operator families.
	CollisionKind = collision.Kind
)

// Collision operator kinds.
const (
	CollisionBGK = collision.BGK
	CollisionTRT = collision.TRT
	CollisionMRT = collision.MRT
)

// ParseCollision resolves an operator name ("bgk", "trt", "mrt").
func ParseCollision(name string) (CollisionKind, error) { return collision.ParseKind(name) }

// CavitySpec returns the lid-driven cavity boundary (walls on x and y,
// the high-y lid moving with speed u along +x, periodic z).
func CavitySpec(u float64) *BoundarySpec { return core.CavitySpec(u) }

// ChannelSpec returns a wall-bounded channel (no-slip y faces, the rest
// periodic); drive it with Config.Accel for Poiseuille flow.
func ChannelSpec() *BoundarySpec { return core.ChannelSpec() }

// InletChannelSpec returns an open flow-through channel: Zou-He velocity
// inlet at low x, unit-density zero-gradient outlet at high x (see
// BCPressureOutlet — a velocity-driven channel needs the pressure
// anchor), no-slip y walls, periodic z.
func InletChannelSpec(u float64, profile func(gx, gy, gz int) [3]float64) *BoundarySpec {
	return core.InletChannelSpec(u, profile)
}

// D3Q19 returns the standard 19-velocity lattice (Navier-Stokes regime).
func D3Q19() *Model { return lattice.D3Q19() }

// D3Q27 returns the full 27-velocity cubic lattice (library completeness;
// the "27 neighbors" prior art the paper's abstract cites).
func D3Q27() *Model { return lattice.D3Q27() }

// D3Q39 returns the 39-velocity Gauss-Hermite lattice (finite-Knudsen
// regime, 3rd-order equilibrium).
func D3Q39() *Model { return lattice.D3Q39() }

// ModelByName resolves "D3Q19"/"D3Q39" (case-insensitive forms accepted).
func ModelByName(name string) (*Model, error) { return lattice.ByName(name) }

// Run executes a simulation.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// ResolveThreads interprets a -threads style value: positive counts pass
// through, 0 means runtime.NumCPU()/ranks (floor 1), negatives error.
func ResolveThreads(threads, ranks int) (int, error) { return core.ResolveThreads(threads, ranks) }

// OptLevels lists all optimization levels in ladder order.
func OptLevels() []OptLevel { return core.Levels() }

// Decomposition is a Cartesian rank grid over the global box: the
// paper's 1-D slab is shape (P,1,1); 2-D pencils and 3-D blocks shrink
// the per-rank communication surface with P^(2/3).
type Decomposition = decomp.Cartesian

// ParseDecomp resolves a decomposition spec — "1d"/"2d"/"3d" (factored
// automatically, minimum communication surface) or an explicit
// "PxxPyxPz" grid — into the rank-grid shape for Config.Decomp.
func ParseDecomp(spec string, ranks int, n Dims) ([3]int, error) {
	d, err := decomp.ParseShape(spec, ranks, [3]int{n.NX, n.NY, n.NZ})
	if err != nil {
		return [3]int{}, err
	}
	return d.P, nil
}

// FactorDecomp returns the minimum-surface rank grid for ranks ranks
// using at most maxAxes decomposed axes (1 slab, 2 pencil, 3 block).
func FactorDecomp(ranks, maxAxes int, n Dims) ([3]int, error) {
	return decomp.Factor(ranks, maxAxes, [3]int{n.NX, n.NY, n.NZ})
}

// Performance-model façade (paper §III).
type (
	// Machine is a modeled compute platform (BG/P, BG/Q).
	Machine = machine.Machine
	// KernelSpec carries bytes/flops per lattice-point update.
	KernelSpec = machine.KernelSpec
	// Bound is the roofline evaluation of the paper's Eq. 5.
	Bound = machine.Bound
)

// BGP and BGQ return the paper's two platforms.
func BGP() Machine { return machine.BGP() }
func BGQ() Machine { return machine.BGQ() }

// MaxMFlups evaluates the attainable-performance model (Table II).
func MaxMFlups(m Machine, k KernelSpec) Bound { return machine.MaxMFlups(m, k) }

// Cluster-simulation façade.
type (
	// ClusterJob describes a paper-scale simulated run.
	ClusterJob = perfsim.Job
	// ClusterResult is its outcome.
	ClusterResult = perfsim.Result
)

// SimulateCluster projects the solver's schedule onto a machine model.
func SimulateCluster(j ClusterJob) (*ClusterResult, error) { return perfsim.Run(j) }
