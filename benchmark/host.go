package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostBlock describes the machine and build a record was taken on. The
// probe fields are filled by traced runs only.
type hostBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	GitSHA     string  `json:"git_sha"`
	LLCMiB     float64 `json:"llc_mib"`

	ArrayMiB     float64 `json:"array_mib,omitempty"`
	TriadGBs     float64 `json:"triad_gbs,omitempty"`
	CopyGBs      float64 `json:"copy_gbs,omitempty"`
	SpinBeforeNS float64 `json:"spin_before_ns,omitempty"`
	SpinAfterNS  float64 `json:"spin_after_ns,omitempty"`
	// RooflineOmitted is set when the probe arrays had to be smaller than
	// four last-level caches: the bandwidth then flatters the host and no
	// roofline share is derived from it.
	RooflineOmitted bool `json:"roofline_omitted,omitempty"`
}

func newHostBlock() hostBlock {
	return hostBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		GitSHA: gitSHA(), LLCMiB: float64(llcBytes()) / (1 << 20),
	}
}

// gitSHA is the revision the binary was built from, as the Go toolchain
// stamped it; "unknown" outside a git checkout.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// llcBytes is the size of the largest cache sysfs reports for cpu0, or 0
// when sysfs has none.
func llcBytes() int64 {
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var llc int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if n := parseCacheSize(strings.TrimSpace(string(b))); n > llc {
			llc = n
		}
	}
	return llc
}

// parseCacheSize reads sysfs cache sizes such as "48K" or "260M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// availableBytes reads MemAvailable from /proc/meminfo; 0 when unknown.
func availableBytes() int64 {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "MemAvailable:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// probeArrayLen picks the probe's array length in float64s: four
// last-level caches each, the size below which a bandwidth figure still
// contains cache hits. Three such arrays must fit in a quarter of the
// available memory; if they do not, the arrays shrink and ok is false.
func probeArrayLen(llc, avail int64) (n int, ok bool) {
	const fallbackLLC = 32 << 20
	if llc <= 0 {
		llc = fallbackLLC
	}
	want := 4 * llc
	if avail > 0 && 3*want > avail/4 {
		return int(avail / 4 / 3 / 8), false
	}
	return int(want / 8), true
}

// bandwidthProbe measures single-thread copy (a[i] = b[i]) and triad
// (a[i] = b[i] + s·c[i]) bandwidth over arrays of n float64s, best of
// passes, counting 16 and 24 bytes per element as STREAM does.
func bandwidthProbe(n, passes int) (copyGBs, triadGBs float64) {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := func(bytesPerElem float64, kernel func()) float64 {
		top := 0.0
		for p := 0; p < passes; p++ {
			t0 := time.Now()
			kernel()
			if gbs := bytesPerElem * float64(n) / time.Since(t0).Seconds() / 1e9; gbs > top {
				top = gbs
			}
		}
		return top
	}
	copyGBs = best(16, func() { copy(a, b) })
	triadGBs = best(24, func() {
		const s = 3.0
		// Re-slicing to a common length lets the compiler drop the
		// bounds checks from the loop.
		b, c := b[:len(a)], c[:len(a)]
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
	})
	sink = a[n/2]
	return copyGBs, triadGBs
}

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink float64

// spinNS times a dependent floating-point chain that touches no memory:
// nanoseconds per multiply-add. It moves only when the core's clock or
// its share of the physical core does, which is what makes it a noise
// detector for everything else in the run.
func spinNS() float64 {
	const iters = 40_000_000
	x, a, b := 1.0, 0.999999, 1e-6
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x = x*a + b
	}
	ns := float64(time.Since(t0).Nanoseconds()) / iters
	sink = x
	return ns
}

// noisy reports whether two spin readings differ by more than a quarter.
func noisy(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi > 1.25*lo
}

// probeHost takes the bandwidth probe and the first spin reading, and
// releases the arrays before anything else is measured.
func probeHost(h *hostBlock) {
	h.SpinBeforeNS = spinNS()
	n, ok := probeArrayLen(int64(h.LLCMiB*(1<<20)), availableBytes())
	h.RooflineOmitted = !ok
	h.ArrayMiB = float64(n) * 8 / (1 << 20)
	h.CopyGBs, h.TriadGBs = bandwidthProbe(n, 2)
	releaseMemory()
}
