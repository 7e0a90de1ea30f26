package e2e

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"nessa/internal/tensor"
)

// Env is the environment block printed with every result, so a number
// is never read without the host it was taken on.
type Env struct {
	NumCPU        int    `json:"nproc"`
	GoMaxProcs    int    `json:"gomaxprocs"`
	EffectiveCPUs int    `json:"effective_cpus"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	KernelTier    string `json:"kernel_tier"`
	Workers       int    `json:"workers"`
	Seed          uint64 `json:"seed"`
	Reps          int    `json:"reps"`
	// DegradedHost is true when the host cannot run Workers goroutines
	// at once: timings then describe a serial run and parallel.speedup
	// is withheld (printed as 0).
	DegradedHost bool `json:"degraded_host"`
}

// CurrentEnv describes this process's host.
func CurrentEnv(seed uint64, reps int) Env {
	eff := effectiveCPUs()
	w := Workers()
	return Env{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), EffectiveCPUs: eff,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), KernelTier: kernelTier(),
		Workers: w, Seed: seed, Reps: reps,
		DegradedHost: eff < w || eff < 2,
	}
}

func kernelTier() string {
	if tensor.FastMathActive() {
		return "fast"
	}
	return "bit-exact"
}

// effectiveCPUs is the parallelism the process can really use: the
// smallest of the visible CPUs, GOMAXPROCS and the cgroup CPU quota
// (which this Go version's scheduler does not see).
func effectiveCPUs() int {
	eff := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < eff {
		eff = g
	}
	if buf, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(buf))
		if len(f) == 2 && f[0] != "max" {
			quota, err1 := strconv.ParseFloat(f[0], 64)
			period, err2 := strconv.ParseFloat(f[1], 64)
			if err1 == nil && err2 == nil && period > 0 {
				if q := int(math.Ceil(quota / period)); q >= 1 && q < eff {
					eff = q
				}
			}
		}
	}
	return eff
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
