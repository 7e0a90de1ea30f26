package gpu

import "time"

// HostCPU models the server CPU that the CPU-based selection baselines
// (CRAIG and k-Centers in Fig 4) run on. CPU-side selection must first
// move the candidate data from storage into host memory — the data
// movement NeSSA eliminates by selecting near-storage — and then pay
// the proxy forward pass and distance computations at CPU throughput.
type HostCPU struct {
	Name           string
	SustainedFLOPS float64 // dense f32 throughput across cores
	LoadBW         float64 // bytes/s from the drive into host DRAM (§4.4: 1.4 GB/s)
}

// DefaultHostCPU is a contemporary 16-core AVX-512 server CPU.
func DefaultHostCPU() HostCPU {
	return HostCPU{Name: "Xeon-16c", SustainedFLOPS: 400e9, LoadBW: 1.4e9}
}

// LoadTime reports the time to stage bytes of candidate data into host
// memory for selection.
func (c HostCPU) LoadTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / c.LoadBW * float64(time.Second))
}

// SelectionComputeTime reports the time for flops floating-point
// operations of selection math on the CPU.
func (c HostCPU) SelectionComputeTime(flops float64) time.Duration {
	if flops <= 0 {
		return 0
	}
	return time.Duration(flops / c.SustainedFLOPS * float64(time.Second))
}

// ln(1/0.1): stochastic-greedy candidate evaluations per element at
// ε = 0.1 (Mirzasoleiman et al. 2015).
const stochasticGreedyFactor = 2.302585

// proxyFwdFrac is the fraction of the target network's forward cost
// that the selection-side proxy forward pass costs (last stage +
// classifier head re-evaluated on cached activations).
const proxyFwdFrac = 0.05

// CRAIGSelectionFLOPs estimates the per-epoch selection cost of
// CPU-side CRAIG over n candidates selecting k medoids: a proxy
// forward pass to refresh last-layer gradients plus stochastic-greedy
// facility-location distance evaluations on gradDim-dimensional
// gradient proxies (3 FLOPs per dimension per evaluation).
func CRAIGSelectionFLOPs(n, k, gradDim int, targetFwdGFLOPs float64) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	fwd := float64(float64(n) * targetFwdGFLOPs * 1e9 * proxyFwdFrac)
	dist := float64(float64(n) * stochasticGreedyFactor * 3 * float64(gradDim))
	return fwd + dist
}

// KCentersSelectionFLOPs estimates per-epoch CPU k-Centers (greedy
// farthest-point, Sener & Savarese) over penultimate-layer feature
// embeddings: a forward pass to extract featDim-dimensional features
// plus the classic O(n·k·d) farthest-point sweep — each of the k
// selected centers requires one min-distance update scan over all n
// candidates. Because it clusters wide feature embeddings with a
// per-center full scan instead of C-dimensional gradient proxies with
// a stochastic scan, its cost dwarfs CRAIG's — which is why Fig 4
// shows it slowest.
func KCentersSelectionFLOPs(n, k, featDim int, targetFwdGFLOPs float64) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	fwd := float64(float64(n) * targetFwdGFLOPs * 1e9 * proxyFwdFrac)
	dist := float64(float64(n) * float64(k) * 3 * float64(featDim))
	return fwd + dist
}
