//go:build !amd64

package tensor

// Off amd64 the fast tier does not exist: hasFMAAsm gates
// FastMathSupported to false, so SetFastMath(true) never dispatches and
// the entry points below are unreachable. They exist only so the
// fast-tier wrappers compile on every architecture.
const hasFMAAsm = false

var cpuFastTierOK = false

func fmaMicro4x8(d0, d1, d2, d3, a0, a1, a2, a3, p *float32, kn int) {
	panic("tensor: FMA kernel called on non-amd64")
}

func fmaMicro1x8(d, a, p *float32, kn int) {
	panic("tensor: FMA kernel called on non-amd64")
}

func fmaMicroP4x8(d0, d1, d2, d3, pa, p *float32, kn int) {
	panic("tensor: FMA kernel called on non-amd64")
}
