// Package cpu holds the one x86 feature probe that the vector kernels
// in tensor and erasure dispatch on. It is resolved once at init and
// has no setter: a kernel package picks its instructions from these
// values alone.
package cpu
