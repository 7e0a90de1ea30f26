//go:build !amd64 || purego

package cpu

// Off amd64, and under the purego tag, no vector kernel is built.
const AVX, AVX2 = false, false
