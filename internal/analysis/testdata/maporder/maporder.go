// Fixture for the maporder analyzer: order-sensitive accumulation
// over randomized map iteration is a violation; the collect-then-sort
// idiom is the one escape.
package fixture

import "sort"

// SumWeights folds floats in map order: the sum's low bits depend on
// the randomized iteration order.
func SumWeights(w map[string]float64) float64 {
	var sum float64
	for _, v := range w {
		sum += v // want "floating-point accumulation inside map iteration"
	}
	return sum
}

// Collect appends in map order without sorting afterwards.
func Collect(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want "append inside map iteration"
	}
	return out
}

// SortedKeys is the sanctioned idiom: collect, then sort. No finding.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AnnotatedSum claims order independence in a comment above the
// range: there is no site-level waiver, so it is still flagged.
func AnnotatedSum(w map[string]float64) float64 {
	var sum float64
	// the sum is claimed order-independent here
	for _, v := range w {
		sum += v // want "floating-point accumulation inside map iteration"
	}
	return sum
}

// IntCount is not flagged: integer addition is exactly commutative.
func IntCount(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
