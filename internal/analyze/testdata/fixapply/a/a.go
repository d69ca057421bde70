// Package a holds detflow findings whose fix is one local rewrite:
// sort the map's keys, or draw from the seeded generator already in
// scope. fixtures.golden pins what the suite reports here.
package a

import (
	"fmt"
	"math/rand"
)

// Report prints a map in iteration order; collecting and sorting the
// keys first would fix it.
func Report(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Pick mixes a seeded generator with the global one; drawing from r
// in the stray call would fix it.
func Pick(r *rand.Rand, n int) int {
	if n <= 0 {
		return r.Intn(1)
	}
	return rand.Intn(n)
}
