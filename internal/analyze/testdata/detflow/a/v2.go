package a

import randv2 "math/rand/v2"

// Good: math/rand/v2 generators built from an explicit seed replay bit
// for bit; only the v2 package-level draws share global state.
func DrawSeededV2(seed uint64) int {
	r := randv2.New(randv2.NewPCG(seed, seed))
	return r.IntN(10)
}

func DrawChaCha8(seed [32]byte) uint64 {
	return randv2.New(randv2.NewChaCha8(seed)).Uint64()
}
