package a

import "time"

// ProbeResult carries results: a tainted value stored in one of its
// fields is a finding.
type ProbeResult struct{ N int64 }

// probe stores its parameter in a result field. The sink sits inside
// the helper, so callers are checked through its summary, which the
// module-wide Prepare phase computes.
func probe(n int64) ProbeResult { return ProbeResult{N: n} }

// Bad: the wall clock reaches the result field through the helper.
func Stamp() ProbeResult {
	return probe(time.Now().Unix()) // want "result field ProbeResult.N inside probe"
}
