package a

import (
	randv2 "math/rand/v2"

	"test/eventflow/event"
)

// Bad: a global math/rand/v2 draw inside a Schedule handler is as
// unreplayable as a v1 one.
func jitter(eng *event.Engine, at event.Time) {
	eng.Schedule(at+1, func(now event.Time) error {
		_ = randv2.IntN(3) // want "global math/rand/v2.IntN"
		return nil
	})
}
