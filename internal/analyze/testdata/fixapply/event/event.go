// Package event is the eventflow counterpart of package a: the import
// path tail is "event", so the miniature Port/Time types here match
// eventflow's type scoping. The handler's map range is both an
// eventflow and a detflow finding; sorting the keys fixes both.
package event

import (
	"fmt"
)

// Time and Port stand in for the real kernel types.
type Time int64

// Port carries the OnRecv hook that marks its literal as a handler.
type Port struct {
	OnRecv func(msg string, at Time) error
}

// Wire registers a handler that walks a map in iteration order;
// collecting and sorting the keys first would fix it.
func Wire(p *Port, stats map[string]int) {
	p.OnRecv = func(msg string, at Time) error {
		for k, v := range stats {
			fmt.Println(k, v)
		}
		return nil
	}
}
