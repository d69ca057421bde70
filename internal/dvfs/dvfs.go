// Package dvfs models the dynamic voltage and frequency scaling regime of
// the paper (Table II): six operating points between 760 mV and 400 mV in
// a 45 nm process, with the per-bit SRAM failure probability attached to
// each point.
//
// At the six tabulated points the values are exact (they are the inputs
// the paper simulates with). Between points, frequency follows a
// 20-FO4-per-cycle model with the FO4 delay interpolated through the
// tabulated (voltage, frequency) pairs, and the failure probability
// follows the smooth curve in package sram.
package dvfs

import (
	"fmt"
	"math"
)

// OperatingPoint is one DVFS configuration: a supply voltage, the core
// frequency achievable at that voltage, and the per-bit SRAM failure
// probability of a conventional 6T cell.
type OperatingPoint struct {
	VoltageMV int     // supply voltage in millivolts
	FreqMHz   float64 // core clock in MHz
	PfailBit  float64 // per-bit failure probability of a 6T cell
}

// Voltage returns the supply voltage in volts.
func (p OperatingPoint) Voltage() float64 { return float64(p.VoltageMV) / 1000 }

// Period returns the clock period in nanoseconds.
func (p OperatingPoint) Period() float64 { return 1e3 / p.FreqMHz }

// String implements fmt.Stringer.
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%dmV/%.0fMHz", p.VoltageMV, p.FreqMHz)
}

// Table II of the paper, verbatim. Nominal (760 mV) has Pfail 0: at that
// voltage a 32 KB array meets the 99.9% yield target with margin.
var table = []OperatingPoint{
	{VoltageMV: 760, FreqMHz: 1607, PfailBit: 0},
	{VoltageMV: 560, FreqMHz: 1089, PfailBit: 1e-4},
	{VoltageMV: 520, FreqMHz: 958, PfailBit: math.Pow(10, -3.5)},
	{VoltageMV: 480, FreqMHz: 818, PfailBit: 1e-3},
	{VoltageMV: 440, FreqMHz: 638, PfailBit: math.Pow(10, -2.5)},
	{VoltageMV: 400, FreqMHz: 475, PfailBit: 1e-2},
}

// OperatingPoints returns the paper's DVFS table (Table II) ordered from
// the highest voltage to the lowest. The slice is a copy; callers may
// modify it freely.
func OperatingPoints() []OperatingPoint {
	out := make([]OperatingPoint, len(table))
	copy(out, table)
	return out
}

// LowVoltagePoints returns the operating points in the paper's region of
// interest (560 mV down to 400 mV), where Pfail rises from 1e-4 to 1e-2.
func LowVoltagePoints() []OperatingPoint {
	out := make([]OperatingPoint, 0, len(table)-1)
	for _, p := range table {
		if p.VoltageMV < 760 {
			out = append(out, p)
		}
	}
	return out
}

// Nominal returns the 760 mV operating point: the Vccmin of a conventional
// 32 KB 6T cache at 99.9% yield, used as the energy baseline throughout
// the paper.
func Nominal() OperatingPoint { return table[0] }

// PointAt returns the tabulated operating point for the given voltage.
func PointAt(voltageMV int) (OperatingPoint, error) {
	for _, p := range table {
		if p.VoltageMV == voltageMV {
			return p, nil
		}
	}
	return OperatingPoint{}, fmt.Errorf("dvfs: no operating point at %dmV (table covers %v)", voltageMV, Voltages())
}

// Voltages lists the tabulated voltages in millivolts, highest first.
func Voltages() []int {
	vs := make([]int, len(table))
	for i, p := range table {
		vs[i] = p.VoltageMV
	}
	return vs
}

// FO4PerCycle is the paper's cycle-time assumption: core frequencies are
// estimated assuming 20 FO4 delays per cycle.
const FO4PerCycle = 20

// FO4DelayPS returns the fan-out-of-4 inverter delay (picoseconds) at the
// given supply voltage, derived from the tabulated frequencies via
// period = 20 * FO4. Between tabulated voltages the delay is interpolated
// piecewise-linearly in 1/f; outside the table it is extrapolated from
// the nearest segment. This stands in for the paper's HSpice FO4
// measurements.
func FO4DelayPS(voltageMV float64) float64 {
	// FO4 = period / 20; period in ps = 1e6 / MHz.
	fo4At := func(p OperatingPoint) float64 { return 1e6 / p.FreqMHz / FO4PerCycle }

	// table is sorted descending by voltage.
	if voltageMV >= float64(table[0].VoltageMV) {
		return extrapolate(table[1], table[0], voltageMV, fo4At)
	}
	last := len(table) - 1
	if voltageMV <= float64(table[last].VoltageMV) {
		return extrapolate(table[last], table[last-1], voltageMV, fo4At)
	}
	for i := 0; i < last; i++ {
		hi, lo := table[i], table[i+1]
		if voltageMV <= float64(hi.VoltageMV) && voltageMV >= float64(lo.VoltageMV) {
			return lerp(float64(lo.VoltageMV), fo4At(lo), float64(hi.VoltageMV), fo4At(hi), voltageMV)
		}
	}
	// Unreachable: the scans above cover the whole real line.
	return fo4At(table[last])
}

// FreqMHzAt returns the core frequency at an arbitrary voltage using the
// 20-FO4 cycle model. At tabulated voltages this reproduces Table II
// exactly.
func FreqMHzAt(voltageMV float64) float64 {
	return 1e6 / (FO4PerCycle * FO4DelayPS(voltageMV))
}

func lerp(x0, y0, x1, y1, x float64) float64 {
	if x1 == x0 {
		return y0
	}
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

func extrapolate(a, b OperatingPoint, v float64, f func(OperatingPoint) float64) float64 {
	return lerp(float64(a.VoltageMV), f(a), float64(b.VoltageMV), f(b), v)
}

// ScaleDynamicEnergy returns the factor by which per-event dynamic energy
// changes when moving from the reference voltage to v: dynamic energy per
// switching event scales with V² (the paper's assumption: "dynamic power
// scales quadratically with supply voltage and linearly with frequency",
// i.e. energy per event ∝ V²).
func ScaleDynamicEnergy(v, ref OperatingPoint) float64 {
	r := v.Voltage() / ref.Voltage()
	return r * r
}

// ScaleStaticPower returns the factor by which static (leakage) power
// changes when moving from the reference voltage to v: the paper assumes
// static power scales linearly with supply voltage.
func ScaleStaticPower(v, ref OperatingPoint) float64 {
	return v.Voltage() / ref.Voltage()
}
