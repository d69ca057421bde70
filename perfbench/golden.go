package main

// golden holds the sha256 of each workload's canonical output at the
// default seed: the figure grid's EvalCell JSON, the die campaign's
// dist rows, the hierarchy campaigns' results and every served reply
// body. A change meant only to make the program faster must leave all
// of them unchanged; a run whose output digest differs counts every
// operation of that iteration as failed.
var golden = map[string]string{
	"fig10":        "5d121a262ef05e5831117876ff3cf18351573548284b726f835c7ccb98e741a5",
	"die-campaign": "4e22aabf945867cfb1ec77929381030857bf82a39b357f62556ec249c41339ed",
	"hier-chaos":   "ee85e03d29e5704951c07fba6975dadfce0631e81d0697ef62be76d7fe065c6c",
	"serve-mix":    "62e90436d420b735aa5dffa3eddfc23769aa904faaffb42b9645970771675bea",
}
