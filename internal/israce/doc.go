// Package israce reports whether the race detector is compiled in, so
// allocation-count tests can skip themselves under -race, whose
// instrumentation allocates.
package israce
