package main

// A target is the packet core a socket workload drives: the pepcd child
// (untraced runs) or the traced in-process replica (-trace 1). Both
// expose the same loopback addresses, so one workload's code serves both.

import (
	"time"
)

type target interface {
	gtpuAddr() string
	n4Addr() string
	// cpu is the serving process's CPU time so far.
	cpu() (time.Duration, error)
	// peakRSSMB is its resident-memory high-water mark.
	peakRSSMB() (float64, error)
	// stats reads the slice's forwarded, dropped and missed counters.
	stats() (statsLine, error)
	// ok reports whether the target is still serving.
	ok() bool
	stop()
}

func (d *daemon) gtpuAddr() string { return d.gtpu }
func (d *daemon) n4Addr() string   { return d.n4 }
func (d *daemon) ok() bool         { return d.alive() }

// launcher starts a fresh target serving N4 whose uplink egress goes to
// sgi.
type launcher func(sgi string) (target, error)

// pepcdLauncher runs the shipped daemon as operators run it: one slice,
// one rx/tx queue.
func pepcdLauncher(bin string) launcher {
	return func(sgi string) (target, error) {
		d, err := startDaemon(bin, sgi, "-slices", "1", "-rxqueues", "1")
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// cleanup runs deferred teardown steps in reverse order.
type cleanup []func()

func (c *cleanup) add(f func()) { *c = append(*c, f) }

func (c *cleanup) run() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}
