package main

// Running the shipped daemon: launch pepcd as a child, wait until it
// serves, read its stats line, its CPU time and its resident memory, and
// stop it.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one running pepcd child.
type daemon struct {
	cmd   *exec.Cmd
	s1ap  string // S1AP-over-UDP address
	gtpu  string // GTP-U address
	n4    string // N4 (PFCP) address
	sgi   string // SGi next-hop the daemon sends uplink to
	ready chan struct{}
	done  chan struct{}

	mu    sync.Mutex
	lines []string // every log line, for stats parsing and diagnostics
}

// freeUDPPort returns a loopback UDP port that was free a moment ago.
func freeUDPPort() (string, error) {
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer c.Close()
	return c.LocalAddr().String(), nil
}

// startDaemon launches pepcd with the given extra flags, S1AP, GTP-U and
// N4 on fresh loopback ports and uplink egress toward sgi. It returns
// once pepcd has logged that it serves.
func startDaemon(bin, sgi string, extra ...string) (*daemon, error) {
	d := &daemon{sgi: sgi, ready: make(chan struct{}), done: make(chan struct{})}
	var err error
	if d.s1ap, err = freeUDPPort(); err != nil {
		return nil, err
	}
	if d.gtpu, err = freeUDPPort(); err != nil {
		return nil, err
	}
	if d.n4, err = freeUDPPort(); err != nil {
		return nil, err
	}
	args := []string{"-s1ap", d.s1ap, "-gtpu", d.gtpu, "-n4", d.n4, "-sgi", sgi, "-stats", statsEvery.String()}
	args = append(args, extra...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = nil
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		readySeen := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if !readySeen && strings.Contains(line, "pepcd: ") && strings.Contains(line, " slices, ") {
				readySeen = true
				close(d.ready)
			}
		}
		d.cmd.Wait()
		close(d.done)
	}()
	select {
	case <-d.ready:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("pepcd exited at start-up: %s", d.tail(5))
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("pepcd not ready after 20s: %s", d.tail(5))
	}
}

// statsEvery is the daemon's stats-line interval: short, so a reading
// taken after a measurement is at most this stale.
const statsEvery = 250 * time.Millisecond

// stop interrupts pepcd and waits for it to exit, killing it if it does
// not within three seconds.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// alive reports whether pepcd is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

func (d *daemon) tail(n int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	lo := len(d.lines) - n
	if lo < 0 {
		lo = 0
	}
	return strings.Join(d.lines[lo:], " | ")
}

// cpu returns the daemon's CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// peakRSSMB returns the daemon's resident-memory high-water mark.
func (d *daemon) peakRSSMB() (float64, error) { return procPeakRSSMB(d.cmd.Process.Pid) }

// procCPU sums the time every thread of a process has spent on a CPU,
// from /proc/<pid>/task/*/schedstat (nanoseconds, unlike the 10ms ticks
// of /proc/<pid>/stat).
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // thread exited meanwhile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed schedstat: %q", b)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// procPeakRSSMB reads VmHWM of a process from /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM")
}

// selfCPU returns this process's user+system CPU time with microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the calling OS thread's CPU time (the caller must be
// locked to its thread).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// statsLine is one reading of the slice counters pepcd prints.
type statsLine struct {
	forwarded, dropped, missed uint64
}

var reSlice = regexp.MustCompile(`slice 0: users=(\d+) forwarded=(\d+) dropped=(\d+) missed=(\d+)`)

// lastStats parses the most recent slice reading pepcd logged at or
// after line from.
func (d *daemon) lastStats(from int) (statsLine, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.lines) - 1; i >= from; i-- {
		if m := reSlice.FindStringSubmatch(d.lines[i]); m != nil {
			v := atoiAll(m[1:])
			return statsLine{forwarded: v[1], dropped: v[2], missed: v[3]}, true
		}
	}
	return statsLine{}, false
}

// freshStats waits for a slice reading logged after now.
func (d *daemon) freshStats() (statsLine, bool) {
	d.mu.Lock()
	n := len(d.lines)
	d.mu.Unlock()
	deadline := time.Now().Add(4 * statsEvery)
	for time.Now().Before(deadline) {
		time.Sleep(statsEvery / 4)
		if st, ok := d.lastStats(n); ok {
			return st, true
		}
	}
	return statsLine{}, false
}

func atoiAll(s []string) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i], _ = strconv.ParseUint(v, 10, 64)
	}
	return out
}

// stats waits for a slice reading pepcd logs after now.
func (d *daemon) stats() (statsLine, error) {
	st, ok := d.freshStats()
	if !ok {
		return st, fmt.Errorf("no pepcd stats line within %v: %s", 4*statsEvery, d.tail(3))
	}
	return st, nil
}

// since returns the counters of st minus those of before.
func (st statsLine) since(before statsLine) statsLine {
	return statsLine{
		forwarded: st.forwarded - before.forwarded,
		dropped:   st.dropped - before.dropped,
		missed:    st.missed - before.missed,
	}
}

// hostCPU reads the host-wide busy, idle and steal ticks from /proc/stat;
// steal is time the hypervisor ran something else on our virtual CPUs.
func hostCPU() (busy, idle, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	f := atoiAll(strings.Fields(line)[1:])
	if len(f) < 8 {
		return 0, 0, 0
	}
	// user nice system idle iowait irq softirq steal
	return f[0] + f[1] + f[2] + f[5] + f[6], f[3] + f[4], f[7]
}
