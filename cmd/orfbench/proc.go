package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sutBinaries are the programs under test plus the corpus generator;
// the harness builds them from the checkout it runs in.
var sutBinaries = []string{"orfserve", "orfrouter", "orfload", "orfgen"}

// Procs owns every child process of one harness run. Children are
// started on one locked OS thread because Linux delivers Pdeathsig when
// the *thread* that forked exits, and the Go runtime may retire an idle
// thread; with the lock, SIGKILL reaches the children exactly when the
// harness itself dies, even by kill -9.
type Procs struct {
	binDir string
	logDir string

	mu      sync.Mutex
	live    map[*Proc]struct{}
	started []ProcStamp

	spawn chan func()
}

// ProcStamp records one child for the host stamp: the exact flags it ran
// with and the GOMAXPROCS it inherited.
type ProcStamp struct {
	Name       string   `json:"name"`
	Args       []string `json:"args"`
	GOMAXPROCS int      `json:"gomaxprocs"`
}

// Proc is one running (or finished) child.
type Proc struct {
	Name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	log  *os.File
	// Set after done is closed.
	state *os.ProcessState
	err   error
	// rssSeen is the last VmHWM watchRSS read, as float64 bits.
	rssSeen atomic.Uint64
}

func newProcs(binDir, logDir string) *Procs {
	ps := &Procs{binDir: binDir, logDir: logDir, live: map[*Proc]struct{}{}, spawn: make(chan func())}
	go func() {
		runtime.LockOSThread()
		for fn := range ps.spawn {
			fn()
		}
	}()
	return ps
}

// childGOMAXPROCS is what a Go child process will pick: the inherited
// GOMAXPROCS variable, else the CPU count.
func childGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Start launches bin with args. Standard output and error go to a log
// file under the work directory; the tail is quoted when a child fails.
func (ps *Procs) Start(name, bin string, args ...string) (*Proc, error) {
	logf, err := os.OpenFile(filepath.Join(ps.logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(ps.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &Proc{Name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	started := make(chan error, 1)
	ps.spawn <- func() { started <- cmd.Start() }
	if err := <-started; err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.live[p] = struct{}{}
	ps.started = append(ps.started, ProcStamp{Name: name, Args: append([]string{bin}, args...), GOMAXPROCS: childGOMAXPROCS()})
	ps.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		p.state = cmd.ProcessState
		logf.Close()
		ps.mu.Lock()
		delete(ps.live, p)
		ps.mu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// Stamps returns every child started so far.
func (ps *Procs) Stamps() []ProcStamp {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]ProcStamp(nil), ps.started...)
}

// Close reaps every live child and retires the spawning thread.
func (ps *Procs) Close() {
	ps.KillAll()
	close(ps.spawn)
}

// KillAll SIGKILLs every live child and waits for each to be reaped.
func (ps *Procs) KillAll() {
	ps.mu.Lock()
	var live []*Proc
	for p := range ps.live {
		live = append(live, p)
	}
	ps.mu.Unlock()
	for _, p := range live {
		p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	}
	for _, p := range live {
		<-p.done
	}
}

// Pid returns the child's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Exited reports whether the child has been reaped.
func (p *Proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Signal sends sig; a child that already exited is not an error.
func (p *Proc) Signal(sig syscall.Signal) {
	p.cmd.Process.Signal(sig) //nolint:errcheck // os.ErrProcessDone only
}

// Wait blocks until the child is reaped or ctx ends; on timeout the
// child is killed so the harness never hangs behind it.
func (p *Proc) Wait(ctx context.Context) error {
	select {
	case <-p.done:
		return p.err
	case <-ctx.Done():
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.done
		return fmt.Errorf("%s: %w (killed)", p.Name, ctx.Err())
	}
}

// LogTail returns the last n bytes of the child's log.
func (p *Proc) LogTail(n int64) string {
	f, err := os.Open(p.log.Name())
	if err != nil {
		return ""
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > n {
		f.Seek(st.Size()-n, io.SeekStart) //nolint:errcheck
	}
	b, _ := io.ReadAll(f)
	return string(bytes.TrimSpace(b))
}

// CPUSeconds returns utime+stime. A live child is read from /proc; a
// reaped one from its rusage.
func (p *Proc) CPUSeconds() float64 {
	if p.Exited() {
		if p.state == nil {
			return 0
		}
		return (p.state.UserTime() + p.state.SystemTime()).Seconds()
	}
	return procCPUSeconds(p.Pid())
}

// PeakRSSMB returns the child's high-water resident set in MB: VmHWM
// of a live child, or the last value watchRSS saw of a reaped one. The
// reaped child's rusage is no use here: Go starts children with
// CLONE_VM, and Linux folds the address space the child held before
// exec, the harness's own few hundred MB, into its ru_maxrss.
func (p *Proc) PeakRSSMB() float64 {
	if p.Exited() {
		return math.Float64frombits(p.rssSeen.Load())
	}
	return procPeakRSSMB(p.Pid())
}

// watchRSS polls a short-lived child's VmHWM until it exits.
func (p *Proc) watchRSS() {
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				if mb := procPeakRSSMB(p.Pid()); mb > 0 {
					p.rssSeen.Store(math.Float64bits(mb))
				}
			}
		}
	}()
}

// clockTicks is USER_HZ; Linux fixes it at 100 for /proc regardless of
// the kernel's own HZ.
const clockTicks = 100

func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name, which may itself
	// contain spaces: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

func procPeakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPUSeconds is the harness's own utime+stime, for loadgen.cpu_frac.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; all are held open until the last is chosen so none repeats.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// staleChildren lists processes still running an executable from
// binDir: leftovers of an earlier harness run that would share the
// cores and skew every number.
func staleChildren(binDir string) []string {
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return nil
	}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var stale []string
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		exe = strings.TrimSuffix(exe, " (deleted)")
		if filepath.Dir(exe) == abs {
			stale = append(stale, fmt.Sprintf("%s (pid %d)", filepath.Base(exe), pid))
		}
	}
	return stale
}

// buildBinaries compiles the programs under test into binDir with one
// go build. The toolchain decides what is stale, so an unchanged
// checkout costs a cache lookup.
func buildBinaries(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	args := []string{"build", "-o", abs + string(filepath.Separator)}
	for _, b := range sutBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// waitHTTP polls url until it answers 200, the child exits, or ctx
// ends, and returns the status-200 instant.
func waitHTTP(ctx context.Context, p *Proc, url string) (time.Time, error) {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var lastErr error
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		if p != nil && p.Exited() {
			return time.Time{}, fmt.Errorf("%s exited before %s answered: %v\n%s", p.Name, url, p.err, p.LogTail(2048))
		}
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("waiting for %s: %w (last: %v)", url, ctx.Err(), lastErr)
		case <-time.After(time.Millisecond):
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // a snapshot's temp file renamed mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			if st, err := d.Info(); err == nil {
				n += st.Size()
			}
		}
		return nil
	})
	return n, err
}
